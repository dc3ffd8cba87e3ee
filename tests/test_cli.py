import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import hull_contains

from cogmac import ChannelInstance, SolverConfig, cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "cogmac", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


UNIT_K1 = {
    "h": [1.0], "g": [1.0], "p": [1.0],
    "h_p": 1.0, "p_p": 1.0, "sigma_p2": 1.0, "sigma_c2": 1.0,
}


def _put(label, value):
    """The scenario entries that place value where an error names `label`:
    `h[1]` is the second entry of a two-user h, `solver.x` a solver field."""
    name, _, solver_field = label.partition("solver.")
    if solver_field:
        return {"solver": {solver_field: value}}
    if name.endswith("[1]"):
        return {"h": [1.0, 1.0], "g": [1.0, 1.0], "p": [1.0, 1.0], name[:-3]: [1.0, value]}
    if name.endswith("[0]"):
        return {name[:-3]: [value]}
    return {name: value}


FIELD_LABELS = (
    "h[0]", "g[0]", "p[0]", "h[1]", "h_p", "p_p", "sigma_p2", "sigma_c2", "f",
    "solver.residual_tol", "solver.max_outer_iters",
)
# stable ids of the cases these two tables started with
_FIRST_IDS = {
    ("p_p", "10e400"): "scalar",
    ("p[0]", "10e400"): "vector-entry",
    ("solver.residual_tol", "10e400"): "solver-residual_tol",
    ("p_p", "5000-digits"): "scalar",
    ("h[1]", "5000-digits"): "vector-entry",
    ("solver.max_outer_iters", "5000-digits"): "solver-max_outer_iters",
}


def _field_table(values):
    """Every field label with every value, as pytest cases."""
    return [
        pytest.param(label, value, id=_FIRST_IDS.get((label, kind), f"{label}-{kind}"))
        for label in FIELD_LABELS
        for kind, value in values.items()
    ]


class TestSolve:
    def test_single_user_report(self):
        proc = run_cli("solve", "--scenario", str(SCENARIOS / "k1_unit.json"))
        report = json.loads(proc.stdout)
        assert report["status"] == "Converged"
        assert report["gamma_star"][0] == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-5)
        assert report["achieved_primary_rate_bits"] == pytest.approx(
            report["baseline_primary_rate_bits"], abs=1e-6
        )

    def test_degenerate_scenario(self):
        proc = run_cli("solve", "--scenario", str(SCENARIOS / "k2_no_interference.json"))
        report = json.loads(proc.stdout)
        assert report["status"] == "Converged"
        assert report["gamma_star"] == [0, 0]
        assert report["outer_iterations"] == 2

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"p": [-1.0]}, "p[0]"),
            ({"h": [1.0, -0.5], "g": [1.0, 1.0], "p": [1.0, 1.0]}, "h[1]"),
            ({"p_p": 0.0}, "p_p"),
            ({"sigma_c2": 0.0}, "sigma_c2"),
            ({"f": -0.3}, "f"),
        ],
        ids=["p0-negative", "h1-negative", "p_p-zero", "sigma_c2-zero", "f-negative"],
    )
    def test_negative_power_names_field(self, tmp_path, override, field):
        doc = dict(UNIT_K1, **override)
        path = write_scenario(tmp_path, doc)
        proc = run_cli("solve", "--scenario", path, check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {field} must be ")

    @staticmethod
    def _assert_field_error(capsys, path, label, value, rule):
        """`cogmac solve` on the scenario at path, run in process, prints one
        line `error: <label> <rule>` and nothing to stdout, and the
        constructor given `value` where `label` names it raises ValueError
        `<label> <rule>`, without the CLI's `solver.`."""
        assert cli.main(["solve", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {label} {rule}\n"
        name, _, solver_field = label.partition("solver.")
        with pytest.raises(ValueError) as exc:
            if solver_field:
                SolverConfig(**{solver_field: value})
            else:
                ChannelInstance(**dict(UNIT_K1, **_put(label, value)))
        assert str(exc.value) == f"{solver_field or name} {rule}"

    @pytest.mark.parametrize(
        "label, value",
        _field_table({"true": True, "string": "1", "null": None, "10e400": 10**400}),
    )
    def test_integer_past_float_range_names_field(self, tmp_path, capsys, label, value):
        path = write_scenario(tmp_path, dict(UNIT_K1, **_put(label, value)))
        if value == 10**400:
            rule = "must be finite, got an integer too large for a float"
        elif label == "solver.max_outer_iters":
            rule = "must be an integer"
        else:
            rule = f"must be a number, got {value!r}"
        self._assert_field_error(capsys, path, label, value, rule)

    @pytest.mark.parametrize("label, value", _field_table({"5000-digits": 10**5000 - 1}))
    def test_integer_past_digit_limit_names_field(self, tmp_path, capsys, label, value):
        # longer than int() parses by default, so json.dumps cannot write it
        text = json.dumps(dict(UNIT_K1, **_put(label, "@"))).replace('"@"', "9" * 5000)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        rule = "must be finite, got an integer too large for a float"
        self._assert_field_error(capsys, path, label, value, rule)

    @pytest.mark.parametrize("command", ["solve", "region", "sweep", "validate"])
    def test_overflowing_received_power_names_field(self, tmp_path, command):
        doc = json.loads((SCENARIOS / "k2_reference.json").read_text())
        path = write_scenario(tmp_path, dict(doc, g=[1e200, 1e200]))
        proc = run_cli(command, "--scenario", path, check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: sum of g[k]^2 * p[k] must be finite")

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_faint_interference_exits_cleanly(self, tmp_path, capsys, command):
        # (h_k / g_k)^2 = 1e320 overflowed, and `solve` ended in a
        # ZeroDivisionError traceback with exit 1
        doc = json.loads((SCENARIOS / "k2_reference.json").read_text())
        path = write_scenario(tmp_path, dict(doc, g=[1e-160, 1e-160]))
        assert cli.main([command, "--scenario", path]) in (0, 2)
        out, err = capsys.readouterr()
        assert out and "Traceback" not in err

    def test_huge_power_still_solves(self, tmp_path):
        doc = json.loads((SCENARIOS / "k2_reference.json").read_text())
        path = write_scenario(tmp_path, dict(doc, p=[1e300, 1e300]))
        proc = run_cli("validate", "--scenario", path)
        assert json.loads(proc.stdout)["verdict"] == "pass"

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(UNIT_K1, extra=1)
        path = write_scenario(tmp_path, doc)
        proc = run_cli("solve", "--scenario", path, check=False)
        assert proc.returncode == 1
        assert "extra" in proc.stderr

    def test_max_iters_exit_code(self, tmp_path):
        doc = dict(UNIT_K1, solver={"max_outer_iters": 2})
        path = write_scenario(tmp_path, doc)
        proc = run_cli("solve", "--scenario", path, check=False)
        assert proc.returncode == 2

    def test_scenario_echo_round_trips(self, tmp_path):
        proc = run_cli("solve", "--scenario", str(SCENARIOS / "k2_reference.json"))
        echo = json.loads(proc.stdout)["scenario"]
        path = write_scenario(tmp_path, echo)
        proc2 = run_cli("solve", "--scenario", path)
        assert json.loads(proc2.stdout)["scenario"] == echo


class TestRegion:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "region.csv"
        run_cli(
            "region", "--scenario", str(SCENARIOS / "k2_reference.json"),
            "--grid-step", "0.05", "--out", str(out),
        )
        text = out.read_text()
        assert "\r" not in text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["r1_bits", "r2_bits"]
        points = [(float(a), float(b)) for a, b in rows[1:]]
        assert (0.0, 0.0) in points

    def test_requires_two_users(self):
        proc = run_cli(
            "region", "--scenario", str(SCENARIOS / "k1_unit.json"), check=False
        )
        assert proc.returncode == 1

    def test_degenerate_hull_is_zero_split_pentagon(self, tmp_path):
        proc = run_cli(
            "region", "--scenario", str(SCENARIOS / "k2_no_interference.json"),
            "--grid-step", "0.25",
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        points = {(float(a), float(b)) for a, b in rows[1:]}
        c1 = c2 = 0.5
        c12 = 0.5 * math.log2(3.0)
        expected = {(0.0, 0.0), (c1, 0.0), (0.0, c2)}
        assert expected <= {(round(x, 9), round(y, 9)) for x, y in points}
        assert max(x + y for x, y in points) == pytest.approx(c12, abs=1e-9)

    def test_no_interference_uses_one_split(self):
        proc = run_cli(
            "region", "--scenario", str(SCENARIOS / "k2_no_interference.json"),
            "--grid-step", "1e-3",
        )
        assert " samples=1 " in proc.stderr

    def test_refinement_containment(self):
        coarse = run_cli(
            "region", "--scenario", str(SCENARIOS / "k2_reference.json"),
            "--grid-step", "0.5",
        )
        fine = run_cli(
            "region", "--scenario", str(SCENARIOS / "k2_reference.json"),
            "--grid-step", "0.25",
        )

        def parse(proc):
            rows = list(csv.reader(io.StringIO(proc.stdout)))
            return [(float(a), float(b)) for a, b in rows[1:]]

        fine_pts = parse(fine)
        for pt in parse(coarse):
            assert hull_contains(fine_pts, pt, tol=1e-9)

    def test_consistent_with_solve(self):
        region = run_cli(
            "region", "--scenario", str(SCENARIOS / "k2_reference.json"),
            "--grid-step", "0.001",
        )
        rows = list(csv.reader(io.StringIO(region.stdout)))
        hull_max = max(float(a) + float(b) for a, b in rows[1:])
        solve = run_cli("solve", "--scenario", str(SCENARIOS / "k2_reference.json"))
        assert hull_max == pytest.approx(
            json.loads(solve.stdout)["sum_rate_bits"], abs=5e-3
        )


class TestSweep:
    def test_origin_row_and_sign_change(self):
        proc = run_cli(
            "sweep", "--scenario", str(SCENARIOS / "k2_reference.json"),
            "--samples", "101",
        )
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        first = rows[0]
        assert float(first["lambda"]) == 0.0
        assert float(first["x"]) == pytest.approx(math.sqrt(10.0), abs=1e-9)
        assert float(first["gamma_1"]) == 0.0
        assert float(first["gamma_2"]) == 0.0
        signs = [float(r["phi"]) >= 0 for r in rows]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    def test_gamma_monotone_within_active_set(self):
        proc = run_cli(
            "sweep", "--scenario", str(SCENARIOS / "k2_reference.json"),
            "--samples", "101",
        )
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        for prev, cur in zip(rows, rows[1:]):
            if prev["saturated_users"] != cur["saturated_users"]:
                continue
            for key in ("x", "gamma_1", "gamma_2"):
                assert float(cur[key]) >= float(prev[key]) - 1e-12


class TestValidate:
    def test_single_user_pass(self):
        proc = run_cli("validate", "--scenario", str(SCENARIOS / "k1_unit.json"))
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "pass"
        assert doc["kkt"]["passed"] is True

    def test_two_user_pass_with_small_gap(self):
        proc = run_cli(
            "validate", "--scenario", str(SCENARIOS / "k2_reference.json"),
            "--grid-step", "0.001",
        )
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "pass"
        assert abs(doc["sum_rate_gap_bits"]) <= 1e-3

    def test_loosened_tolerance_fails_feasibility(self, tmp_path):
        # the solve stops on its evaluation cap, short of the constraint
        doc = dict(UNIT_K1, solver={"max_outer_iters": 2})
        path = write_scenario(tmp_path, doc)
        proc = run_cli("validate", "--scenario", path, check=False)
        assert proc.returncode == 2
        out = json.loads(proc.stdout)
        assert out["verdict"] == "fail"
        assert out["kkt"]["feasibility_ok"] is False


class TestInvalidFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ("region", "--scenario", str(SCENARIOS / "k2_reference.json"), "--grid-step", "0"),
            ("sweep", "--scenario", str(SCENARIOS / "k2_reference.json"), "--samples", "1"),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--tol", "-1"),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--lambda-step", "1e-4"),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--tol", "abc"),
            ("solve",),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--tol", "nan"),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--oracle",
             "--grid-step", "inf"),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--oracle"),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--grid-step", "1e-3"),
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), "--tol", "1e-12"),
            ("validate", "--scenario", str(SCENARIOS / "k1_unit.json"), "--grid-step", "inf"),
            ("validate", "--scenario", str(SCENARIOS / "k1_unit.json"), "--tol", "nan"),
            ("validate", "--scenario", str(SCENARIOS / "k1_unit.json"),
             "--agreement-tol", "nan"),
            ("region", "--scenario", str(SCENARIOS / "k2_reference.json"), "--grid-step", "inf"),
            ("region", "--scenario", str(SCENARIOS / "k2_reference.json"), "--grid-step", "nan"),
            ("sweep", "--scenario", str(SCENARIOS / "k2_reference.json"), "--lambda-max", "nan"),
            ("sweep", "--scenario", str(SCENARIOS / "k2_reference.json"), "--lambda-max", "inf"),
        ],
        ids=[
            "region-grid-step-0",
            "sweep-samples-1",
            "solve-tol-negative",
            "solve-lambda-step-removed",
            "solve-tol-not-a-number",
            "solve-scenario-missing",
            "solve-tol-nan",
            "solve-oracle-grid-step-inf",
            "solve-oracle-removed",
            "solve-grid-step-removed",
            "solve-tol-removed",
            "validate-grid-step-inf",
            "validate-tol-nan",
            "validate-agreement-tol-nan",
            "region-grid-step-inf",
            "region-grid-step-nan",
            "sweep-lambda-max-nan",
            "sweep-lambda-max-inf",
        ],
    )
    def test_invalid_value_is_input_error(self, args):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize(
        "command, scenario",
        [
            ("solve", "k1_unit"),
            ("region", "k2_reference"),
            ("sweep", "k2_reference"),
            ("validate", "k1_unit"),
        ],
    )
    def test_unwritable_out_is_input_error(self, tmp_path, command, scenario, target):
        out = tmp_path / "no" / "such" / "out.txt" if target == "missing-directory" else tmp_path
        proc = run_cli(
            command, "--scenario", str(SCENARIOS / f"{scenario}.json"), "--out", str(out),
            check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write output file: ")
        assert str(out) in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_removed_solve_flags_print_usage(self):
        # the solve's settings are the scenario's; the grid oracle is validate's
        removed = ("--oracle", "--grid-step", "1e-3", "--tol", "1e-12")
        proc = run_cli("solve", "--scenario", str(SCENARIOS / "k1_unit.json"), *removed, check=False)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: unrecognized arguments: {' '.join(removed)}\n"
            "usage: cogmac [-h] {solve,region,sweep,validate} ...\n"
        )

    def test_help_exits_zero(self):
        proc = run_cli("solve", "--help")
        assert proc.stdout.startswith("usage:")
        options = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  -")]
        assert options == ["-h,", "--scenario", "--out"]

    @pytest.mark.parametrize("key", ["lambda_step", "bisection_refine", "refine_tol"])
    def test_removed_solver_keys_rejected(self, tmp_path, key):
        path = write_scenario(tmp_path, dict(UNIT_K1, solver={key: 1e-4}))
        proc = run_cli("solve", "--scenario", path, check=False)
        assert proc.returncode == 1
        assert proc.stderr == f"error: unknown field solver.{key}\n"

    def test_nan_residual_tol_rejected(self, tmp_path):
        path = write_scenario(tmp_path, dict(UNIT_K1, solver={"residual_tol": math.nan}))
        proc = run_cli("solve", "--scenario", path, check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: solver.residual_tol must be ")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--scenario", str(SCENARIOS / "k1_unit.json")),
            ("solve", "--scenario", str(SCENARIOS / "k2_reference.json")),
            ("region", "--scenario", str(SCENARIOS / "k2_reference.json"),
             "--grid-step", "0.1"),
            ("sweep", "--scenario", str(SCENARIOS / "k2_reference.json"),
             "--samples", "51"),
            ("validate", "--scenario", str(SCENARIOS / "k1_unit.json"),
             "--grid-step", "0.01"),
        ],
    )
    def test_repeated_runs_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
