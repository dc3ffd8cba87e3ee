import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import hull_contains, limit_fuzz
from hypothesis import given, settings
from hypothesis import strategies as st

from cogmac import ChannelInstance, cli, random_instance, region_boundary, sweep_trajectory

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def _put(name, value):
    """The scenario entries that place value where an error names `name`:
    `h[1]` is the second entry of a two-user h."""
    if name.endswith("[1]"):
        return {"h": [1.0, 1.0], "g": [1.0, 1.0], "p": [1.0, 1.0], name[:-3]: [1.0, value]}
    if name.endswith("[0]"):
        return {name[:-3]: [value]}
    return {name: value}


FIELD_LABELS = ("h[0]", "g[0]", "p[0]", "h[1]", "h_p", "p_p", "sigma_p2", "sigma_c2", "f")
# stable ids of the cases these two tables started with
_FIRST_IDS = {
    ("p_p", "10e400"): "scalar",
    ("p[0]", "10e400"): "vector-entry",
    ("p_p", "5000-digits"): "scalar",
    ("h[1]", "5000-digits"): "vector-entry",
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
        `<label> <rule>`."""
        assert cli.main(["solve", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {label} {rule}\n"
        with pytest.raises(ValueError) as exc:
            ChannelInstance(**dict(UNIT_K1, **_put(label, value)))
        assert str(exc.value) == f"{label} {rule}"

    @pytest.mark.parametrize(
        "label, value",
        _field_table({"true": True, "string": "1", "null": None, "10e400": 10**400}),
    )
    def test_integer_past_float_range_names_field(self, tmp_path, capsys, label, value):
        path = write_scenario(tmp_path, dict(UNIT_K1, **_put(label, value)))
        if value == 10**400:
            rule = "must be finite, got an integer too large for a float"
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

    def test_max_iters_exit_code(self, tmp_path, capsys):
        # limit-fuzz draw 22 (K = 2): the root find reaches lambda*, but the
        # split there keeps a relative residual of 1, far above RESIDUAL_TOL
        path = write_scenario(tmp_path, cli.scenario_echo(limit_fuzz()[22], None))
        assert cli.main(["solve", "--scenario", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "MaxItersExceeded"
        assert out["residual_rel"] == 1

    def test_non_finite_rate_is_valid_json(self, tmp_path, capsys):
        # limit-fuzz draw 36 (K = 1): the rate overflows to inf, which was
        # printed as `inf`, and json.loads rejected the report
        path = write_scenario(tmp_path, cli.scenario_echo(limit_fuzz()[36], None))
        assert cli.main(["solve", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert '"sum_rate_bits": Infinity,' in out
        assert json.loads(out)["sum_rate_bits"] == math.inf

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

    def test_memory_per_feasible_row(self, tmp_path, capsys):
        # the traced peak of one in-process region run over its feasible
        # rows: 370 B when the staircase's corners were unpacked into tuples
        # while its sorted arrays were alive
        args = ["region", "--scenario", str(SCENARIOS / "k2_reference.json")]
        tracemalloc.start()
        try:
            assert cli.main([*args, "--grid-step", "1e-4", "--out", str(tmp_path / "r.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = int(re.search(r" samples=(\d+) ", capsys.readouterr().err).group(1))
        assert samples == 13225
        assert peak / samples <= 260

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

    def test_default_range_past_the_float_range(self, tmp_path, capsys):
        # lambda* is the largest float, and 1.25 lambda* overflowed into
        # `error: lambda_max must be nonnegative and finite, got inf`
        path = write_scenario(tmp_path, dict(UNIT_K1, h=[1e150], g=[1e-10]))
        assert cli.main(["sweep", "--scenario", path, "--samples", "3"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[-1]["lambda"] == "%.12g" % sys.float_info.max

    def test_negative_zero_range_prints_no_negative_zero(self, capsys):
        args = ["sweep", "--scenario", str(SCENARIOS / "k2_reference.json"), "--samples", "3"]
        assert cli.main([*args, "--lambda-max", "-0.0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0", "0"]
        assert "-0" not in ",".join(rows).split(",")

    def test_all_saturated_rows_past_overflow(self, capsys):
        # r A and r X overflow where both users are saturated, and inf * 0
        # printed x = nan on the last row
        args = ["sweep", "--scenario", str(SCENARIOS / "k2_reference.json"), "--samples", "3"]
        assert cli.main([*args, "--lambda-max", "1e308"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "5e+307,4.50391844667,1,1,10.2852813742,1|2",
            "1e+308,4.50391844667,1,1,10.2852813742,1|2",
        ]

    @pytest.mark.parametrize("draw, lam", [
        (36, "7.73821813197e+194"), (81, "2.08746046618e+259"), (5, "0"), (9, "2.82793212873e-137"),
    ])
    def test_path_past_the_float_range_is_one_error_line(self, tmp_path, capsys, draw, lam):
        # limit-fuzz draws on which the path's rows turn NaN (36, 81): checked
        # as splits, they exited 1 with `error: gamma must be finite`, as if
        # the scenario were invalid; and draws whose gamma is finite but whose
        # phi overflows (5, 9), which exited 0 with RuntimeWarnings on stderr.
        # Now not-converged, and no RuntimeWarning
        path = write_scenario(tmp_path, cli.scenario_echo(limit_fuzz()[draw], None))
        assert cli.main(["sweep", "--scenario", path]) == 2
        assert capsys.readouterr() == (
            "", f"error: the path passes the float range at lambda = {lam}\n"
        )


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

    def test_one_user_grid_at_any_step(self, capsys):
        # one candidate row, gamma = 0 before its root, whatever the step:
        # the 1-D grid was built and counted, and 1e-8 was refused
        args = ["validate", "--scenario", str(SCENARIOS / "k1_unit.json"), "--grid-step"]
        assert cli.main([*args, "1e-3"]) == 0
        coarse = json.loads(capsys.readouterr().out)
        assert cli.main([*args, "1e-8"]) == 0
        fine = json.loads(capsys.readouterr().out)
        assert fine["oracle"]["points_evaluated"] == coarse["oracle"]["points_evaluated"] == 1
        assert fine["oracle"]["best_gamma"] == coarse["oracle"]["best_gamma"]
        assert fine["verdict"] == coarse["verdict"] == "pass"

    def test_loosened_tolerance_fails_feasibility(self, tmp_path, capsys):
        # limit-fuzz draw 22: its solve ends far off the constraint, while
        # its step-1e-2 grid holds a feasible point
        path = write_scenario(tmp_path, cli.scenario_echo(limit_fuzz()[22], None))
        assert cli.main(["validate", "--scenario", path, "--grid-step", "1e-2"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["oracle"]["points_evaluated"] > 0
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
        # every subcommand's option list, so that an added flag shows here
        common = ["-h,", "--scenario", "--out"]
        expected = {
            "solve": common,
            "region": [*common, "--grid-step"],
            "sweep": [*common, "--lambda-max", "--samples"],
            "validate": [*common, "--grid-step", "--tol", "--agreement-tol"],
        }
        for command, flags in expected.items():
            proc = run_cli(command, "--help")
            assert proc.stdout.startswith("usage:")
            options = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  -")]
            assert options == flags, command

    @pytest.mark.parametrize(
        "key", ["lambda_step", "bisection_refine", "refine_tol", "residual_tol", "max_outer_iters"]
    )
    def test_removed_solver_keys_rejected(self, tmp_path, key):
        # the solver takes no settings, so a scenario's `solver` object is
        # an unknown field whatever it holds
        path = write_scenario(tmp_path, dict(UNIT_K1, solver={key: math.nan}))
        proc = run_cli("solve", "--scenario", path, check=False)
        assert proc.returncode == 1
        assert proc.stderr == "error: unknown field 'solver'\n"

    @pytest.mark.parametrize(
        "command, users, step, count",
        [("validate", 2, "1e-8", "2e+08"), ("validate", 3, "1e-4", "3e+08"),
         ("region", 2, "5e-324", "inf")],
    )
    def test_oversized_grid_is_one_error_line(self, tmp_path, capsys, command, users, step, count):
        # counted before anything is built: one two-user block at 1e-8 would
        # take over 1.6 GB, one three-user block at 1e-4 about 2.4 GB, and
        # 1 / 5e-324 overflows, which ended in an OverflowError traceback
        doc = dict(UNIT_K1, h=[1.0] * users, g=[1.0] * users, p=[1.0] * users)
        path = write_scenario(tmp_path, doc)
        assert cli.main([command, "--scenario", path, "--grid-step", step]) == 1
        assert capsys.readouterr().err == (
            f"error: grid_step {float(step)} needs {count} grid rows on this {users}-user "
            "instance, more than 1e+07; take a larger --grid-step\n"
        )

    def test_oversized_sweep_is_one_error_line(self, capsys):
        # refused before anything is allocated: the (samples, K) path took
        # numpy's allocation error, a traceback
        args = ["sweep", "--scenario", str(SCENARIOS / "k2_reference.json"), "--samples", str(10**15)]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: samples {10**15} on this 2-user instance ask for more than 1e+07 "
            "path values; take a smaller --samples\n"
        )


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


def reference_dump_json(obj, indent=0):
    """The recursive JSON writer the CLI had before its one-pass writer,
    the reference for its bytes on finite floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {reference_dump_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {reference_dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".12g")
    return json.dumps(obj)


def reference_region(boundary):
    """`region`'s stdout and stderr as they were written row by row."""
    lines = ["r1_bits,r2_bits", *map("%.12g,%.12g".__mod__, boundary.points)]
    summary = (
        f"vertices={len(boundary.points)} samples={boundary.samples_used} "
        f"max_sum_rate_bits={format(max(r1 + r2 for r1, r2 in boundary.points), '.12g')}\n"
    )
    return "\n".join(lines) + "\n", summary


def reference_sweep(traj, k):
    """`sweep`'s stdout as it was written row by row."""
    gammas = [f"gamma_{i + 1}" for i in range(k)]
    lines = [",".join(["lambda", "x", *gammas, "phi", "saturated_users"])]
    numbers = np.column_stack([traj.lam, traj.x, traj.gamma, traj.phi]).tolist()
    row = ",".join(["%.12g"] * (k + 3)) + ",%s"
    for values, flags in zip(numbers, traj.saturated.tolist()):
        label = "|".join(str(i + 1) for i, pinned in enumerate(flags) if pinned)
        lines.append(row % (*values, label))
    return "\n".join(lines) + "\n"


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀'), st.characters()))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    _TEXT,
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.integers()), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestWriters:
    """The one-pass writers give the bytes of the row-by-row and recursive
    ones they replaced, kept above as references."""

    @given(_DOCUMENTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_json_matches_reference(self, doc):
        assert cli.dump_json(doc) == reference_dump_json(doc)

    def test_json_non_finite_floats_parse(self):
        doc = {"a": [math.nan, math.inf, -math.inf, np.float64(-math.inf)]}
        text = cli.dump_json(doc)
        assert text == '{\n  "a": [\n    NaN,\n    Infinity,\n    -Infinity,\n    -Infinity\n  ]\n}'
        assert json.loads(text)["a"][1:] == [math.inf, -math.inf, -math.inf]

    def test_region_matches_reference(self, tmp_path, capsys):
        path = SCENARIOS / "k2_reference.json"
        assert cli.main(["region", "--scenario", str(path), "--grid-step", "1e-3"]) == 0
        ch, _ = cli.load_scenario(str(path))
        assert capsys.readouterr() == reference_region(region_boundary(ch, 1e-3))

    @pytest.mark.parametrize(
        "silent, lambda_max, patterns", [(0, None, 6), (0, 0.5, 28), (64, None, 3)]
    )
    def test_sweep_matches_reference_past_64_users(
        self, tmp_path, capsys, silent, lambda_max, patterns
    ):
        # labels keyed by a 64-bit mask collide from user 64 on: up to
        # lambda = 0.5, users 64 to 70 saturate one by one, and with g_k = 0
        # for the first 64 users only users 65 to 70 can saturate
        ch = random_instance(np.random.default_rng(0), 70)
        echo = cli.scenario_echo(ch, None)
        echo["g"][:silent] = [0.0] * silent
        path = write_scenario(tmp_path, echo)
        extra = [] if lambda_max is None else ["--lambda-max", str(lambda_max)]
        assert cli.main(["sweep", "--scenario", path, *extra]) == 0
        traj = sweep_trajectory(cli.load_scenario(path)[0], lambda_max, 201)
        assert capsys.readouterr().out == reference_sweep(traj, 70)
        assert len({flags.tobytes() for flags in traj.saturated}) == patterns


def _scenarios():
    """Every bundled scenario and every scenario under tests/golden, which
    the command outputs there sit beside."""
    golden = [
        p for p in sorted(GOLDEN.glob("*.json"))
        if not p.name.startswith(("solve-", "validate-", "solver-"))
    ]
    return [*sorted(SCENARIOS.glob("*.json")), *golden]


class TestStdoutParses:
    """Every command's stdout parses: JSON by json.loads, CSV by csv with
    float() reading every numeric cell."""

    @pytest.mark.parametrize("path", _scenarios(), ids=lambda p: p.stem)
    def test_every_command(self, path, capsys):
        users = cli.load_scenario(str(path))[0].num_users
        commands = [("solve",), ("validate", "--grid-step", "1e-2"), ("sweep",)]
        if users == 2:
            commands.append(("region",))
        for command, *extra in commands:
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([command, "--scenario", str(path), *extra]) in (0, 2)
            out = capsys.readouterr().out
            if command in ("solve", "validate"):
                assert isinstance(json.loads(out), dict)
                continue
            head, *rows = csv.reader(io.StringIO(out))
            assert rows and all(len(row) == len(head) for row in rows)
            numeric = len(head) - (command == "sweep")  # saturated_users is a label
            for row in rows:
                list(map(float, row[:numeric]))
                assert re.fullmatch(r"(\d+(\|\d+)*)?", "".join(row[numeric:]))
