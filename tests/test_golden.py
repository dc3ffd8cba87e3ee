"""The CLI's standard output on the bundled scenarios, byte for byte.

Each file under tests/golden/ other than the scenarios k3_two_events.json,
k2_silent_relays.json, k2_relay_and_user.json and k1_extreme_draw29.json is
the stdout of one command below.  Stdout is the contract for deterministic
output, so a refactor must leave every byte as it is; regenerate the files
only for an intended change of output, and say why in CHANGES.md.
`PYTHONPATH=src python tests/test_golden.py` rewrites every file from CASES.
`solve-*.json` hold the solver's report alone; the grid-oracle comparison
of the same solve is in `validate-*.json`.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from cogmac import cli, region

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = HERE / "golden"

CASES = [
    (f"{stem}-{scenario}.{ext}", (command, "--scenario", str(SCENARIOS / f"{scenario}.json"), *extra))
    for scenario in ("k1_unit", "k2_reference", "k2_no_interference")
    for stem, command, extra, ext in (
        ("solve", "solve", (), "json"),
        ("sweep", "sweep", (), "csv"),
        ("validate", "validate", (), "json"),
    )
] + [
    (
        f"region-{scenario}.csv",
        ("region", "--scenario", str(SCENARIOS / f"{scenario}.json"), "--grid-step", "1e-3"),
    )
    for scenario in ("k2_reference", "k2_no_interference")
] + [
    # instance_suite(1, 90)[50]: three users; two saturate before lambda*,
    # and all three by --lambda-max 0.15
    (f"{stem}-k3_two_events.csv", ("sweep", "--scenario", str(GOLDEN / "k3_two_events.json"), *extra))
    for stem, extra in (("sweep", ()), ("sweep-lambda-max", ("--lambda-max", "0.15")))
] + [
    # lambda* = 0 with a user whose h_k and g_k are both positive: the sweep
    # range is that user's pole (h_k / g_k)^2 / s_p = 11.11
    ("sweep-k2_relay_and_user.csv", ("sweep", "--scenario", str(GOLDEN / "k2_relay_and_user.json"))),
] + [
    # two relays with h_k = 0 that overshoot phi = 0 together at lambda = 0:
    # neither lands alone, so one is released to 0 and the other lands
    (
        f"{stem}-k2_silent_relays.json",
        (command, "--scenario", str(GOLDEN / "k2_silent_relays.json"), *extra),
    )
    for stem, command, extra in (
        ("solve", "solve", ()),
        ("validate", "validate", ()),
    )
] + [
    # ROADMAP item 1's extreme fuzz, draw 29: sigma_p2 A^2 = s_p sigma_p2 is
    # about 1.3e42 while phi's terms that depend on gamma are about 3e5
    (
        f"{stem}-k1_extreme_draw29.json",
        (command, "--scenario", str(GOLDEN / "k1_extreme_draw29.json"), *extra),
    )
    for stem, command, extra in (
        ("solve", "solve", ()),
        ("validate", "validate", ()),
    )
]


def _stdout(args) -> bytes:
    """Stdout of one `cogmac` process, which must exit 0."""
    proc = subprocess.run([sys.executable, "-m", "cogmac", *args], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("golden, args", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(golden, args):
    assert _stdout(args) == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "command", [("validate",), ("region", "--grid-step", "1e-3")], ids=" ".join
)
def test_empty_grid_is_one_error_line(command, monkeypatch, capsys):
    """An instance on which no grid point passes the residual check, here
    every point, with the feasible grid's tolerance set below 0: neither the
    grid oracle nor the region's sampling can run, so the command prints one
    `error:` line, no traceback and nothing on stdout, and exits 2."""
    monkeypatch.setattr(region, "RESIDUAL_TOL", -1.0)
    code = cli.main([*command, "--scenario", str(SCENARIOS / "k2_reference.json")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: no feasible split on the step-0.001 grid")
    assert err.count("\n") == 1


def test_in_process_calls_reuse_one_parser(tmp_path):
    """A series of `cli.main` calls in one process shares one parser; no flag
    value carries over from one call to the next."""

    def scenario(name):
        return str(SCENARIOS / f"{name}.json")

    def run(name, *args):
        out = tmp_path / name
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*args, "--out", str(out)])
        assert code == 0
        return out.read_bytes()

    loose = ("validate", "--scenario", scenario("k2_reference"), "--tol", "1e-3",
             "--agreement-tol", "0.5")
    assert run("loose.json", *loose) == _stdout(loose)
    plain = run("validate.json", "validate", "--scenario", scenario("k2_reference"))
    assert plain == (GOLDEN / "validate-k2_reference.json").read_bytes()

    short = ("sweep", "--scenario", scenario("k2_reference"), "--samples", "5")
    assert run("short.csv", *short) == _stdout(short)
    plain = run("sweep.csv", "sweep", "--scenario", scenario("k2_reference"))
    assert plain == (GOLDEN / "sweep-k2_reference.csv").read_bytes()

    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--scenario", scenario("k1_unit"), "--samples", "many"])
    assert exc.value.code == 1
    plain = run("after-error.csv", "sweep", "--scenario", scenario("k1_unit"))
    assert plain == (GOLDEN / "sweep-k1_unit.csv").read_bytes()

    for name in ("k2_reference", "k2_no_interference"):
        hull = run(f"region-{name}.csv", "region", "--scenario", scenario(name), "--grid-step", "1e-3")
        assert hull == (GOLDEN / f"region-{name}.csv").read_bytes()
    assert cli.build_parser() is cli.build_parser()


def test_main_dispatches_through_the_module(monkeypatch):
    """`cli.main` looks its command up when it runs, so a `cmd_*` replaced
    after the parser is built and cached, as a tracer replaces it, is the
    one that runs."""
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: calls.append(args.samples) or 0)
    assert cli.main(["sweep", "--scenario", "unread.json", "--samples", "7"]) == 0
    assert calls == [7]


if __name__ == "__main__":
    for golden, args in CASES:
        (GOLDEN / golden).write_bytes(_stdout(args))
