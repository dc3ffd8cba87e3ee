"""Command-line front end: scenario ingestion and deterministic JSON/CSV output.

Commands: solve, region, sweep, validate.  Floats are always emitted with 12
significant digits and '\n' line endings so repeated runs are byte-identical;
a non-finite one as NaN, Infinity or -Infinity in JSON, which Python's json
reads, and as nan, inf or -inf in CSV, which float() reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import numbers
import sys
import time
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .channel import ChannelInstance, _row_chunks, baseline_primary_rate, primary_rate
from .oracle import grid_search, kkt_check
from .region import EmptyGridError, region_boundary
from .solver import SolverResult, SolverStatus, solve_max_sum_rate, sweep_trajectory

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class ScenarioError(ValueError):
    """Scenario file is malformed; message names the offending field."""


def _parse_int(text: str) -> int:
    """A JSON integer literal as an int, and one longer than `int` parses
    (`sys.get_int_max_str_digits`, at least 640 digits) as 2**1024, the
    least integer past the float range.  JSON has no leading zeros, so such
    a literal lies past that range too; every scenario field must fit a
    float, so the field's own check rejects it and names the field."""
    try:
        return int(text)
    except ValueError:
        return 2**1024


_FIELDS = dataclasses.fields(ChannelInstance)  # the scenario's schema


def load_scenario(path: str) -> tuple[ChannelInstance, str | None]:
    """Parse a scenario JSON file into (instance, name).  `ChannelInstance`
    checks every value and names the field at fault; checked here is what
    only JSON holds: an unknown or a missing field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    name = doc.pop("name", None)
    unknown = sorted(set(doc) - {f.name for f in _FIELDS})
    if unknown:
        raise ScenarioError(f"unknown field {unknown[0]!r}")
    for field in _FIELDS:
        if field.name not in doc and field.default is dataclasses.MISSING:
            raise ScenarioError(f"missing field {field.name!r}")
    ch = ChannelInstance(**doc)
    if name is not None and not isinstance(name, str):
        raise ScenarioError("name must be a string")
    return ch, name


def scenario_echo(ch: ChannelInstance, name: str | None) -> dict:
    echo = ch.as_dict()
    if name is not None:
        echo["name"] = name
    return echo


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # JSON's spelling


def dump_json(obj) -> str:
    """`obj` as JSON, two spaces per level: floats with 12 significant digits,
    a non-finite one as NaN, Infinity or -Infinity, and keys and strings
    quoted as `json.dumps` quotes them.  Dispatches on each value's exact
    type; any other integral or real number, a numpy one included, is
    written as that number, and any other type by `json.dumps`."""
    return _json(obj, "")


def _json(obj, pad: str) -> str:
    kind = type(obj)
    if kind is float:
        text = "%.12g" % obj
        return _NON_FINITE.get(text, text)
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is dict:
            items = [f"{inner}{_quote(str(k))}: {_json(v, inner)}" for k, v in obj.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        return "[\n" + ",\n".join([inner + _json(v, inner) for v in obj]) + "\n" + pad + "]"
    if kind is str:
        return _quote(obj)
    if kind is int:
        return str(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _json(float(obj), pad)
    return json.dumps(obj)


def _write_out(chunks, out_path: str | None) -> None:
    """Write the strings `chunks` yields, in order, to `out_path` or stdout."""
    if out_path is None or out_path == "-":
        for text in chunks:
            sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            for text in chunks:
                fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


def solver_result_dict(ch: ChannelInstance, result: SolverResult) -> dict:
    return {
        "status": result.status.value,
        "gamma_star": list(result.gamma_star.gamma_floats),
        "sum_rate_bits": result.sum_rate,
        "lambda_star": result.lambda_star,
        "residual_rel": result.residual,
        "outer_iterations": result.outer_iterations,
        "active_set_changes": result.active_set_changes,
        "baseline_primary_rate_bits": baseline_primary_rate(ch),
        "achieved_primary_rate_bits": primary_rate(ch, result.gamma_star),
    }


def cmd_solve(args) -> int:
    started = time.monotonic()
    ch, name = load_scenario(args.scenario)
    result = solve_max_sum_rate(ch)
    report = {
        "scenario": scenario_echo(ch, name),
        **solver_result_dict(ch, result),
        "artifact_version": __version__,
    }
    _write_out([dump_json(report) + "\n"], args.out)
    print(f"duration_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return EXIT_OK if result.status is SolverStatus.CONVERGED else EXIT_NOT_CONVERGED


def cmd_region(args) -> int:
    import numpy as np

    ch, _name = load_scenario(args.scenario)
    boundary = region_boundary(ch, args.grid_step)
    rows = (
        "%.12g,%.12g\n" * r1.size % tuple(np.column_stack([r1, r2]).ravel().tolist())
        for r1, r2 in _row_chunks(boundary.r1, boundary.r2)
    )
    _write_out(chain(["r1_bits,r2_bits\n"], rows), args.out)
    print(
        f"vertices={boundary.r1.size} samples={boundary.samples_used} "
        f"max_sum_rate_bits={boundary.max_sum_rate():.12g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    import numpy as np

    ch, _name = load_scenario(args.scenario)
    traj = sweep_trajectory(ch, args.lambda_max, args.samples)
    gammas = [f"gamma_{i + 1}" for i in range(ch.num_users)]
    head = ",".join(["lambda", "x", *gammas, "phi", "saturated_users\n"])
    row = "%.12g," * (ch.num_users + 3) + "%s\n"

    def rows(lam, x, gamma, phi, saturated):
        columns = np.vstack([lam, x, gamma.T, phi]).tolist()
        flags = list(map(tuple, saturated.tolist()))
        labels = {f: "|".join(str(i + 1) for i, pinned in enumerate(f) if pinned) for f in set(flags)}
        cells = chain.from_iterable(zip(*columns, map(labels.__getitem__, flags)))
        return row * len(flags) % tuple(cells)

    chunks = _row_chunks(traj.lam, traj.x, traj.gamma, traj.phi, traj.saturated)
    _write_out(chain([head], starmap(rows, chunks)), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    ch, name = load_scenario(args.scenario)
    oracle = grid_search(ch, args.grid_step)  # first: rejects K > 3 before solving
    result = solve_max_sum_rate(ch)
    report = kkt_check(ch, result, tol=args.tol)
    gap = result.sum_rate - oracle.best_sum_rate
    agreement_ok = abs(gap) <= args.agreement_tol
    converged = result.status is SolverStatus.CONVERGED
    verdict = converged and agreement_ok and report.passed
    doc = {
        "scenario": scenario_echo(ch, name),
        "solver": solver_result_dict(ch, result),
        "oracle": {
            "best_gamma": list(oracle.best_gamma.gamma_floats),
            "best_sum_rate_bits": oracle.best_sum_rate,
            "grid_step": args.grid_step,
            "points_evaluated": oracle.points_evaluated,
        },
        "sum_rate_gap_bits": gap,
        "agreement_tol_bits": args.agreement_tol,
        "kkt": {
            "stationarity_scaled": {
                str(k + 1): v for k, v in sorted(report.stationarity.items())
            },
            "interior_users": [k + 1 for k in report.interior_users],
            "saturated_users": [k + 1 for k in report.saturated_users],
            "feasibility_rel": report.feasibility_rel,
            "stationarity_ok": report.stationarity_ok,
            "feasibility_ok": report.feasibility_ok,
            "passed": report.passed,
        },
        "verdict": "pass" if verdict else "fail",
        "artifact_version": __version__,
    }
    _write_out([dump_json(doc) + "\n"], args.out)
    return EXIT_OK if verdict else EXIT_NOT_CONVERGED


def _tolerance(text: str) -> float:
    """A validate tolerance: a finite nonnegative number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # reported below, with the flag's name
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {text!r}"
        )
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as `error: <msg>` and its usage, with exit 1:
    argparse's own exit 2 is the not-converged code here."""

    def error(self, message):
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n{self.format_usage()}")


@functools.cache  # built on first use, then reused: parsing never mutates it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cogmac",
        description="Cognitive multiple-access channel: sum-rate optimal power "
        "splitting and capacity region computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    add_common(sub.add_parser("solve", help="maximum sum-rate power split"))

    p_region = sub.add_parser("region", help="two-user capacity region boundary CSV")
    add_common(p_region)
    p_region.add_argument("--grid-step", type=float, default=1e-2)

    p_sweep = sub.add_parser("sweep", help="multiplier trajectory CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--lambda-max", type=float, default=None)
    p_sweep.add_argument("--samples", type=int, default=201)

    p_validate = sub.add_parser("validate", help="oracle + KKT verdict JSON")
    add_common(p_validate)
    p_validate.add_argument("--grid-step", type=float, default=1e-3)
    p_validate.add_argument("--tol", type=_tolerance, default=1e-6, help="KKT tolerance")
    p_validate.add_argument(
        "--agreement-tol", type=_tolerance, default=1e-3, help="sum-rate agreement, bits"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # looked up per call, not bound into the cached parser
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:  # bad input: scenario, flag value or problem size
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # a valid instance that the grid or the sweep cannot resolve in floats
    except (EmptyGridError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
