"""Command-line front end: scenario ingestion and deterministic JSON/CSV output.

Commands: solve, region, sweep, validate.  Floats are always emitted with 12
significant digits and '\n' line endings so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .channel import ChannelInstance, baseline_primary_rate, primary_rate
from .oracle import grid_search, kkt_check
from .region import EmptyGridError, region_boundary
from .solver import (
    SolverConfig,
    SolverResult,
    SolverStatus,
    solve_max_sum_rate,
    sweep_trajectory,
)

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


_fields = functools.cache(dataclasses.fields)  # a dataclass's fields never change


def _arguments(cls, doc: dict) -> dict:
    """The JSON object `doc` as keyword arguments of the dataclass `cls`,
    whose constructor checks every value and names the field at fault.
    Checked here is what only JSON holds: a missing field."""
    for field in _fields(cls):
        if field.name not in doc and field.default is dataclasses.MISSING:
            raise ScenarioError(f"missing field {field.name!r}")
    return doc


def load_scenario(path: str) -> tuple[ChannelInstance, SolverConfig, str | None]:
    """Parse a scenario JSON file into (instance, solver config, name)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    name, solver_doc = doc.pop("name", None), doc.pop("solver", {})
    unknown = sorted(set(doc) - {f.name for f in _fields(ChannelInstance)})
    if unknown:
        raise ScenarioError(f"unknown field {unknown[0]!r}")
    ch = ChannelInstance(**_arguments(ChannelInstance, doc))

    if not isinstance(solver_doc, dict):
        raise ScenarioError("solver must be an object")
    unknown = sorted(set(solver_doc) - {f.name for f in _fields(SolverConfig)})
    if unknown:
        raise ScenarioError(f"unknown field solver.{unknown[0]}")
    try:
        cfg = SolverConfig(**_arguments(SolverConfig, solver_doc))
    except ValueError as exc:
        raise ScenarioError(f"solver.{exc}") from exc

    if name is not None and not isinstance(name, str):
        raise ScenarioError("name must be a string")
    return ch, cfg, name


def scenario_echo(ch: ChannelInstance, name: str | None) -> dict:
    echo = {f.name: np.asarray(getattr(ch, f.name)).tolist() for f in _fields(ChannelInstance)}
    if name is not None:
        echo["name"] = name
    return echo


def format_float(x: float) -> str:
    return format(float(x), ".12g")


def dump_json(obj, indent: int = 0) -> str:
    """JSON emitter with fixed 12-significant-digit float formatting."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dump_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    return json.dumps(obj)


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file: {exc}") from exc


def solver_result_dict(ch: ChannelInstance, result: SolverResult) -> dict:
    return {
        "status": result.status.value,
        "gamma_star": list(result.gamma_star.gamma),
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
    ch, cfg, name = load_scenario(args.scenario)
    result = solve_max_sum_rate(ch, cfg)
    report = {
        "scenario": scenario_echo(ch, name),
        **solver_result_dict(ch, result),
        "artifact_version": __version__,
    }
    _write_out(dump_json(report) + "\n", args.out)
    print(f"duration_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return EXIT_OK if result.status is SolverStatus.CONVERGED else EXIT_NOT_CONVERGED


def cmd_region(args) -> int:
    ch, _cfg, _name = load_scenario(args.scenario)
    boundary = region_boundary(ch, args.grid_step)
    lines = ["r1_bits,r2_bits", *map("%.12g,%.12g".__mod__, boundary.points)]
    _write_out("\n".join(lines) + "\n", args.out)
    print(
        f"vertices={len(boundary.points)} samples={boundary.samples_used} "
        f"max_sum_rate_bits={format_float(boundary.max_sum_rate())}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    ch, cfg, _name = load_scenario(args.scenario)
    traj = sweep_trajectory(ch, args.lambda_max, args.samples, cfg)
    gammas = [f"gamma_{i + 1}" for i in range(ch.num_users)]
    lines = [",".join(["lambda", "x", *gammas, "phi", "saturated_users"])]
    numbers = np.column_stack([traj.lam, traj.x, traj.gamma, traj.phi]).tolist()
    row = ",".join(["%.12g"] * (ch.num_users + 3)) + ",%s"  # format_float's format
    flags = list(map(tuple, traj.saturated.tolist()))
    labels = {f: "|".join(str(i + 1) for i, pinned in enumerate(f) if pinned) for f in set(flags)}
    lines.extend(row % (*values, labels[f]) for values, f in zip(numbers, flags))
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    ch, cfg, name = load_scenario(args.scenario)
    oracle = grid_search(ch, args.grid_step)  # first: rejects K > 3 before solving
    result = solve_max_sum_rate(ch, cfg)
    report = kkt_check(ch, result, tol=args.tol)
    gap = result.sum_rate - oracle.best_sum_rate
    agreement_ok = abs(gap) <= args.agreement_tol
    converged = result.status is SolverStatus.CONVERGED
    verdict = converged and agreement_ok and report.passed
    doc = {
        "scenario": scenario_echo(ch, name),
        "solver": solver_result_dict(ch, result),
        "oracle": {
            "best_gamma": list(oracle.best_gamma.gamma),
            "best_sum_rate_bits": oracle.best_sum_rate,
            "grid_step": oracle.grid_step,
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
            "bounds_ok": report.bounds_ok,
            "stationarity_ok": report.stationarity_ok,
            "feasibility_ok": report.feasibility_ok,
            "passed": report.passed,
        },
        "verdict": "pass" if verdict else "fail",
        "artifact_version": __version__,
    }
    _write_out(dump_json(doc) + "\n", args.out)
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
    except EmptyGridError as exc:  # a valid instance the grid cannot resolve
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
