#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

Runs `python3 benchmarks/run.py --workload W --seed S --seconds T` in each
checkout, T being `BENCHMARK.json`'s `run_seconds`, for N pairs: pair i runs
the parent first when i is even and the change first when it is odd.  Each
run's last line of output is its JSON summary.  Prints, for each end-to-end
metric of `BENCHMARK.json`, each side's median and quartiles, the change in
the medians, the pairs the change won (ties count for neither side) and
whether that is a gain: won in at least nine of ten pairs, with medians
further apart than the parent's quartiles.  With `--json PATH` it also adds
the series to the JSON list in PATH, which it creates if missing: the
workload, seed and pairs, the processors available, the Python and numpy
versions, and per metric the same figures.

Run both checkouts from sibling directories on the same disk: the
`region-validate` times move with the directory a tree runs from.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--seed 1] [--pairs 10] [--json PATH]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """A run's summary: the JSON object on its last nonblank line."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """The series of (parent, change) run summaries, one pair each, on
    `BENCHMARK.json`'s end-to-end metrics: each side's correct runs and
    failed operations, and per metric each side's quartiles, the pairs the
    change won and whether that is a gain."""
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    series = {
        "pairs": len(pairs),
        "correct": {side: sum(r["correct"] for r in runs) for side, runs in sides.items()},
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
        "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
        "metrics": {},
    }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before, after = ([r["metrics"][name]["value"] for r in sides[side]] for side in sides)
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        (q1, median, q3), (r1, new, r3) = quartiles(before), quartiles(after)
        better = median - new if lower else new - median
        series["metrics"][name] = {
            "better": metric["better"],
            "parent": {"median": median, "q1": q1, "q3": q3},
            "change": {"median": new, "q1": r1, "q3": r3},
            "won": won,
            "gain": won >= 0.9 * len(pairs) and better > q3 - q1,
        }
    return series


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The report's lines for (parent, change) run summaries, one pair each,
    and `BENCHMARK.json`'s end-to-end metrics."""
    series = compare(pairs, metrics)
    correct, failed, attempted = series["correct"], series["failed"], series["attempted"]
    lines = [
        f"{len(pairs)} pairs; correct: parent {correct['parent']}, change {correct['change']}; "
        f"failed operations: parent {failed['parent']} of {attempted['parent']}, "
        f"change {failed['change']} of {attempted['change']}",
        f"{'metric':<12} {'parent median (q1-q3)':>30} {'change median (q1-q3)':>30} "
        f"{'change':>8} {'won':>6}  gain",
    ]
    for name, figures in series["metrics"].items():
        before, after = (
            "{median:.4g} ({q1:.4g}-{q3:.4g})".format(**figures[side]) for side in ("parent", "change")
        )
        median, new = figures["parent"]["median"], figures["change"]["median"]
        shift = f"{(new - median) / median:+.1%}" if median else "n/a"
        won = f"{figures['won']}/{len(pairs)}"
        gain = "yes" if figures["gain"] else "no"
        lines.append(f"{name:<12} {before:>30} {after:>30} {shift:>8} {won:>6}  {gain}")
    return lines


def record(path: Path, series: dict) -> None:
    """Add the series to the JSON list in path, with the host it ran on."""
    series = {
        **series,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
    }
    runs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    path.write_text(json.dumps([*runs, series], indent=2) + "\n", encoding="utf-8")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "benchmarks/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="add the series to the JSON list in this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    for i in range(args.pairs):
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        first, second = (run(tree, args.workload, args.seed, spec["run_seconds"]) for tree in order)
        pairs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"pair {i + 1} of {args.pairs} done", file=sys.stderr)
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    if args.json is not None:
        series = {"workload": args.workload, "seed": args.seed, **compare(pairs, spec["end_to_end"])}
        record(args.json, series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
