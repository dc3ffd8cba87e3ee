#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

Runs `python3 benchmarks/run.py --workload W --seed S --seconds T` in each
checkout, T being `BENCHMARK.json`'s `run_seconds`, for N pairs: pair i runs
the parent first when i is even and the change first when it is odd.  Each
run's last line of output is its JSON summary.  Prints, for each end-to-end
metric of `BENCHMARK.json`, each side's median and quartiles, the change in
the medians, the pairs the change won (ties count for neither side) and
whether that is a gain: won in at least nine of ten pairs, with medians
further apart than the parent's quartiles.

Run both checkouts from sibling directories on the same disk: the
`region-validate` times move with the directory a tree runs from.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--seed 1] [--pairs 10]
"""

import argparse
import json
import statistics
import subprocess
import sys
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


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The report's lines for (parent, change) run summaries, one pair each,
    and `BENCHMARK.json`'s end-to-end metrics."""
    parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
    lines = [
        f"{len(pairs)} pairs; correct: parent {sum(r['correct'] for r in parents)}, "
        f"change {sum(r['correct'] for r in changes)}; failed operations: parent "
        f"{sum(r['failed'] for r in parents)} of {sum(r['attempted'] for r in parents)}, "
        f"change {sum(r['failed'] for r in changes)} of {sum(r['attempted'] for r in changes)}",
        f"{'metric':<12} {'parent median (q1-q3)':>30} {'change median (q1-q3)':>30} "
        f"{'change':>8} {'won':>6}  gain",
    ]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [p["metrics"][name]["value"] for p in parents]
        after = [c["metrics"][name]["value"] for c in changes]
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        (q1, median, q3), (r1, new, r3) = quartiles(before), quartiles(after)
        better = median - new if lower else new - median
        gain = won >= 0.9 * len(pairs) and better > q3 - q1
        shift = f"{(new - median) / median:+.1%}" if median else "n/a"
        lines.append(
            f"{name:<12} {f'{median:.4g} ({q1:.4g}-{q3:.4g})':>30} "
            f"{f'{new:.4g} ({r1:.4g}-{r3:.4g})':>30} {shift:>8} "
            f"{f'{won}/{len(pairs)}':>6}  {'yes' if gain else 'no'}"
        )
    return lines


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
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    for i in range(args.pairs):
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        first, second = (run(tree, args.workload, args.seed, spec["run_seconds"]) for tree in order)
        pairs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"pair {i + 1} of {args.pairs} done", file=sys.stderr)
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
