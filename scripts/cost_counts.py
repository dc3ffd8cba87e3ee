#!/usr/bin/env python3
"""Compare two checkouts on cost counts that do not depend on the machine.

Per `solve_max_sum_rate` call: the bytecodes executed, the numpy calls and
other C calls made, and the path evaluations.

For each K in 1, 2, 3, 10, 50, 100 and 200, each checkout solves every
instance of `instance_suite(0, 5, sizes=(K,))` once untraced, so that lazy
imports and the arrays an instance makes on first read are done, and then
once counted: `sys.settrace` with `f_trace_opcodes` counts the executed
bytecodes, and `sys.setprofile`'s `c_call` events the C calls, split into
numpy's (a function of a `numpy` module, or a method of a numpy object)
and the rest.  A `c_call` event marks a builtin function or method called
from Python; a ufunc, a type or an operator makes none.  Each checkout runs
in its own process, with its `src` first on PYTHONPATH.  The counts repeat
exactly, but depend on CPython's bytecode: compare them only within one
interpreter.  Never add the three counts: a numpy call weighs far more
than a bytecode.

Prints, per K, each checkout's means per solve and the change's, and the
Python and numpy versions.  With `--json PATH` it also adds a `counts`
section to the JSON list in PATH, which it creates if missing, as
`bench_pairs.py` adds a series.

Make both checkouts with `git archive`, as for `bench_pairs.py`.

Usage: python3 scripts/cost_counts.py PARENT CHANGE [--json PATH]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from bench_pairs import record

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 2, 3, 10, 50, 100, 200)
DRAWS = 5
COUNTS = ("bytecodes", "numpy_calls", "other_c_calls", "evaluations")


def _of_numpy(func) -> bool:
    """Whether a C function is numpy's: a function of a `numpy` module, or a
    method bound to a numpy object."""
    module = getattr(func, "__module__", None) or type(getattr(func, "__self__", None)).__module__
    return module.split(".")[0] == "numpy"


def counted(ch) -> dict:
    """The counts of one call `solve_max_sum_rate(ch)`: bytecodes executed
    in every Python frame it enters, numpy calls and other C calls, and the
    result's path evaluations."""
    from cogmac import solve_max_sum_rate

    counts = dict.fromkeys(COUNTS, 0)

    def opcodes(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            counts["bytecodes"] += 1
        return opcodes

    def c_calls(frame, event, arg):
        if event == "c_call" and arg is not sys.setprofile:
            counts["numpy_calls" if _of_numpy(arg) else "other_c_calls"] += 1

    sys.settrace(opcodes)
    sys.setprofile(c_calls)
    try:
        result = solve_max_sum_rate(ch)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    counts["evaluations"] = result.outer_iterations
    return counts


def solve_counts(k: int) -> dict:
    """Means per solve over `instance_suite(0, DRAWS, sizes=(k,))`, each
    instance solved once untraced first."""
    from cogmac import instance_suite, solve_max_sum_rate

    totals = dict.fromkeys(COUNTS, 0)
    for ch in instance_suite(0, DRAWS, sizes=(k,)):
        solve_max_sum_rate(ch)
        for name, value in counted(ch).items():
            totals[name] += value
    return {name: total / DRAWS for name, total in totals.items()}


def tree_counts() -> dict:
    """This process's counts per K, with its Python and numpy versions."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "solves": {str(k): solve_counts(k) for k in SIZES},
    }


def run(checkout: Path) -> dict:
    """A checkout's `tree_counts()`, from a process that imports its `src`."""
    path = os.pathsep.join([str(checkout / "src"), str(ROOT / "scripts")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import json, cost_counts; print(json.dumps(cost_counts.tree_counts()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summarize(parent: dict, change: dict) -> list[str]:
    """The report's lines: per K and count, each side's mean per solve and
    the change."""
    lines = [
        f"python {parent['python']}, numpy {parent['numpy']}; means per solve over {DRAWS} draws",
        f"{'K':>4} {'count':<14} {'parent':>10} {'change':>10} {'diff':>9}",
    ]
    for k, before in parent["solves"].items():
        after = change["solves"][k]
        for name in COUNTS:
            diff = after[name] - before[name]
            lines.append(f"{k:>4} {name:<14} {before[name]:>10.1f} {after[name]:>10.1f} {diff:>+9.1f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--json", type=Path, help="add the counts to the JSON list in this file")
    args = parser.parse_args(argv)
    parent, change = run(args.parent), run(args.change)
    print("\n".join(summarize(parent, change)))
    if args.json is not None:
        record(args.json, {"counts": {"draws": DRAWS, "parent": parent, "change": change}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
