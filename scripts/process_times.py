#!/usr/bin/env python3
"""Wall time of whole processes: the interpreter, numpy's import and each
`cogmac` subcommand on the bundled scenarios.

Runs N interleaved rounds.  Each round starts every command once, for each
source tree given, in an order that rotates from round to round, so that a
slow spell of the host falls on every command alike.  The commands are
`python -c pass`, `python -c "import numpy"`, and `cogmac solve`, `sweep`
and `validate` on each scenario in scenarios/, and `cogmac region` on its
two-user ones, each with the tree's `src` on PYTHONPATH and its output
discarded.  Each command runs with PYTHONDONTWRITEBYTECODE=1, so a tree
without `__pycache__` compiles `cogmac` at every start.  Each `cogmac`
command also runs as `<name>+pyc`, with a bytecode cache: PYTHONPYCACHEPREFIX
set to a temporary directory per tree, filled by one untimed run of the
command before the first round and removed at the end.  Prints one JSON
object: the rounds, the Python version, the processors available, and per
tree and command the median and quartiles of the wall times in
milliseconds.  A command that exits with an error stops the script.

Usage: python3 scripts/process_times.py [--rounds 15] [--src SRC ...] [--only NAME ...]

  --src SRC    a tree's source directory, once per tree (default: this
               repository's src)
  --only NAME  run only the commands of this name, e.g. `pass`,
               `import-numpy` or `solve-k2_reference` (with its `+pyc`)
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import quartiles

ROOT = Path(__file__).resolve().parent.parent


def commands() -> dict[str, list[str]]:
    """Each command's name and arguments to `python`."""
    found = {"pass": ["-c", "pass"], "import-numpy": ["-c", "import numpy"]}
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        users = len(json.loads(scenario.read_text(encoding="utf-8"))["h"])
        for command in ("solve", "sweep", "validate", "region"):
            if command != "region" or users == 2:
                args = ["-m", "cogmac", command, "--scenario", str(scenario)]
                found[f"{command}-{scenario.stem}"] = args
    return found


def variants(name: str, command: list[str], cache: Path):
    """(name, command, bytecode cache) for the command as given, with no
    cache, and for a `cogmac` command also with `cache`."""
    yield name, command, None
    if command[:2] == ["-m", "cogmac"]:
        yield f"{name}+pyc", command, cache


def wall_time(args: list[str], src: Path, cache: Path | None = None) -> float:
    """Seconds from starting `python args` with src on PYTHONPATH to its
    exit, writing no bytecode, or with cache as its bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if cache is not None:
        del env["PYTHONDONTWRITEBYTECODE"]
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True)
    elapsed = time.perf_counter() - begin
    if proc.returncode != 0:
        command = " ".join(args)
        raise SystemExit(f"python {command} exited {proc.returncode}: {proc.stderr.decode()}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--only", action="append")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [path.resolve() for path in args.src or [ROOT / "src"]]
    with tempfile.TemporaryDirectory() as scratch:
        caches = {tree: Path(scratch, str(i)) for i, tree in enumerate(trees)}
        runs = [
            (tree, *variant)
            for tree in trees
            for name, command in commands().items()
            if args.only is None or name in args.only
            for variant in variants(name, command, caches[tree])
        ]
        if not runs:
            parser.error(f"no command named {args.only}")
        for tree, _, command, cache in runs:
            if cache is not None:
                wall_time(command, tree, cache)  # fills the cache, untimed
        times = {(tree, name): [] for tree, name, _, _ in runs}
        for i in range(args.rounds):
            shift = i % len(runs)
            for tree, name, command, cache in runs[shift:] + runs[:shift]:
                times[tree, name].append(wall_time(command, tree, cache) * 1e3)
            print(f"round {i + 1} of {args.rounds} done", file=sys.stderr)
    report = {
        "rounds": args.rounds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "trees": {str(tree): {} for tree in trees},
    }
    for (tree, name), values in times.items():
        q1, median, q3 = quartiles(values)
        report["trees"][str(tree)][name] = {"median_ms": median, "q1_ms": q1, "q3_ms": q3}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
