"""One benchmark process: set up, run one workload's operation list, check it.

Started by run.py with one BLAS thread and with ``src`` on PYTHONPATH.
Untraced, it interleaves the operations with yardstick solves and reports
every time at the host's nominal speed (``yardstick/__init__.py``).
Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_YARD_SOLVES = 3  # yardstick solves after each set-up, to scale it


def _call(fn):
    return fn()


def _setup(args):
    """Import numpy and cogmac and build the inputs, each phase timed."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import cogmac

    t2 = time.perf_counter()
    if Path(cogmac.__file__).resolve().parent != ROOT / "src" / "cogmac":
        raise SystemExit(f"cogmac imported from {cogmac.__file__}, not from {ROOT / 'src'}")
    import workloads

    ops = workloads.build_ops(args.workload, args.seed, args.seconds, ROOT, OUT)
    if args.ops is not None:
        ops = ops[: args.ops]
    t3 = time.perf_counter()
    setup = {"import_numpy_ms": (t1 - t0) * 1e3, "import_cogmac_ms": (t2 - t1) * 1e3, "inputs_ms": (t3 - t2) * 1e3}
    return ops, setup


_ERROR = object()


def _run_pass(ops, call, yard=None, every=1):
    """Run every operation once, in order, with one ``yard()`` call after
    every `every` operations and after the last; return per-op wall times,
    outputs and what each ``yard()`` call returned."""
    times, outputs, yard_times = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        t = clock()
        try:
            out = call(op.run)
        except Exception:  # a raising operation counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            out = _ERROR
        times.append(clock() - t)
        outputs.append(out)
        if yard is not None and ((i + 1) % every == 0 or i + 1 == len(ops)):
            yard_times.append(yard())
    return times, outputs, yard_times


def _local_speeds(yard_times, every, n, nominal_s):
    """The host's speed factor around each operation: the mean of the two
    yardstick solves before its group of `every` operations and the two
    after, over the nominal time.  ``yard_times[g]`` precedes group g."""
    speeds = []
    for i in range(n):
        g = i // every
        window = yard_times[max(0, g - 1) : g + 3]
        speeds.append(sum(window) / len(window) / nominal_s)
    return speeds


def _check(ops, outputs, seed):
    """Count failed operations and those whose output fails a check."""
    import numpy as np

    failed = wrong = 0
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is _ERROR or op.failed(out):
            failed += 1
            continue
        try:
            problems = op.check(out, np.random.default_rng([seed, i]))
        except Exception as exc:  # a check that cannot read the output fails it
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            wrong += 1
            print(f"op {i} ({op!r:.120}): {'; '.join(problems)}", file=sys.stderr)
    return failed + wrong, wrong == 0


def _timing_metrics(times, failed):
    n = len(times)
    ordered = sorted(times)
    metrics = {
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "ops_per_s": ((n - failed) / sum(times), "1/s"),
    }
    if n >= 40:  # the 11th slowest: ten operations lie beyond it
        metrics["op_tail_ms"] = (ordered[n - 11] * 1e3, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops, setup = _setup(args)
    import yardstick

    yardstick.solve_time()  # warm-up
    if args.setup_only:
        speed = statistics.mean(yardstick.solve_time() for _ in range(SETUP_YARD_SOLVES)) / yardstick.NOMINAL_S
        print(json.dumps({"setup": setup, "speed": speed}))
        return 0

    if args.trace:
        from tracer import Tracer

        untraced = sum(_run_pass(ops, _call)[0])
        tracer = Tracer()
        tracer.install()
        try:
            times, outputs = _run_pass(ops, tracer.op)[:2]
        finally:
            tracer.uninstall()
        # untraced passes on both sides of the traced one, against host drift
        untraced = (untraced + sum(_run_pass(ops, _call)[0])) / 2.0
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz")
        metrics = tracer.layer_metrics()
        # the share of untraced throughput that tracing costs
        metrics["trace.overhead_frac"] = (1.0 - untraced / sum(times), "ratio")
        failed, correct = _check(ops, outputs, args.seed)
    else:
        import workloads

        every = workloads.YARDSTICK_EVERY[args.workload]
        first = yardstick.solve_time()
        times, outputs, yard_times = _run_pass(ops, _call, yardstick.solve_time, every)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speeds = _local_speeds([first, *yard_times], every, len(ops), yardstick.NOMINAL_S)
        failed, correct = _check(ops, outputs, args.seed)
        metrics = _timing_metrics([t / s for t, s in zip(times, speeds)], failed)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        raw = _timing_metrics(times, failed)
        print("unscaled: " + ", ".join(f"{k} {v:.4g}" for k, (v, _) in raw.items()), file=sys.stderr)
        print(f"speed factor: median {statistics.median(speeds):.4f}, range {min(speeds):.4f}..{max(speeds):.4f}", file=sys.stderr)
    print(
        json.dumps(
            {
                "attempted": len(ops),
                "failed": failed,
                "correct": correct,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
