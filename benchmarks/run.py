"""Benchmark of cogmac: one workload per call, end to end or traced per layer.

    python3 benchmarks/run.py --workload solve-uniform --seed 1 --seconds 10 --trace 0

Starts nine fresh processes, one after another, that only set up, to time
set-up, then one single-threaded worker process that runs the workload's
fixed operation list and checks every output.  Times are reported at the
host's nominal speed, measured by interleaved yardstick solves.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-uniform", "solve-large-k", "solve-wide", "region-validate")  # as workloads.py, without importing numpy
SETUP_PROBES = 9  # set-up-only processes, one after another
DEADLINE_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker(argv: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="keep only the first N operations (self-test)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "cogmac" / "__init__.py").is_file():
        print(f"error: no cogmac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREAD})
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.ops is not None:
        common += ["--ops", str(args.ops)]

    try:
        probes = [_worker(common + ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
        result = _worker(common + ["--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        for phase in ("import_numpy_ms", "import_cogmac_ms", "inputs_ms"):
            value = statistics.median(p["setup"][phase] for p in probes)
            metrics[f"setup.{phase}"] = {"value": value, "unit": "ms"}
    else:
        totals = [sum(p["setup"].values()) / 1e3 for p in probes]
        setup_s = statistics.median(t / p["speed"] for t, p in zip(totals, probes))
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"unscaled setup_s {statistics.median(totals):.4g}", file=sys.stderr)
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps({**summary, "metrics": dict(sorted(metrics.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
