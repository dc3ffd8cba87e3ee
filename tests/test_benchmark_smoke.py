"""A short end-to-end run of the benchmark on each of its workloads.

`region-validate` drives the CLI; `solve-uniform` runs the paper's K = 1..3
solves, `solve-large-k` K = 10..200 solves and `solve-wide` solves of gains,
powers and noise many decades apart, each through the benchmark's
`check_solve`: KKT, the primary rate and a search of projected splits, all
computed apart from cogmac's solver and its kernels.  Each run must
complete, every output must pass those checks, and each metric printed must
be one BENCHMARK.json names as end to end.  No timing is checked.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload", ["region-validate", "solve-uniform", "solve-large-k", "solve-wide"]
)
def test_workload_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--ops", "12"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == 12
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = {metric["name"] for metric in spec["end_to_end"]}
    assert summary["metrics"]
    assert set(summary["metrics"]) <= named
