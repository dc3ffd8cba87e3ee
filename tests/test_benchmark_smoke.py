"""A short end-to-end run of the benchmark on the CLI workload.

It checks that the run completes, that every output passes the benchmark's
own checks, and that each metric it prints is one BENCHMARK.json names as
end to end.  No timing is checked.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_region_validate_smoke():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "region-validate",
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
