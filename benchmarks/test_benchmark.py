"""Self-test of the benchmark: its checks catch wrong outputs, and each
workload prints the metrics BENCHMARK.json names.  No timing is checked.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from cogmac import PowerSplit, instance_suite, region_boundary, solve_max_sum_rate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_solve_check_flags_perturbed_gamma(k):
    ch = instance_suite(3, 1, sizes=(k,))[0]
    result = solve_max_sum_rate(ch)
    assert checks.check_solve(ch, result, _rng()) == []
    gamma = result.gamma_star.gamma.copy()
    gamma[0] = gamma[0] - 1e-3 if gamma[0] > 0.5 else gamma[0] + 1e-3
    wrong = dataclasses.replace(result, gamma_star=PowerSplit(gamma))
    assert checks.check_solve(ch, wrong, _rng())


def test_solve_check_flags_low_sum_rate_against_oracle():
    ch = instance_suite(5, 1, sizes=(2,))[0]
    result = solve_max_sum_rate(ch)
    low = dataclasses.replace(result, sum_rate=result.sum_rate - 0.01)
    assert any("grid oracle" in p for p in checks.check_solve(ch, low, _rng()))


def test_hull_check_flags_shifted_hull():
    ch = instance_suite(4, 1, sizes=(2,))[0]
    best = solve_max_sum_rate(ch).sum_rate
    hull = region_boundary(ch, 1e-2).points
    assert checks.check_hull(hull, best) == []
    shifted = [(r1 + 0.01, r2 + 0.01) for r1, r2 in hull]
    problems = checks.check_hull(shifted, best)
    assert any("(0, 0)" in p for p in problems)
    assert any("above solver" in p for p in problems)
    assert checks.check_hull(list(reversed(hull)), best)


def _run(workload: str, ops: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--ops", str(ops)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_named_metrics(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    short = {m["name"]: m["unit"] for m in SPEC["end_to_end"] if m["name"] != "op_tail_ms"}
    result = _run(workload, 6, 0)
    assert result["correct"] is True and result["attempted"] == 6
    assert {name: m["unit"] for name, m in result["metrics"].items()} == short
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    traced = _run(workload, 6, 1)
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == per_layer


def test_tail_reported_from_forty_operations():
    result = _run("solve-uniform", 40, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
