"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Randomized criteria share a 50-instance suite (seed 20260824, user counts
cycling 1,2,3) from the documented generator in cogmac.oracle.
"""

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogmac import (
    ChannelInstance,
    PowerSplit,
    SolverStatus,
    baseline_primary_rate,
    feasibility_residual,
    grid_search,
    instance_suite,
    kkt_check,
    primary_rate,
    random_instance,
    region_boundary,
    single_user_closed_form,
    solve_max_sum_rate,
    sum_rate,
    sweep_trajectory,
)
from conftest import SUITE_SEED, hull_contains, pentagon_vertices

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_suite_cache = None
_results_cache = None


def suite():
    global _suite_cache
    if _suite_cache is None:
        _suite_cache = instance_suite(SUITE_SEED, 50)
    return _suite_cache


def solved():
    global _results_cache
    if _results_cache is None:
        _results_cache = [solve_max_sum_rate(ch) for ch in suite()]
    return _results_cache


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_primary_rate_preservation():
    worst = 0.0
    for ch, result in zip(suite(), solved()):
        if result.status is not SolverStatus.CONVERGED:
            continue
        gap = abs(primary_rate(ch, result.gamma_star) - baseline_primary_rate(ch))
        worst = max(worst, gap)
    converged = sum(r.status is SolverStatus.CONVERGED for r in solved())
    report(
        "criterion 1: primary-rate preservation",
        converged == 50 and worst <= 1e-6,
        f"(converged {converged}/50, worst gap {worst:.3e} bits)",
    )


def test_criterion_2_solver_oracle_agreement():
    worst_abs = 0.0
    worst_neg = 0.0
    for ch, result in zip(suite(), solved()):
        oracle = grid_search(ch, 1e-3)
        gap = result.sum_rate - oracle.best_sum_rate
        worst_abs = max(worst_abs, abs(gap))
        worst_neg = min(worst_neg, gap)
    report(
        "criterion 2: solver-oracle agreement",
        worst_abs <= 1e-3 and worst_neg >= -1e-3,
        f"(worst |gap| {worst_abs:.3e} bits, most negative {worst_neg:.3e})",
    )


def test_criterion_3_single_user_closed_form(unit_k1):
    rng = np.random.default_rng(SUITE_SEED + 1)
    worst = 0.0
    for _ in range(20):
        ch = random_instance(rng, 1)
        result = solve_max_sum_rate(ch)
        worst = max(
            worst, abs(result.gamma_star.gamma[0] - single_user_closed_form(ch))
        )
    unit_result = solve_max_sum_rate(unit_k1)
    unit_gap = abs(unit_result.gamma_star.gamma[0] - (math.sqrt(3.0) - 1.0) / 2.0)
    report(
        "criterion 3: single-user closed form",
        worst <= 1e-6 and unit_gap <= 1e-6,
        f"(worst |dgamma| {worst:.3e}, unit instance {unit_gap:.3e})",
    )


def test_criterion_4_kkt_stationarity():
    failures = [
        i
        for i, (ch, result) in enumerate(zip(suite(), solved()))
        if result.status is SolverStatus.CONVERGED
        and not kkt_check(ch, result, tol=1e-6).passed
    ]
    report(
        "criterion 4: KKT stationarity",
        not failures,
        f"(failing instances: {failures or 'none'})",
    )


def test_criterion_5_sweep_monotonicity():
    worst = 0.0
    for ch, result in zip(suite(), solved()):
        lam_max = 1.25 * result.lambda_star if result.lambda_star > 0 else 1.0
        traj = sweep_trajectory(ch, lam_max, 101)
        same = np.all(traj.saturated[1:] == traj.saturated[:-1], axis=1)
        worst = max(worst, float(np.max(traj.x[:-1][same] - traj.x[1:][same], initial=0.0)))
        drop = traj.gamma[:-1][same] - traj.gamma[1:][same]
        worst = max(worst, float(np.max(drop, initial=0.0)))
    report(
        "criterion 5: sweep monotonicity",
        worst <= 1e-12,
        f"(worst decrease {worst:.3e})",
    )


def test_criterion_6_region_consistency():
    from cogmac.region import feasible_grid

    rng = np.random.default_rng(SUITE_SEED + 2)
    worst = 0.0
    ok = True
    for _ in range(10):
        ch = random_instance(rng, 2)
        result = solve_max_sum_rate(ch)
        boundary = region_boundary(ch, 1e-3)
        worst = max(worst, abs(boundary.max_sum_rate() - result.sum_rate))
        pts = boundary.points
        for i in range(len(pts)):
            o, a, b = pts[i], pts[(i + 1) % len(pts)], pts[(i + 2) % len(pts)]
            if (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) < -1e-12:
                ok = False
        for pentagon in pentagon_vertices(ch, feasible_grid(ch, 0.05)):
            for vert in pentagon:
                if not hull_contains(pts, vert, tol=1e-12):
                    ok = False
    report(
        "criterion 6: region consistency",
        ok and worst <= 5e-3,
        f"(worst sum-rate gap {worst:.3e} bits)",
    )


def test_criterion_7_degenerate_cases(k2_no_interference, k2_reference):
    result = solve_max_sum_rate(k2_no_interference)
    ch = k2_no_interference
    exact_rate = 0.5 * math.log2(1.0 + float(np.sum(ch.h**2 * ch.p)) / ch.sigma_c2)
    ok = (
        np.all(result.gamma_star.gamma == 0.0)
        and result.sum_rate == exact_rate
        and sum_rate(k2_reference, PowerSplit.ones(2)) == 0.0
    )
    phi0 = feasibility_residual(k2_reference, PowerSplit.zeros(2))
    expected = -(k2_reference.h_p**2) * k2_reference.p_p * float(
        np.sum(k2_reference.g**2 * k2_reference.p)
    )
    ok = ok and abs(phi0 - expected) <= 1e-12 * abs(expected)
    report("criterion 7: degenerate cases", ok)


def test_criterion_8_cli_determinism():
    commands = [
        ("solve", "--scenario", str(SCENARIOS / "k1_unit.json")),
        ("solve", "--scenario", str(SCENARIOS / "k2_reference.json")),
        ("solve", "--scenario", str(SCENARIOS / "k2_no_interference.json")),
        ("region", "--scenario", str(SCENARIOS / "k2_reference.json"),
         "--grid-step", "0.05"),
        ("sweep", "--scenario", str(SCENARIOS / "k2_reference.json"),
         "--samples", "51"),
        ("validate", "--scenario", str(SCENARIOS / "k1_unit.json"),
         "--grid-step", "0.01"),
    ]
    ok = True
    for args in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "cogmac", *args],
                capture_output=True,
            )
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            ok = False
    report("criterion 8: CLI determinism", ok)
