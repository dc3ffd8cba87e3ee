"""Independent validation: brute-force grid search, KKT checks, closed forms.

The grid search never reuses the sweep solver's machinery: it searches the
same projected grid as the region (`region.feasible_grid`), where each
candidate is projected onto the equality constraint through the
per-coordinate quadratic, so every evaluated point is feasible.  It reads
that grid block by block from the one kernel that builds it
(`region._blocks`) and keeps only a count and the best row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    SATURATED_GAMMA,
    ChannelInstance,
    PowerSplit,
    _mac_power,
    _relayed,
    relative_residual,
    sum_rate,
)
from .region import UnsupportedSizeError, _blocks
from .solver import SolverResult


@dataclass(frozen=True)
class OracleResult:
    best_gamma: PowerSplit
    best_sum_rate: float
    grid_step: float
    points_evaluated: int


@dataclass(frozen=True)
class KktReport:
    """Stationarity / feasibility / bound diagnostics for a solver output."""

    stationarity: dict[int, float]  # scaled derivative residual per user
    interior_users: tuple[int, ...]
    saturated_users: tuple[int, ...]
    feasibility_rel: float
    bounds_ok: bool
    stationarity_ok: bool
    feasibility_ok: bool
    passed: bool


def grid_search(ch: ChannelInstance, grid_step: float) -> OracleResult:
    """Exhaustive feasible search for the maximum sum rate.

    For each coordinate with g_k > 0 the other K-1 coordinates run over the
    grid and that coordinate is solved from the equality constraint
    (`feasible_grid`).  Each block is reduced where it is built, to its
    count and best row, with each SNR summed in index order as `sum_rate`
    sums it.  Ties break toward the earliest block and row.
    """
    count, best, best_snr = 0, None, -math.inf
    for axes, keep in _blocks(ch, grid_step):
        power = sum(map(_mac_power, ch.h2.tolist(), ch.p.tolist(), axes))
        snr = np.divide(power, ch.sigma_c2, out=np.full(keep.shape, -math.inf), where=keep)
        row = int(snr.argmax())
        count += int(np.count_nonzero(keep))
        if snr.flat[row] > best_snr:
            best_snr, best = snr.flat[row], [np.broadcast_to(a, keep.shape).flat[row] for a in axes]
    best = PowerSplit(best)
    return OracleResult(
        best_gamma=best,
        best_sum_rate=sum_rate(ch, best),
        grid_step=grid_step,
        points_evaluated=count,
    )


@np.errstate(over="ignore", invalid="ignore")
def kkt_check(
    ch: ChannelInstance, result: SolverResult, tol: float = 1e-6
) -> KktReport:
    """Check the stationarity system, feasibility, and box bounds at a solution.

    Interior users (gamma_k < 1, g_k > 0) must have a vanishing scaled
    derivative; saturated users a derivative pushing toward the bound;
    users with g_k = 0 must sit at 0.  Overflow and inf / inf pass silently,
    as in Python floats, and a stationarity entry that is not finite fails.
    """
    gamma = result.gamma_star.gamma
    lam = result.lambda_star
    x = ch.primary_amplitude + sum(map(_relayed, ch.a.tolist(), gamma.tolist()))
    inside = gamma < SATURATED_GAMMA
    own = 2.0 * ch.h**2 * ch.p
    term_obj = -own * gamma
    term_x = 2.0 * lam * ch.sigma_p2 * x * ch.g * np.sqrt(ch.p)
    term_quad = 2.0 * lam * ch.s_p * ch.g**2 * ch.p * gamma
    scale = np.maximum.reduce([np.abs(term_obj), np.abs(term_x), np.abs(term_quad), own])
    scaled = (term_obj + term_x + term_quad) / np.where(scale == 0.0, 1.0, scale)
    ok = np.where(
        ch.g > 0, np.where(inside, np.abs(scaled) <= tol, scaled >= -tol), np.abs(gamma) <= tol
    )
    stationarity_ok = bool(np.all(ok & np.isfinite(scaled)))

    feas_rel = relative_residual(ch, result.gamma_star)
    feasibility_ok = feas_rel <= tol
    bounds_ok = bool(np.all(gamma >= 0.0) and np.all(gamma <= 1.0))
    return KktReport(
        stationarity=dict(enumerate(scaled.tolist())),
        interior_users=tuple(np.flatnonzero(inside).tolist()),
        saturated_users=tuple(np.flatnonzero(~inside).tolist()),
        feasibility_rel=feas_rel,
        bounds_ok=bounds_ok,
        stationarity_ok=stationarity_ok,
        feasibility_ok=feasibility_ok,
        passed=stationarity_ok and feasibility_ok and bounds_ok,
    )


def single_user_closed_form(ch: ChannelInstance) -> float:
    """Exact single-user cooperation ratio from the feasibility quadratic.

    The root in [0, 1] of (sigma_p2 + A^2) x^2 gamma^2 + 2 sigma_p2 A x gamma
    - A^2 x^2 = 0, with A = h_p sqrt(P_p) and x = g sqrt(P), written as
    A x / (sigma_p2 + sqrt(sigma_p2^2 + (sigma_p2 + A^2) x^2)) so that no
    two nearly equal terms are subtracted.  That ratio is below 1, but can
    round to just above it when A x dwarfs sigma_p2; it is clipped to 1.
    With g = 0 nothing interferes, and the ratio is 0, the optimum.
    """
    if ch.num_users != 1:
        raise UnsupportedSizeError(f"closed form defined for 1 user, got {ch.num_users}")
    amp = ch.primary_amplitude
    x = ch.g[0] * math.sqrt(ch.p[0])
    s = ch.sigma_p2
    return min(1.0, amp * x / (s + math.sqrt(s * s + (s + amp * amp) * x * x)))


def random_instance(rng: np.random.Generator, num_users: int) -> ChannelInstance:
    """Instance generator for randomized suites.

    Gains uniform in [0.1, 2], powers uniform in [0.5, 10], noise variances
    uniform in [0.5, 2].
    """
    return ChannelInstance(
        h=rng.uniform(0.1, 2.0, num_users),
        g=rng.uniform(0.1, 2.0, num_users),
        p=rng.uniform(0.5, 10.0, num_users),
        h_p=rng.uniform(0.1, 2.0),
        p_p=rng.uniform(0.5, 10.0),
        sigma_p2=rng.uniform(0.5, 2.0),
        sigma_c2=rng.uniform(0.5, 2.0),
        f=rng.uniform(0.1, 2.0),
    )


def instance_suite(seed: int, count: int, sizes=(1, 2, 3)) -> list[ChannelInstance]:
    """Deterministic suite of random instances cycling through the sizes."""
    rng = np.random.default_rng(seed)
    return [random_instance(rng, sizes[i % len(sizes)]) for i in range(count)]
