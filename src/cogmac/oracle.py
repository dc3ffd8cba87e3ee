"""Independent validation: brute-force grid search, KKT checks, closed forms.

The grid search never reuses the sweep solver's machinery: it searches the
same projected grid as the region (`region.feasible_grid`), where each
candidate is projected onto the equality constraint through the
per-coordinate quadratic, so every evaluated point is feasible.  It reads
that grid chunk by chunk from the one kernel that builds it
(`region._blocks`) and keeps only a count and the best row.  Only those
chunks are worked as arrays here, and numpy is imported only for them:
`kkt_check` and the single-user closed form read one split and the
instance as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .channel import (
    SATURATED_GAMMA,
    ChannelInstance,
    PowerSplit,
    _mac_power,
    relative_residual,
    sum_rate,
)
from .region import UnsupportedSizeError, _blocks

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class OracleResult:
    best_gamma: PowerSplit
    best_sum_rate: float
    points_evaluated: int


@dataclass(frozen=True)
class KktReport:
    """Stationarity and feasibility diagnostics for a solver output."""

    stationarity: dict[int, float]  # scaled derivative residual per user
    interior_users: tuple[int, ...]
    saturated_users: tuple[int, ...]
    feasibility_rel: float
    stationarity_ok: bool
    feasibility_ok: bool
    passed: bool


def grid_search(ch: ChannelInstance, grid_step: float) -> OracleResult:
    """Exhaustive feasible search for the maximum sum rate.

    For each coordinate with g_k > 0 the other K-1 coordinates run over the
    grid and that coordinate is solved from the equality constraint
    (`feasible_grid`).  Each chunk of each block is reduced where it is
    built, to its count and best row, with each SNR summed in index order
    as `sum_rate` sums it, so that peak memory is set by one chunk.  Ties
    break toward the earliest block and row.
    """
    import numpy as np

    count, best, best_snr = 0, None, -math.inf
    for axes, keep in _blocks(ch, grid_step):
        with np.errstate(over="ignore", invalid="ignore"):
            power = sum(map(_mac_power, ch.h2_floats, ch.p_floats, axes))
            snr = np.divide(power, ch.sigma_c2, out=np.full(keep.shape, -math.inf), where=keep)
        row = int(snr.argmax())
        count += int(np.count_nonzero(keep))
        if snr.item(row) > best_snr:
            best_snr, best = snr.item(row), [np.broadcast_to(a, keep.shape).item(row) for a in axes]
    best = PowerSplit(best)
    return OracleResult(best_gamma=best, best_sum_rate=sum_rate(ch, best), points_evaluated=count)


def kkt_check(ch: ChannelInstance, result, tol: float = 1e-6) -> KktReport:
    """Check the stationarity system and feasibility at a solution, one user
    at a time in Python floats.  `result` is a `solver.SolverResult`, or any
    object with its `gamma_star` and `lambda_star`: the check imports
    nothing from the solver.

    Interior users (gamma_k < 1, g_k > 0) must have a vanishing scaled
    derivative; saturated users a derivative pushing toward the bound;
    users with g_k = 0 must sit at 0.  Each user's h_k^2 P_k, g_k sqrt(P_k)
    and g_k^2 P_k are formed here, not read from the kernels.  Overflow and
    inf / inf pass silently, and a stationarity entry that is not finite
    fails.  The box bounds need no check: `PowerSplit` holds every gamma_k
    in [0, 1].
    """
    gamma, lam = result.gamma_star.gamma_floats, result.lambda_star
    h, g, p = ch.h_floats, ch.g_floats, ch.p_floats
    roots = list(map(math.sqrt, p))
    x = ch.primary_amplitude + sum(g_k * r_k * y for g_k, r_k, y in zip(g, roots, gamma))
    drive, quad = 2.0 * lam * ch.sigma_p2 * x, 2.0 * lam * ch.s_p
    stationarity, interior, saturated, stationarity_ok = {}, [], [], True
    for k, (h_k, g_k, p_k, r_k, gamma_k) in enumerate(zip(h, g, p, roots, gamma)):
        own = 2.0 * (h_k * h_k) * p_k
        term_obj = -own * gamma_k
        term_x = drive * g_k * r_k
        term_quad = quad * (g_k * g_k) * p_k * gamma_k
        # NaN only where a term is NaN, and then so is their sum: max need not propagate it
        scale = max(abs(term_obj), abs(term_x), abs(term_quad), own)
        s = stationarity[k] = (term_obj + term_x + term_quad) / (scale or 1.0)
        inside = gamma_k < SATURATED_GAMMA
        (interior if inside else saturated).append(k)
        ok = gamma_k <= tol if g_k == 0.0 else abs(s) <= tol if inside else s >= -tol
        stationarity_ok = stationarity_ok and ok and math.isfinite(s)
    feas_rel = relative_residual(ch, result.gamma_star)
    feasibility_ok = feas_rel <= tol
    return KktReport(
        stationarity=stationarity,
        interior_users=tuple(interior),
        saturated_users=tuple(saturated),
        feasibility_rel=feas_rel,
        stationarity_ok=stationarity_ok,
        feasibility_ok=feasibility_ok,
        passed=stationarity_ok and feasibility_ok,
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
    x = ch.g_floats[0] * math.sqrt(ch.p_floats[0])
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
    import numpy as np

    rng = np.random.default_rng(seed)
    return [random_instance(rng, sizes[i % len(sizes)]) for i in range(count)]
