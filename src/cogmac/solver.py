"""Lagrangian active-set sweep for the maximum sum-rate power split.

The multiplier lambda is swept upward from 0; at each value the stationarity
system gives a closed form for the aggregate amplitude X and the per-user
ratios gamma_k.  Users whose ratio hits 1 are moved to the saturated set and
stay there.  The equality constraint is met by locating the sign change of
the cross-multiplied residual phi along the sweep, then bisecting lambda.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelInstance,
    PowerSplit,
    feasibility_residual,
    relative_residual,
    sum_rate,
)


class ActiveSetSingularityError(RuntimeError):
    """The closed form for X is invalid at this lambda with this active set.

    Signals that lambda has passed a saturation point; the caller must move
    users to the saturated set and retry.  `users` lists interior users whose
    pole denominator beta_k^2 - lambda h_p^2 P_p is nonpositive (empty when
    the aggregate denominator itself is nonpositive).
    """

    def __init__(self, message: str, users: tuple[int, ...] = ()):
        super().__init__(message)
        self.users = users


class SaturationRequiredError(RuntimeError):
    """Raw gamma_k >= 1 for some interior users; they must be saturated."""

    def __init__(self, users: tuple[int, ...]):
        super().__init__(f"users {users} require saturation")
        self.users = users


class SolverStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS_EXCEEDED = "MaxItersExceeded"
    DEGENERATE_NO_INTERFERENCE = "DegenerateNoInterference"


@dataclass(frozen=True)
class SolverConfig:
    """Sweep and refinement knobs.

    lambda_step=None picks 1e-3 times the smallest pole of the gamma formula
    (scales with the instance).  Bisection runs until the residual tolerance
    is met or the bracket reaches float resolution.
    """

    lambda_step: float | None = None
    residual_tol: float = 1e-10
    max_outer_iters: int = 200_000
    bisection_refine: bool = True

    def __post_init__(self):
        if self.lambda_step is not None and self.lambda_step <= 0:
            raise ValueError("lambda_step must be positive")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")


@dataclass(frozen=True)
class ActiveSetState:
    """Current multiplier, user partition, and iterate."""

    lam: float
    interior: tuple[int, ...]
    saturated: tuple[int, ...]
    x_value: float
    gamma: PowerSplit


@dataclass(frozen=True)
class SolverResult:
    gamma_star: PowerSplit
    sum_rate: float
    lambda_star: float
    residual: float
    outer_iterations: int
    active_set_changes: int
    status: SolverStatus


def saturation_poles(ch: ChannelInstance) -> np.ndarray:
    """Per-user pole lambda_k = beta_k^2 / (h_p^2 P_p) of the gamma formula.

    Users with g_k = 0 get +inf (they never enter the formula); with
    h_p^2 P_p = 0 every pole is +inf.
    """
    poles = np.full(ch.num_users, math.inf)
    s_p = ch.h_p**2 * ch.p_p
    if s_p > 0:
        mask = ch.g > 0
        poles[mask] = (ch.h[mask] / ch.g[mask]) ** 2 / s_p
    return poles


def default_lambda_step(ch: ChannelInstance) -> float:
    """1e-3 times the smallest strictly positive pole; instance-scaled."""
    poles = saturation_poles(ch)
    positive = poles[(poles > 0) & np.isfinite(poles)]
    if positive.size:
        return 1e-3 * float(positive.min())
    # no finite positive pole (e.g. all h_k = 0): fall back to a noise-scaled step
    s_p = ch.h_p**2 * ch.p_p
    return 1e-3 * max(s_p, ch.sigma_p2) / ch.sigma_p2**2


def initial_state(ch: ChannelInstance) -> ActiveSetState:
    return ActiveSetState(
        lam=0.0,
        interior=tuple(range(ch.num_users)),
        saturated=(),
        x_value=ch.primary_amplitude,
        gamma=PowerSplit.zeros(ch.num_users),
    )


def x_closed_form(ch: ChannelInstance, lam: float, state: ActiveSetState) -> float:
    """Aggregate amplitude X for the given multiplier and partition.

    Interior users with g_k = 0 are pinned at gamma_k = 0 and excluded from
    the pole sum.  Raises ActiveSetSingularityError when lambda has passed a
    pole or the aggregate denominator is nonpositive.
    """
    s_p = ch.h_p**2 * ch.p_p
    numerator = ch.primary_amplitude + float(
        np.sum([ch.g[k] * math.sqrt(ch.p[k]) for k in state.saturated])
    )
    pole_sum = 0.0
    bad: list[int] = []
    for k in state.interior:
        if ch.g[k] <= 0:
            continue
        denom_k = ch.beta(k) ** 2 - lam * s_p
        if denom_k <= 0:
            bad.append(k)
        else:
            pole_sum += 1.0 / denom_k
    if bad:
        raise ActiveSetSingularityError(
            f"pole passed for users {tuple(bad)} at lambda={lam}", tuple(bad)
        )
    denominator = 1.0 - lam * ch.sigma_p2 * pole_sum
    if denominator <= 0:
        raise ActiveSetSingularityError(
            f"aggregate denominator nonpositive at lambda={lam}"
        )
    return numerator / denominator


def _raw_interior_gamma(
    ch: ChannelInstance, lam: float, x: float, k: int
) -> float:
    s_p = ch.h_p**2 * ch.p_p
    denom = (ch.beta(k) ** 2 - lam * s_p) * ch.g[k] * math.sqrt(ch.p[k])
    return lam * ch.sigma_p2 * x / denom


def gamma_of_lambda(
    ch: ChannelInstance, lam: float, x: float, state: ActiveSetState
) -> PowerSplit:
    """Per-user ratios for the given multiplier, X, and partition.

    Saturated users get 1; interior users with g_k = 0 stay at 0.  If any
    interior user's raw value reaches 1 (or its denominator is nonpositive)
    a SaturationRequiredError listing those users is raised instead.
    """
    if x < ch.primary_amplitude - 1e-12 * max(1.0, ch.primary_amplitude):
        raise ValueError("x must be at least h_p * sqrt(P_p)")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    gamma = np.zeros(ch.num_users)
    s_p = ch.h_p**2 * ch.p_p
    overflow: list[tuple[float, int]] = []
    for k in state.saturated:
        gamma[k] = 1.0
    for k in state.interior:
        if ch.g[k] <= 0:
            continue
        denom = ch.beta(k) ** 2 - lam * s_p
        if denom <= 0:
            overflow.append((math.inf, k))
            continue
        raw = _raw_interior_gamma(ch, lam, x, k)
        if raw >= 1.0:
            overflow.append((raw, k))
        else:
            gamma[k] = raw
    if overflow:
        overflow.sort(key=lambda item: (-item[0], item[1]))
        raise SaturationRequiredError(tuple(k for _, k in overflow))
    return PowerSplit(gamma)


def update_active_set(
    ch: ChannelInstance, lam: float, state: ActiveSetState
) -> ActiveSetState:
    """Recompute (X, gamma) at lam, saturating users until a fixed point.

    Users only move interior -> saturated; at most K moves, so this always
    terminates.  A singularity persisting with no movable user left is an
    internal inconsistency.
    """
    interior = list(state.interior)
    saturated = list(state.saturated)

    def movable() -> list[int]:
        return [k for k in interior if ch.g[k] > 0]

    def saturate(users) -> None:
        for k in users:
            interior.remove(k)
            saturated.append(k)

    while True:
        trial = ActiveSetState(
            lam, tuple(interior), tuple(sorted(saturated)), state.x_value, state.gamma
        )
        try:
            x = x_closed_form(ch, lam, trial)
        except ActiveSetSingularityError as exc:
            if exc.users:
                saturate(exc.users)
                continue
            cands = movable()
            if not cands:
                raise
            # aggregate denominator blew past zero with all interior poles
            # still positive: the user with the largest gamma coefficient
            # saturates first (ordering is X-independent)
            s_p = ch.h_p**2 * ch.p_p
            cands.sort(
                key=lambda k: ((ch.beta(k) ** 2 - lam * s_p) * ch.g[k] * math.sqrt(ch.p[k]), k)
            )
            saturate([cands[0]])
            continue
        try:
            gamma = gamma_of_lambda(ch, lam, x, trial)
        except SaturationRequiredError as exc:
            saturate(exc.users)
            continue
        return replace(trial, x_value=x, gamma=gamma)


def _next_pole(ch: ChannelInstance, state: ActiveSetState, lam: float) -> float | None:
    poles = saturation_poles(ch)
    remaining = [poles[k] for k in state.interior if math.isfinite(poles[k]) and poles[k] > lam]
    return min(remaining) if remaining else None


def solve_max_sum_rate(ch: ChannelInstance, cfg: SolverConfig | None = None) -> SolverResult:
    """Sweep lambda upward until the feasibility residual changes sign, then
    bisect lambda inside the bracketing interval.

    Returns the feasible split maximizing the cognitive sum rate.  With no
    interference path at all (every g_k = 0) the answer is gamma = 0.
    """
    cfg = cfg or SolverConfig()
    k_users = ch.num_users

    if not np.any(ch.g > 0):
        gamma0 = PowerSplit.zeros(k_users)
        return SolverResult(
            gamma_star=gamma0,
            sum_rate=sum_rate(ch, gamma0),
            lambda_star=0.0,
            residual=relative_residual(ch, gamma0),
            outer_iterations=0,
            active_set_changes=0,
            status=SolverStatus.DEGENERATE_NO_INTERFERENCE,
        )

    state = initial_state(ch)
    phi = feasibility_residual(ch, state.gamma)
    if relative_residual(ch, state.gamma) <= cfg.residual_tol or phi >= 0.0:
        # already feasible at gamma = 0 (e.g. h_p = 0)
        return SolverResult(
            gamma_star=state.gamma,
            sum_rate=sum_rate(ch, state.gamma),
            lambda_star=0.0,
            residual=relative_residual(ch, state.gamma),
            outer_iterations=0,
            active_set_changes=0,
            status=SolverStatus.CONVERGED,
        )

    step = cfg.lambda_step if cfg.lambda_step is not None else default_lambda_step(ch)

    iters = 0
    changes = 0
    lam = 0.0
    bracket = None
    while iters < cfg.max_outer_iters:
        lam_next = lam + step
        new_state = update_active_set(ch, lam_next, state)
        iters += 1
        if len(new_state.saturated) != len(state.saturated):
            changes += len(new_state.saturated) - len(state.saturated)
            # active set changed: rescale the step to the new pole spacing so
            # widely separated poles cannot stall the sweep
            if cfg.lambda_step is None:
                nxt = _next_pole(ch, new_state, lam_next)
                if nxt is not None:
                    step = max(step, 1e-3 * (nxt - lam_next))
        phi_next = feasibility_residual(ch, new_state.gamma)
        if phi_next >= 0.0:
            bracket = (lam, state, lam_next, new_state, phi_next)
            break
        lam, state, phi = lam_next, new_state, phi_next

    if bracket is None:
        return SolverResult(
            gamma_star=state.gamma,
            sum_rate=sum_rate(ch, state.gamma),
            lambda_star=lam,
            residual=relative_residual(ch, state.gamma),
            outer_iterations=iters,
            active_set_changes=changes,
            status=SolverStatus.MAX_ITERS_EXCEEDED,
        )

    lo, lo_state, hi, hi_state, _ = bracket
    if cfg.bisection_refine:
        while relative_residual(ch, hi_state.gamma) > cfg.residual_tol:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:  # interval below float resolution
                break
            mid_state = update_active_set(ch, mid, lo_state)
            if len(mid_state.saturated) != len(lo_state.saturated):
                changes += len(mid_state.saturated) - len(lo_state.saturated)
            if feasibility_residual(ch, mid_state.gamma) >= 0.0:
                hi, hi_state = mid, mid_state
            else:
                lo, lo_state = mid, mid_state

    best = hi_state
    residual = relative_residual(ch, best.gamma)
    status = (
        SolverStatus.CONVERGED
        if residual <= cfg.residual_tol
        else SolverStatus.MAX_ITERS_EXCEEDED
    )
    return SolverResult(
        gamma_star=best.gamma,
        sum_rate=sum_rate(ch, best.gamma),
        lambda_star=hi,
        residual=residual,
        outer_iterations=iters,
        active_set_changes=changes,
        status=status,
    )


@dataclass(frozen=True)
class SweepRow:
    """One sampled point of the lambda trajectory."""

    lam: float
    x_value: float
    gamma: PowerSplit
    phi: float
    saturated: tuple[int, ...]


def sweep_trajectory(
    ch: ChannelInstance, lambda_max: float, samples: int
) -> list[SweepRow]:
    """Evaluate the active-set state on an even lambda grid over [0, lambda_max]."""
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    state = initial_state(ch)
    rows = []
    for lam in np.linspace(0.0, lambda_max, samples):
        state = update_active_set(ch, float(lam), state)
        rows.append(
            SweepRow(
                lam=float(lam),
                x_value=state.x_value,
                gamma=state.gamma,
                phi=feasibility_residual(ch, state.gamma),
                saturated=state.saturated,
            )
        )
    return rows
