"""Event-driven path following for the maximum sum-rate power split.

With a_k = g_k sqrt(P_k), s_p = h_p^2 P_p and beta_k = h_k / g_k, the
Lagrangian stationarity system has a closed form in the multiplier lambda
for each set S of saturated users (gamma_k = 1); the other users I with
g_k > 0 are interior:

    X(lambda) = N_S / D(lambda),   N_S = h_p sqrt(P_p) + sum_S a_k,
    D(lambda) = 1 - lambda sigma_p2 sum_I 1 / (beta_k^2 - lambda s_p),
    gamma_k(lambda) = lambda sigma_p2 X / ((beta_k^2 - lambda s_p) a_k).

As lambda grows the interior ratios grow until one reaches 1; that user
joins S for good.  These saturation events are computed in order with a
bracketed root finder.  On a segment the primary signal
h_p sqrt(P_p) + sum_k a_k gamma_k equals X, since D X = N_S, so the residual
phi needs only S1 = sum_I 1 / (beta_k^2 - lambda s_p) and
S2 = sum_I 1 / (beta_k^2 - lambda s_p)^2:

    phi(lambda) = sigma_p2 X^2 - s_p (sigma_p2 + sum_I a_k^2 - (lambda sigma_p2 X)^2 S2),
    X = N_S / (1 - lambda sigma_p2 S1).

In the segment where phi turns nonnegative, its root lambda* is found to
float resolution; gamma is built once, at lambda*, and one coordinate is
then projected onto phi = 0.  `sweep_trajectory` samples the same path on
an even lambda grid and returns it as columns, one row per sample.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelInstance,
    PowerSplit,
    _coordinate_roots,
    _phi,
    _primary_terms,
    _splits,
    relative_residual,
    sum_rate,
)


class SolverStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS_EXCEEDED = "MaxItersExceeded"
    DEGENERATE_NO_INTERFERENCE = "DegenerateNoInterference"


@dataclass(frozen=True)
class SolverConfig:
    """residual_tol: the largest relative residual reported as Converged.
    max_outer_iters: the most path evaluations one solve may make."""

    residual_tol: float = 1e-10
    max_outer_iters: int = 200_000

    def __post_init__(self):
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(
                f"residual_tol must be positive and finite, got {self.residual_tol}"
            )
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")


@dataclass(frozen=True)
class SolverResult:
    gamma_star: PowerSplit
    sum_rate: float
    lambda_star: float
    residual: float
    outer_iterations: int  # path evaluations
    active_set_changes: int  # saturation events
    status: SolverStatus


class _Path:
    """The multiplier path of one instance, segment by segment.

    Users with h_k = 0 < g_k have their pole at lambda = 0: they start
    saturated.  `evaluations` counts the closed-form evaluations at one
    multiplier: of the event function, of phi and of gamma.
    """

    def __init__(self, ch: ChannelInstance):
        self.ch = ch
        self.sigma_p2 = ch.sigma_p2
        self.s_p = ch.h_p**2 * ch.p_p
        self.a = ch.g * np.sqrt(ch.p)
        self.beta2 = np.divide(ch.h, ch.g, out=np.zeros(ch.num_users), where=ch.g > 0) ** 2
        self.saturated = (ch.g > 0) & (ch.h == 0)
        self.evaluations = 0
        self._update()

    def _update(self):
        self.interior = np.flatnonzero((self.ch.g > 0) & ~self.saturated)
        self.a_i, self.beta2_i = self.a[self.interior], self.beta2[self.interior]
        self.n_s = self.ch.primary_amplitude + float(self.a[self.saturated].sum())
        self.a2_i = float(self.a_i @ self.a_i)  # sum_I a_k^2

    def saturate(self, lam: float) -> None:
        """Saturate the interior user that reaches gamma = 1 at lam."""
        c = (self.beta2_i - lam * self.s_p) * self.a_i
        self.saturated[self.interior[np.argmin(c)]] = True
        self._update()

    def point(self, lam):
        """X and gamma at lam, a scalar or an (n,) array of multipliers, from
        the segment's start up to its event."""
        self.evaluations += 1
        lam = np.asarray(lam, dtype=float)
        pole = self.beta2_i - lam[..., None] * self.s_p
        x = self.n_s / (1.0 - lam * self.sigma_p2 * np.sum(1.0 / pole, axis=-1))
        gamma = np.zeros(x.shape + (self.ch.num_users,))
        gamma[..., self.saturated] = 1.0
        gamma[..., self.interior] = (lam * self.sigma_p2 * x)[..., None] / (pole * self.a_i)
        return x, np.minimum(gamma, 1.0)

    def phi(self, lam: float) -> float:
        """phi at lam, from the segment's start up to its event, by the
        module's phi(lambda): the signal is X, and the interference left is
        sum_I a_k^2 (1 - gamma_k^2)."""
        self.evaluations += 1
        inv = 1.0 / (self.beta2_i - lam * self.s_p)
        sigma_p2 = self.sigma_p2
        x = self.n_s / (1.0 - lam * sigma_p2 * float(inv.sum()))
        relayed = lam * sigma_p2 * x
        noise = sigma_p2 + self.a2_i - relayed * relayed * float(inv @ inv)
        return sigma_p2 * x * x - self.s_p * noise

    def next_event(self, lo: float, budget: float) -> float | None:
        """The multiplier at or above lo at which the next interior user
        reaches gamma = 1, or None once `budget` evaluations are spent.

        It is the root of lambda sigma_p2 N_S - D(lambda) min_I c_k(lambda),
        with c_k = (beta_k^2 - lambda s_p) a_k, which increases through zero
        there.  The root lies at or below lambda_u, the least
        beta_k^2 a_k / (sigma_p2 N_S + s_p a_k), where the event would occur
        even with D = 1, and at or below 1 / (sigma_p2 sum_I 1 / beta_k^2),
        where D <= 0.
        """
        sigma_p2, s_p, n_s = self.sigma_p2, self.s_p, self.n_s
        a_i, beta2_i = self.a_i, self.beta2_i

        def f(lam):
            self.evaluations += 1
            pole = beta2_i - lam * s_p
            d = 1.0 - lam * sigma_p2 * float((1.0 / pole).sum())
            return lam * sigma_p2 * n_s - d * float((pole * a_i).min())

        hi = 1.0 / max(
            float(np.max((sigma_p2 * n_s + s_p * a_i) / (beta2_i * a_i))),
            sigma_p2 * float(np.sum(1.0 / beta2_i)),
        )
        if budget < 2:
            return None
        f_lo = f(lo)
        if f_lo >= 0.0 or hi <= lo:  # at lo: a tie with the user saturated there
            return lo
        f_hi = f(hi)
        if f_hi <= 0.0:
            return hi
        return _brent(f, lo, hi, f_lo, f_hi, budget - 2)


def _brent(f, lo: float, hi: float, f_lo: float, f_hi: float, budget: float) -> float | None:
    """Brent's method for the root of f in [lo, hi], given f_lo < 0 < f_hi.

    Inverse quadratic or secant steps, with bisection whenever they leave the
    bracket or shrink it too slowly; stops when the bracket is a few ulps
    wide.  Returns None once `budget` evaluations of f are spent.
    """
    a, fa = lo, f_lo  # previous estimate
    b, fb = hi, f_hi  # best estimate
    c, fc = a, fa  # f(b) and f(c) have opposite signs
    step = prev = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(2.0 * sys.float_info.epsilon * abs(b), sys.float_info.min)
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) <= tol:
            return float(b)
        if budget <= 0:
            return None
        bisect = True
        if abs(prev) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev * q)):
                prev, step = step, p / q
                bisect = False
        if bisect:
            prev = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)
        budget -= 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev = b - a


def _finish(ch: ChannelInstance, gamma: np.ndarray, saturated: np.ndarray) -> np.ndarray:
    """Project one coordinate of gamma onto phi = 0.

    The user is the one with g_k > 0 and the steepest d phi / d gamma_k whose
    root lies in [0, 1], trying interior users before saturated ones; gamma
    comes back unchanged when no user has such a root.
    """
    x = _primary_terms(ch, gamma)[0]
    a = ch.g * np.sqrt(ch.p)
    slope = a * (ch.sigma_p2 * x + ch.h_p**2 * ch.p_p * a * gamma)  # half d phi / d gamma_k
    users = np.flatnonzero(ch.g > 0)
    for k in users[np.lexsort((-slope[users], saturated[users]))]:
        ok, root = _coordinate_roots(ch, k, np.delete(gamma, k))
        if ok:
            gamma = gamma.copy()
            gamma[k] = root
            break
    return gamma


def _follow(path: _Path, budget: int) -> tuple[float, bool]:
    """Follow the path from lambda = 0 through the saturation events to the
    root lambda* of phi.  Returns (lambda*, True), or (the last multiplier
    reached, False) once `budget` evaluations are spent."""
    lam = 0.0
    if budget < 1:
        return lam, False
    phi = path.phi(lam)
    while phi < 0.0 and path.interior.size:
        lam_e = path.next_event(lam, budget - path.evaluations)
        if lam_e is None or budget - path.evaluations < 1:
            return lam, False
        phi_e = path.phi(lam_e)
        if phi_e >= 0.0:  # lambda* lies in this segment
            lam_star = _brent(path.phi, lam, lam_e, phi, phi_e, budget - path.evaluations)
            return (lam, False) if lam_star is None else (lam_star, True)
        path.saturate(lam_e)
        lam, phi = lam_e, phi_e
    return lam, True


def solve_max_sum_rate(ch: ChannelInstance, cfg: SolverConfig | None = None) -> SolverResult:
    """Follow the multiplier path from lambda = 0 through the saturation
    events to the root lambda* of phi, then project onto phi = 0.

    Returns the feasible split maximizing the cognitive sum rate.  With no
    interference path at all (every g_k = 0) the answer is gamma = 0.
    """
    cfg = cfg or SolverConfig()
    interferes = bool(np.any(ch.g > 0))
    gamma = np.zeros(ch.num_users)
    lam, reached, evaluations, changes = 0.0, True, 0, 0
    # with h_p = 0, phi(0) = 0: gamma = 0 preserves the primary rate
    if interferes and _phi(ch, gamma) < 0.0:
        path = _Path(ch)
        lam, reached = _follow(path, cfg.max_outer_iters - 1)  # one is kept for gamma
        gamma = path.point(lam)[1]
        if reached:
            gamma = _finish(ch, gamma, path.saturated)
        evaluations, changes = path.evaluations, int(np.count_nonzero(path.saturated))
    split = PowerSplit(gamma)
    residual = relative_residual(ch, split)
    if not interferes:
        status = SolverStatus.DEGENERATE_NO_INTERFERENCE
    elif reached and residual <= cfg.residual_tol:
        status = SolverStatus.CONVERGED
    else:
        status = SolverStatus.MAX_ITERS_EXCEEDED
    return SolverResult(
        gamma_star=split,
        sum_rate=sum_rate(ch, split),
        lambda_star=lam,
        residual=residual,
        outer_iterations=evaluations,
        active_set_changes=changes,
        status=status,
    )


@dataclass(frozen=True)
class Trajectory:
    """The path at n multipliers, one row per sample: lam (n,), x (n,), gamma
    (n, K), phi (n,) and saturated (n, K), true for the users pinned at 1."""

    lam: np.ndarray
    x: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    saturated: np.ndarray


def sweep_trajectory(ch: ChannelInstance, lambda_max: float, samples: int) -> Trajectory:
    """Evaluate the path on an even lambda grid over [0, lambda_max].

    The grid points between two saturation events are evaluated together,
    and a point at an event already has that user saturated; the splits are
    checked once, as one (samples, K) array."""
    if not 0 <= lambda_max < math.inf:
        raise ValueError(f"lambda_max must be nonnegative and finite, got {lambda_max}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(0.0, lambda_max, samples)
    x, gamma = np.empty(samples), np.empty((samples, ch.num_users))
    saturated = np.empty(gamma.shape, dtype=bool)
    path = _Path(ch)
    done, lam = 0, 0.0
    while done < samples:
        lam_e = path.next_event(lam, math.inf) if path.interior.size else math.inf
        end = int(np.searchsorted(grid, lam_e))
        if end > done:
            x[done:end], gamma[done:end] = path.point(grid[done:end])
            saturated[done:end] = path.saturated
            done = end
        if lam_e > lambda_max:
            break
        path.saturate(lam_e)
        lam = lam_e
    gamma = _splits(gamma, ndim=2)
    return Trajectory(grid, x, gamma, _phi(ch, gamma), saturated)
