"""Maximum sum-rate power split by one root find along the multiplier path.

With A = h_p sqrt(P_p), s_p = h_p^2 P_p, a_k = g_k sqrt(P_k), beta_k = h_k / g_k
and c_k(lambda) = (beta_k^2 - lambda s_p) a_k over the users with g_k > 0,
stationarity at a multiplier lambda gives gamma_k = min(1, t / c_k), or 1 once
c_k <= 0, where t = lambda sigma_p2 X and X = A + sum_k a_k gamma_k is the
primary signal.  So t is a fixed point of t -> lambda sigma_p2 (A + sum_k a_k
min(1, t / c_k)), a concave, increasing map that is positive at t = 0 and flat
once every user saturates: it meets the identity exactly once (water filling;
Boyd & Vandenberghe, Convex Optimization, 5.5.3).  User j saturates iff the
map at c_j is at least c_j, so with the users sorted by increasing c_k the
saturated ones are the prefix of users j with

    c_j <= 0  or  lambda sigma_p2 N_j >= c_j (1 - lambda sigma_p2 Q_j),
    N_j = A + sum_{i<j} a_i,   Q_j = sum_{i>=j, c_i>0} a_i / c_i,

a tie saturating.  With m users saturated and the others I, r = lambda
sigma_p2 and S = X - A = (sum_{i<m} a_i + A r Q_m) / (1 - r Q_m), gamma_k =
r X / c_k on I and phi(lambda) = sigma_p2 S (2 A + S) - s_p L, with L =
sum_I a_k^2 (1 - gamma_k^2): sigma_p2 times the channel's `_excess`.  The
solver brackets the root lambda* of phi by doubling, finds it with Brent's
method to float resolution, builds gamma once, at lambda*, and projects its
coordinates onto phi = 0 until one lands.  `sweep_trajectory` applies the
prefix rule to a whole lambda grid at once and returns the path as columns.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, truediv

import numpy as np

from .channel import (
    RESIDUAL_TOL,
    ChannelInstance,
    PowerSplit,
    _capacity,
    SATURATED_GAMMA,
    _coordinate_roots,
    _excess,
    _mac_snr,
    _phi,
    _real,
    _relative_phi,
    _splits,
)


class SolverStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS_EXCEEDED = "MaxItersExceeded"


@dataclass(frozen=True)
class SolverConfig:
    """residual_tol: the largest relative residual reported as Converged, a
    positive finite number.  max_outer_iters: the most path evaluations one
    solve may make, a positive integer (not a bool) that fits a float.  An
    invalid value raises ValueError naming the field, as `ChannelInstance`
    does."""

    residual_tol: float = RESIDUAL_TOL
    max_outer_iters: int = 200_000

    def __post_init__(self):
        tol = _real(self.residual_tol, "residual_tol")
        if not 0 < tol < math.inf:
            raise ValueError(f"residual_tol must be positive and finite, got {tol}")
        iters = self.max_outer_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, numbers.Integral)):
            raise ValueError("max_outer_iters must be an integer")
        if _real(iters, "max_outer_iters") < 1:
            raise ValueError("max_outer_iters must be positive")


@dataclass(frozen=True)
class SolverResult:
    gamma_star: PowerSplit
    sum_rate: float
    lambda_star: float
    residual: float
    outer_iterations: int  # path evaluations
    active_set_changes: int  # users at gamma_k >= SATURATED_GAMMA in gamma_star
    status: SolverStatus


class _WaterFill:
    """The multiplier path of one instance at any lambda, by its fixed point:
    in Python floats, over the users g_k > 0 kept in their last order of c_k,
    which Timsort re-sorts in about one pass, or by `states` at n multipliers
    at once.  `evaluations` counts the calls of phi and split."""

    def __init__(self, ch: ChannelInstance):
        self.ch = ch
        self.users = np.flatnonzero(ch.g > 0)
        self.a_k = ch.a[self.users]
        self.beta2_k = (ch.h[self.users] / ch.g[self.users]) ** 2
        self.ids, self.a, self.a2 = (v.tolist() for v in (self.users, self.a_k, ch.a2[self.users]))
        self.beta2, self.identity = self.beta2_k.tolist(), list(range(self.users.size))
        self.amp, self.sigma_p2, self.s_p = ch.primary_amplitude, ch.sigma_p2, ch.s_p
        self.evaluations = 0

    def first_bound(self) -> float:
        """The least multiplier at which a user h_k > 0 would saturate were the
        others to relay nothing, or the pole of X with all of them interior."""
        live = [(a, b) for a, b in zip(self.a, self.beta2) if b > 0.0]
        n_0 = sum([a for a, b in zip(self.a, self.beta2) if b == 0.0], self.amp)
        sigma_p2, s_p = self.sigma_p2, self.s_p
        return 1.0 / max(
            max([(sigma_p2 * n_0 + s_p * a) / b / a for a, b in live]),
            sigma_p2 * sum([1.0 / b for _, b in live]),
        )

    def _fixed_point(self, lam: float):
        """S at lam, the number m of saturated users, who lead the lists, c_k
        in their order, and a_k / c_k of the interior users."""
        self.evaluations += 1
        ls, r = lam * self.s_p, lam * self.sigma_p2
        c = [(b - ls) * a for b, a in zip(self.beta2, self.a)]
        order = sorted(self.identity, key=c.__getitem__)
        if order != self.identity:  # never with one user
            get = itemgetter(*order)
            lists = c, self.ids, self.a, self.a2, self.beta2
            c, self.ids, self.a, self.a2, self.beta2 = map(get, lists)
        a, n, amp = self.a, len(c), self.amp
        z = bisect_right(c, 0.0)  # at or past their pole
        ratio = list(map(truediv, a[z:], c[z:]))
        # s_m = sum_{i<m} a_i and Q_m, summed in the order of `states`'
        # cumulative sums; Q_j past z is q[n - j], suffix sums listed only once
        # a user past z saturates (most evaluations saturate none)
        m, s_m, q_m, q = z, sum(a[:z]), sum(reversed(ratio)), None
        while m < n and r * (amp + s_m) >= c[m] * (1.0 - r * q_m):
            if q is None:
                q = list(accumulate(reversed(ratio), initial=0.0))
            s_m += a[m]
            m += 1
            q_m = q[n - m]
        return (s_m + amp * r * q_m) / (1.0 - r * q_m), m, c, ratio[m - z :]

    def phi(self, lam: float) -> float:
        """phi at lam by the module's phi(lambda)."""
        s, m, _, ratio = self._fixed_point(lam)
        t = lam * self.sigma_p2 * (self.amp + s)
        # sum_I a_k^2 gamma_k^2 = (t |a_k / c_k|)^2; with hypot, no NaN from
        # t^2 underflowing to 0 while sum (a_k / c_k)^2 overflows
        lost = sum(self.a2[m:]) - (t * math.hypot(*ratio)) ** 2
        return self.sigma_p2 * _excess(self.ch, s, lost)

    def split(self, lam: float):
        """X, gamma (K,) and the saturated flags (K,) at lam: gamma_k = 1 on
        the saturated users, and t / c_k from the path's own c_k on the
        others."""
        s, m, c, _ = self._fixed_point(lam)
        x = self.amp + s
        t = lam * self.sigma_p2 * x
        order = np.array(self.ids, dtype=np.intp)
        gamma, saturated = np.zeros(self.ch.num_users), np.zeros(self.ch.num_users, dtype=bool)
        gamma[order[:m]], saturated[order[:m]] = 1.0, True
        gamma[order[m:]] = np.minimum(t / np.array(c[m:]), 1.0)
        return x, gamma, saturated

    def states(self, lam: np.ndarray):
        """X (n,), gamma (n, K) and the saturated flags (n, K) at each of n
        multipliers: `split` in array operations, one row each."""
        n, k = lam.size, self.users.size
        ls, r = lam[:, None] * self.s_p, lam[:, None] * self.sigma_p2
        c = (self.beta2_k - ls) * self.a_k
        order = np.argsort(c, axis=1, kind="stable")
        c_s = np.take_along_axis(c, order, axis=1)
        a_s = self.a_k[order]
        big_s = np.cumsum(np.column_stack([np.zeros(n), a_s]), axis=1)
        ratio = np.divide(a_s, c_s, out=np.zeros_like(c_s), where=c_s > 0.0)
        q = np.column_stack([np.cumsum(ratio[:, ::-1], axis=1)[:, ::-1], np.zeros(n)])
        prefix = (c_s <= 0.0) | (r * (self.amp + big_s[:, :k]) >= c_s * (1.0 - r * q[:, :k]))
        m = np.argmin(np.column_stack([prefix, np.zeros(n, dtype=bool)]), axis=1)
        rows, r = np.arange(n), r[:, 0]
        x = self.amp + (big_s[rows, m] + self.amp * r * q[rows, m]) / (1.0 - r * q[rows, m])
        pinned = np.argsort(order, axis=1) < m[:, None]  # rank below m
        interior = np.divide((r * x)[:, None], c, out=np.ones_like(c), where=~pinned)
        gamma = np.zeros((n, self.ch.num_users))
        saturated = np.zeros(gamma.shape, dtype=bool)
        gamma[:, self.users], saturated[:, self.users] = np.minimum(interior, 1.0), pinned
        return x, gamma, saturated


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


def _finish(
    ch: ChannelInstance, x: float, gamma: np.ndarray, saturated: np.ndarray, users: np.ndarray
) -> np.ndarray:
    """Project the path's `split` (x, gamma) onto phi = 0 one coordinate at a time.

    The candidates are `users`, those with g_k > 0, interior before
    saturated, each group by steepest a_k (x + t a_k gamma_k), half of
    d phi / d gamma_k over sigma_p2, ties in index order.  Each in turn is
    set to its root clipped to [0, 1], if finite; the first root in [0, 1]
    before clipping ends the walk (one that rounding put just outside does
    not land once clipped).  phi increases in every such gamma_k, so one
    that cannot land alone still moves phi toward 0: a relay with h_k = 0
    released to 0 lets the next one land.
    """
    slope = ch.a * (x + ch.t * ch.a * gamma)
    gamma = gamma.copy()
    for k in users[np.lexsort((-slope[users], saturated[users]))]:
        ok, root = _coordinate_roots(ch, k, gamma, slack=0.0)
        if math.isfinite(root):  # NaN once phi's terms overflow
            gamma[k] = root
        if ok:
            break
    return gamma


def _follow(path: _WaterFill, budget: int) -> tuple[float, bool]:
    """Bracket the root lambda* of phi by doubling from `first_bound`, then
    find it with one Brent search.  Returns (lambda*, True), or (the largest
    multiplier known to have phi < 0, False) once `budget` evaluations are
    spent.  Past the last pole max_k beta_k^2 / s_p phi is constant: if still
    negative there, by rounding only, that multiplier counts as reached."""
    if budget < 1:
        return 0.0, False
    lo, f_lo = 0.0, path.phi(0.0)
    if f_lo >= 0.0 or not any(path.beta2):  # with every h_k = 0, phi is constant
        return 0.0, True
    last = max(path.beta2) / path.s_p
    hi = max(path.first_bound(), sys.float_info.min)  # an underflowing event is at 0+
    while True:
        if path.evaluations >= budget:
            return lo, False
        f_hi = path.phi(hi)
        if f_hi >= 0.0:
            break
        if hi >= last:
            return hi, True
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
    lam_star = _brent(path.phi, lo, hi, f_lo, f_hi, budget - path.evaluations)
    return (lo, False) if lam_star is None else (lam_star, True)


def solve_max_sum_rate(ch: ChannelInstance, cfg: SolverConfig | None = None) -> SolverResult:
    """Find the root lambda* of phi along the multiplier path, build gamma
    there, then project onto phi = 0.

    Returns the feasible split maximizing the cognitive sum rate.  With no
    interference path at all (every g_k = 0) phi is 0 at lambda = 0, so the
    path stops there with gamma = 0 after 2 evaluations, one for phi and one
    for gamma, like any instance whose constraint does not bind.
    """
    cfg = cfg or SolverConfig()
    path = _WaterFill(ch)
    lam, reached = _follow(path, cfg.max_outer_iters - 1)  # one is kept for gamma
    x, gamma, saturated = path.split(lam)
    if reached:
        gamma = _finish(ch, x, gamma, saturated, path.users)
    split = PowerSplit(gamma)
    residual = float(_relative_phi(ch, split.gamma))
    converged = reached and residual <= cfg.residual_tol
    return SolverResult(
        gamma_star=split,
        sum_rate=_capacity(_mac_snr(ch, split.gamma)),
        lambda_star=lam,
        residual=residual,
        outer_iterations=path.evaluations,
        active_set_changes=int(np.count_nonzero(gamma >= SATURATED_GAMMA)),
        status=SolverStatus.CONVERGED if converged else SolverStatus.MAX_ITERS_EXCEEDED,
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


def sweep_trajectory(
    ch: ChannelInstance, lambda_max: float | None, samples: int, cfg: SolverConfig | None = None
) -> Trajectory:
    """Evaluate the path on an even lambda grid over [0, lambda_max].

    lambda_max None stands for 1.25 lambda*, found as `solve_max_sum_rate`
    finds it under cfg's budget, or when that is 0 for the least pole
    beta_k^2 / s_p > 0, else for max(s_p, sigma_p2) / sigma_p2^2, written
    max(t, 1) / sigma_p2 and capped at the largest float.  Every
    grid point is evaluated by the prefix rule at once, and a point at an
    event already has that user saturated; the splits are checked once, as
    one (samples, K) array."""
    path = _WaterFill(ch)
    if lambda_max is None:
        lam_star, _ = _follow(path, (cfg or SolverConfig()).max_outer_iters - 1)
        if lam_star > 0:
            lambda_max = 1.25 * lam_star
        else:
            poles = [b / ch.s_p for b in path.beta2 if b > 0.0 and ch.s_p > 0.0]
            fallback = min(max(ch.t, 1.0) / ch.sigma_p2, sys.float_info.max)
            lambda_max = min(poles, default=fallback)
    if not 0 <= lambda_max < math.inf:
        raise ValueError(f"lambda_max must be nonnegative and finite, got {lambda_max}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(0.0, lambda_max, samples)
    x, gamma, saturated = path.states(grid)
    gamma = _splits(gamma, ndim=2)
    return Trajectory(grid, x, gamma, _phi(ch, gamma), saturated)
