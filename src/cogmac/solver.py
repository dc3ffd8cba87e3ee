"""Maximum sum-rate power split by one root find along the multiplier path.

With A = h_p sqrt(P_p), s_p = h_p^2 P_p, a_k = g_k sqrt(P_k), w_k = h_k^2 P_k
and c_k(lambda) = w_k / a_k - lambda s_p a_k over the users with a_k > 0,
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
sum_I a_k^2 (1 - gamma_k^2): sigma_p2 times the channel's `_excess`.  Between
two saturations phi is rational in lambda, with poles where c_k = 0 and where
1 - r Q = 0.  The solver finds the root lambda* of phi in O(log decades)
path evaluations: it grows a bracket in the exponent, then takes Newton's
step on a form of phi without the pole of X (`_WaterFill.phi`) where it
lands inside a bracket that spans at most a factor of 4, and bisects on the
exponents of lambda and of its distance to the nearest pole everywhere else.
It builds gamma once, at lambda*, and projects its coordinates onto
phi = 0 until one lands.  `sweep_trajectory` applies the prefix rule to a
whole lambda grid at once and returns the path as columns.

One evaluation costs O(K) per-user work (c_k, the sort, the prefix test and
the sums) and O(1) scalar work (phi, Newton's step, the singularity).  The
per-user work has two forms, picked once per instance from K alone: Python
lists below `_ARRAY_USERS` users (`_WaterFill`), numpy arrays from there
(`_ArrayFill`).  Each numpy call costs about a microsecond however short
the array, so the array form is slower at small K and faster at large K;
the two cross near K = 56.  Both give the same floats: every elementwise
operation rounds alike, the sort is stable, every sum, norm and maximum is
the same builtin over the same floats in the same order, and the running
sums add in order (itertools.accumulate in one form, np.cumsum in the
other; ndarray.sum is pairwise and would not).
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


# a step or a bracket this short, relative to the multiplier, ends the root find
_FEW_ULPS = 4.0 * sys.float_info.epsilon


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


_DEFAULT_CONFIG = SolverConfig()


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
    """The multiplier path of one instance at any lambda, by its fixed point,
    over the users a_k > 0 kept in their last order of c_k, or by `states` at
    n multipliers at once.  c_k = w_k / a_k - lambda s_p a_k, with w_k = h_k^2
    P_k, so no (h_k / g_k)^2 leaves the float range; `last` is the last
    pole, max_k w_k / a_k / a_k / s_p, within the normal floats.
    `evaluations` counts the calls of phi and split.

    This is the list form: its per-user work, `_hold` and `_prefix`, runs on
    Python floats, whose sort (Timsort) re-sorts the last order in about one
    pass.  `_ArrayFill` does the same work in numpy arrays; everything else
    is shared."""

    def __init__(self, ch: ChannelInstance):
        self.ch = ch
        self.users = np.flatnonzero(ch.a > 0)  # g_k > 0, unless g_k sqrt(P_k) underflows
        self.a_k, a2 = ch.a[self.users], ch.a2[self.users]
        top = self._hold(a2, ch.h2[self.users] * ch.p[self.users])
        pole = top / ch.s_p if ch.s_p > 0.0 else 0.0
        self.last = min(max(pole, sys.float_info.min), sys.float_info.max)
        self.amp, self.sigma_p2 = ch.primary_amplitude, ch.sigma_p2
        self.s_p, self.t_p = ch.s_p, ch.t
        # C = sqrt(t_p (sigma_p2 + sum_k a_k^2)), phi's constant term as a signal
        self.level = math.sqrt(ch.t * (ch.sigma_p2 + sum(a2.tolist())))
        self.evaluations = 0
        self._last = math.nan, None  # the last multiplier evaluated, and its fixed point

    def _hold(self, a2: np.ndarray, w: np.ndarray) -> float:
        """Keep ids, a, a2 and wa = w / a, the columns that follow the order
        of c_k, and return max_k wa_k / a_k.  In Python floats, which
        overflow to inf without a warning."""
        self.ids, self.a, self.a2 = (v.tolist() for v in (self.users, self.a_k, a2))
        self.wa, self.identity = list(map(truediv, w.tolist(), self.a)), list(range(self.users.size))
        return max(map(truediv, self.wa, self.a), default=0.0)

    def _prefix(self, lam: float):
        """Re-sort the columns by c_k at lam and find the m saturated users,
        who lead them: s_m, Q_m, m, c in the columns' order, a_k / c_k over
        the interior users and a_k^2 over all, as lists, and sum_I (a_k /
        c_k)^3."""
        ls, r, amp = lam * self.s_p, lam * self.sigma_p2, self.amp
        c = [w - ls * a for w, a in zip(self.wa, self.a)]
        order = sorted(self.identity, key=c.__getitem__)
        if order != self.identity:  # never with one user
            get = itemgetter(*order)
            lists = c, self.ids, self.a, self.a2, self.wa
            c, self.ids, self.a, self.a2, self.wa = map(get, lists)
        a, n = self.a, len(c)
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
        ratio = ratio[m - z :]
        return s_m, q_m, m, c, ratio, self.a2, sum([v * v * v for v in ratio])

    def _fixed_point(self, lam: float):
        """S at lam, the number m of saturated users, who lead the columns,
        c_k in their order, a_k / c_k and their sum Q over the interior
        users, a_k^2 in the columns' order and sum_I (a_k / c_k)^3.  At the
        multiplier evaluated last, as `split` at the root usually is, the
        same point again."""
        self.evaluations += 1
        if lam == self._last[0]:
            return self._last[1]
        s_m, q_m, m, c, ratio, a2, cube = self._prefix(lam)
        r = lam * self.sigma_p2
        # r = 0 relays nothing, even where a_k / c_k is past the largest float
        s = (s_m + self.amp * r * q_m) / (1.0 - r * q_m) if r > 0.0 else s_m
        self._last = lam, (s, m, c, ratio, q_m, a2, cube)
        return self._last[1]

    def phi(self, lam: float) -> tuple[float, float, float]:
        """phi at lam by the module's phi(lambda), and from the same sums
        what the root find needs: Newton's step from lam and the distance
        from lam to the nearest singularity of the segment's formula.

        The step is Newton's for psi = (W - C) / X, where t_p = s_p /
        sigma_p2, W^2 = X^2 + t_p sum_k a_k^2 gamma_k^2 and C^2 = t_p
        (sigma_p2 + sum_k a_k^2), so that W^2 - C^2 = phi / sigma_p2: psi is
        smooth where 1 - r Q = 0 (X's pole), and its own poles are those of
        Q, where c_k = 0.  The step models psi as u + v / (p - lambda) at the
        nearest such pole p, Newton's step for (p - lambda) psi, as the
        secular-equation solvers do (Moré & Sorensen, Computing a trust region
        step, 1983; Gander, Golub & von Matt, A constrained eigenvalue
        problem, 1989).  It is NaN where it is not finite, and where it is a
        few ulps long but would cross the next saturation: user m, first of
        the interior ones, stays interior at the root only while r X < c_m,
        with X = Y = sqrt(t_p (sigma_p2 + L)) there.  The singularity is p or
        X's pole, whichever is nearer by its first-order estimate."""
        s, m, c, ratio, q, a2, cube = self._fixed_point(lam)
        sigma_p2, s_p, t_p = self.sigma_p2, self.s_p, self.t_p
        x, r = self.amp + s, lam * sigma_p2
        # sum_I a_k^2 gamma_k^2 = (t |a_k / c_k|)^2, t = r X; with hypot, no
        # NaN from t^2 underflowing to 0 while sum (a_k / c_k)^2 overflows,
        # nor at lambda = 0 from 0 times a norm past the largest float
        norm = math.hypot(*ratio)
        relay_norm = r * x * norm if r > 0.0 else 0.0
        lost = sum(a2[m:]) - relay_norm * relay_norm
        phi = sigma_p2 * _excess(self.ch, s, lost)
        if not ratio:  # every user saturated: phi is constant
            return phi, math.nan, math.inf
        # on the segment dQ/dlambda = s_p sum_I (a_k / c_k)^2, so grow = d ln
        # X / dlambda = d(r Q)/dlambda / (1 - r Q), dt/dlambda = X (sigma_p2 +
        # r grow), and shed = -dL/dlambda / 2 = t dt/dlambda sum_I (a_k /
        # c_k)^2 + s_p t^2 sum_I (a_k / c_k)^3; X dpsi/dlambda = (X^2 grow +
        # t_p shed) / W - (W - C) grow
        norm_r, xx = r * norm, x * x
        grow = (sigma_p2 * q + s_p * norm_r * norm) / (1.0 - r * q)
        shed = 0.0  # at lambda = 0, where t = 0
        if r > 0.0:
            shed = xx * ((sigma_p2 + r * grow) * norm_r * norm + s_p * r * r * cube)
        w = math.sqrt(xx + t_p * ((sum(a2[:m]) if m else 0.0) + relay_norm * relay_norm))
        scale = sigma_p2 * (w + self.level)
        excess = phi / scale if 0.0 < scale < math.inf else math.nan  # W - C
        near = s_p * max(ratio)  # 1 / (p - lambda)
        slope = (xx * grow + t_p * shed) / w - excess * (grow + near) if w > 0.0 else math.nan
        step = -excess / slope if 0.0 < slope < math.inf else math.nan
        if abs(step) <= _FEW_ULPS * lam:
            span = sigma_p2 + lost
            y = math.sqrt(t_p * span) if span > 0.0 else 0.0
            if not (lam + step) * sigma_p2 * y < float(c[m]) - step * s_p * float(self.a[m]):
                step = math.nan
        if grow > near:
            near = grow
        return phi, step, 1.0 / near if near > 0.0 else math.inf

    def split(self, lam: float):
        """X, gamma (K,) and the saturated flags (K,) at lam: gamma_k = 1 on
        the saturated users, and t / c_k from the path's own c_k on the
        others."""
        s, m, c, *_ = self._fixed_point(lam)
        x = self.amp + s
        t = lam * self.sigma_p2 * x
        order = np.asarray(self.ids, dtype=np.intp)
        gamma, saturated = np.zeros(self.ch.num_users), np.zeros(self.ch.num_users, dtype=bool)
        gamma[order[:m]], saturated[order[:m]] = 1.0, True
        gamma[order[m:]] = np.minimum(t / np.asarray(c[m:]), 1.0)
        return x, gamma, saturated

    # overflow to inf, and 0 * inf in the rows that r = 0 skips, pass
    # silently, as in Python floats
    @np.errstate(over="ignore", invalid="ignore")
    def states(self, lam: np.ndarray):
        """X (n,), gamma (n, K) and the saturated flags (n, K) at each of n
        multipliers: `split` in array operations, one row each."""
        n, k = lam.size, self.users.size
        ls, r = lam[:, None] * self.s_p, lam[:, None] * self.sigma_p2
        wa_k = self.ch.h2[self.users] * self.ch.p[self.users] / self.a_k  # as `wa`, in user order
        c = wa_k - ls * self.a_k
        order = np.argsort(c, axis=1, kind="stable")
        c_s = np.take_along_axis(c, order, axis=1)
        a_s = self.a_k[order]
        big_s = np.cumsum(np.column_stack([np.zeros(n), a_s]), axis=1)
        ratio = np.divide(a_s, c_s, out=np.zeros_like(c_s), where=c_s > 0.0)
        q = np.column_stack([np.cumsum(ratio[:, ::-1], axis=1)[:, ::-1], np.zeros(n)])
        prefix = (c_s <= 0.0) | (r * (self.amp + big_s[:, :k]) >= c_s * (1.0 - r * q[:, :k]))
        m = np.argmin(np.column_stack([prefix, np.zeros(n, dtype=bool)]), axis=1)
        rows, r = np.arange(n), r[:, 0]
        s_m = big_s[rows, m]
        relayed = (s_m + self.amp * r * q[rows, m]) / (1.0 - r * q[rows, m])
        x = self.amp + np.where(r > 0.0, relayed, s_m)
        pinned = np.argsort(order, axis=1) < m[:, None]  # rank below m
        interior = np.divide((r * x)[:, None], c, out=np.ones_like(c), where=~pinned)
        gamma = np.zeros((n, self.ch.num_users))
        saturated = np.zeros(gamma.shape, dtype=bool)
        gamma[:, self.users], saturated[:, self.users] = np.minimum(interior, 1.0), pinned
        return x, gamma, saturated


class _ArrayFill(_WaterFill):
    """`_WaterFill` with its per-user work, `_hold` and `_prefix`, in numpy
    arrays, bit for bit the same (see the module docstring).  Overflow and
    inf - inf pass silently, as in Python floats."""

    def _hold(self, a2: np.ndarray, w: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            wa = w / self.a_k
            top = float(np.max(wa / self.a_k, initial=0.0))
        # the columns as one (4, K) array, re-sorted by one take; the ids ride
        # along as floats, exact up to 2^53
        self.cols = np.array([self.a_k, a2, wa, self.users], dtype=float)
        self.a, self.a2, self.wa, self.ids = self.cols
        return top

    @np.errstate(over="ignore", invalid="ignore")
    def _prefix(self, lam: float):
        ls, r, amp = lam * self.s_p, lam * self.sigma_p2, self.amp
        c = self.wa - ls * self.a
        order = c.argsort(kind="stable")
        # argsort puts a NaN last, where Timsort may leave it elsewhere
        if order.size and math.isnan(c.item(order.item(-1))):
            order = sorted(range(c.size), key=c.tolist().__getitem__)
        self.cols, c = self.cols.take(order, axis=1), c.take(order)
        self.a, self.a2, self.wa, self.ids = self.cols
        a, n = self.a, c.size
        z = bisect_right(c, 0.0)  # by the list form's comparisons, NaN included
        ratio = a[z:] / c[z:]
        listed = ratio.tolist()
        m, s_m, q_m, q = z, sum(a[:z].tolist()), sum(reversed(listed)), None
        while m < n and r * (amp + s_m) >= c.item(m) * (1.0 - r * q_m):
            if q is None:  # q[i]: the last i + 1 of a_k / c_k, summed from the end
                q = np.cumsum(ratio[::-1])
            s_m += a.item(m)
            m += 1
            q_m = q.item(n - m - 1) if m < n else 0.0
        ratio = ratio[m - z :]
        cube = sum((ratio * ratio * ratio).tolist())  # v * v * v, as the list form
        return s_m, q_m, m, c, listed[m - z :], self.a2.tolist(), cube


# the fewest users at which the array form is the faster (measured; README)
_ARRAY_USERS = 60


def _water_fill(ch: ChannelInstance) -> _WaterFill:
    """The multiplier path of ch in the form that is faster at its K."""
    return (_ArrayFill if ch.num_users >= _ARRAY_USERS else _WaterFill)(ch)


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
    """Find the root lambda* of phi.  From Newton's step at 0, grow the
    bracket in the exponent, lambda 2^(2^j) up or down, or by a Newton step
    that falls short of that.  Then, by one rule: while the bracket spans at
    most a factor of 4 in mu = lambda / (p - lambda), with p lo's nearest
    singularity, take Newton's step from either end if it lands strictly
    inside; in every other case take `_midpoint`'s geometric mean in mu.
    Stops on a bracket a few ulps wide, or at an end whose step is a few
    ulps long.  Returns (lambda*, True), or (the largest multiplier known
    to have phi < 0, False) once `budget` evaluations are spent.  Past the
    last pole phi is constant: if still negative there, by rounding only,
    that multiplier counts as reached."""
    if budget < 1:
        return 0.0, False
    f, step, _ = path.phi(0.0)
    if f >= 0.0:
        return 0.0, True
    tiny, last, few = sys.float_info.min, path.last, _FEW_ULPS
    # with no finite step at 0, start midway between tiny and last in exponent
    lam = step if 0.0 < step < math.inf else math.sqrt(tiny) * math.sqrt(last)
    lam, factor = min(max(lam, tiny), last), 2.0
    # phi < 0 at lo and phi >= 0 at hi, evaluated once `bounded`; each end
    # with its step, and lo with its singularity
    lo, f_lo, step_lo, gap = 0.0, f, step, math.inf
    hi, f_hi, step_hi, bounded = last, math.inf, math.nan, False
    while path.evaluations < budget:
        f, step, d = path.phi(lam)
        if f > 0.0:
            hi, f_hi, step_hi, bounded = lam, f, step, True
        elif f == 0.0 or lam >= last:
            return lam, True
        else:
            lo, f_lo, step_lo, gap = lam, f, step, d
        width = hi - lo
        if width <= few * hi or width <= tiny:
            return (lo if -f_lo < f_hi else hi), True
        if abs(step) <= few * lam and lo <= lam + step <= hi:
            return lam, True
        newton = lo + step_lo
        if not lo < newton < hi:
            newton = hi + step_hi  # NaN unless it lands inside
        if not bounded:
            lam = min(lo * factor, last)
            factor *= factor
            if lo < newton < lam:
                lam = newton
        elif lo == 0.0:
            lam = max(hi / factor, tiny)
            factor *= factor
            if lam < newton < hi:
                lam = newton
        else:
            spread, mid = _midpoint(lo, hi, gap)
            if spread <= 4.0 and lo < newton < hi:
                mid = newton
            # a singularity within an ulp of lo rounds the midpoint onto it
            lam = mid if lo < mid < hi else math.nextafter(lo, hi)
    return lo, False


def _midpoint(lo: float, hi: float, gap: float) -> tuple[float, float]:
    """(mu(hi) / mu(lo), the geometric mean of lo and hi in mu), with mu =
    lambda / (p - lambda) and p = lo + gap the singularity above lo: the
    midpoint on the exponents both of lambda and of its distance to p, for
    0 < lo < hi.  hi's distance to p counts as an ulp of p at least, so
    that past p the midpoint falls short of it."""
    mu_lo = lo / gap if gap > 0.0 else 0.0
    if not mu_lo > 0.0:  # no singularity, or one so far that mu is lambda / p
        return hi / lo, math.sqrt(lo) * math.sqrt(hi)
    mu_hi = hi / max(gap - (hi - lo), sys.float_info.epsilon * (lo + gap))
    mu = math.sqrt(mu_lo) * math.sqrt(mu_hi)
    return mu_hi / mu_lo, lo + gap * ((mu - mu_lo) / (1.0 + mu))


def solve_max_sum_rate(ch: ChannelInstance, cfg: SolverConfig | None = None) -> SolverResult:
    """Find the root lambda* of phi along the multiplier path, build gamma
    there, then project onto phi = 0.

    Returns the feasible split maximizing the cognitive sum rate.  With no
    interference path at all (every g_k = 0) phi is 0 at lambda = 0, so the
    path stops there with gamma = 0 after 2 evaluations, one for phi and one
    for gamma, like any instance whose constraint does not bind.
    """
    cfg = cfg or _DEFAULT_CONFIG
    path = _water_fill(ch)
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
    finds it under cfg's budget, or when that is 0 for the least pole > 0,
    (h_k / g_k)^2 / s_p in the path's terms (as `_WaterFill.last`), else for
    max(s_p, sigma_p2) / sigma_p2^2, written max(t, 1) / sigma_p2; either is
    capped at the largest float.  Every
    grid point is evaluated by the prefix rule at once, and a point at an
    event already has that user saturated; the splits are checked once, as
    one (samples, K) array."""
    path = _water_fill(ch)
    if lambda_max is None:
        lam_star, _ = _follow(path, (cfg or _DEFAULT_CONFIG).max_outer_iters - 1)
        if lam_star > 0:
            lambda_max = 1.25 * lam_star
        else:
            with np.errstate(over="ignore"):  # w_k / a_k / a_k / s_p, as `last`
                poles = np.divide(path.wa, path.a) / ch.s_p if ch.s_p > 0.0 else np.zeros(0)
            poles, fallback = poles[poles > 0.0], max(ch.t, 1.0) / ch.sigma_p2
            lambda_max = min(float(poles.min()) if poles.size else fallback, sys.float_info.max)
    if not 0 <= lambda_max < math.inf:
        raise ValueError(f"lambda_max must be nonnegative and finite, got {lambda_max}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grid = np.linspace(0.0, lambda_max, samples)
    x, gamma, saturated = path.states(grid)
    gamma = _splits(gamma, ndim=2)
    return Trajectory(grid, x, gamma, _phi(ch, gamma), saturated)
