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
path evaluations: it grows a bracket in the exponent, taking Newton's step
on a form of phi without the pole of X (`_WaterFill.phi`) wherever it lands
inside.  Then one rule picks each next multiplier: hi's step wherever it
lands strictly inside; while the bracket spans at most a factor of 4, lo's
step or the continuation pass below; otherwise the midpoint on the
exponents of lambda and of its distance to the nearest pole.  Once the
rules have taken as many steps as plain bisection in the exponent would
need to close the bracket, every step is that bisection, so a solve makes
at most a stated number of evaluations, 248 over the whole float range
(`_follow`), and reaches lambda* within it.  A step that
crosses a saturation of lo's segment lands where more users are saturated,
on a segment that may have no step of its own (all saturated, say); there
lo's segment formula, continued past its saturation by the same sums over
lo's users (`_continue`), gives the step back.

The end game reads the path's fixed point at lambda* once (`_split`): it
builds gamma there, with the terms of S and of the lost power L per user.
It projects gamma's coordinates onto phi = 0 until one lands (`_project`),
each from S' and L at gamma_k = 0 by the channel's coordinate root, and
scores phi from the same terms, by `_excess`, and its relative residual;
the rate is the channel's `sum_rate` of the split.  Past the per-user terms
this is O(1) Python floats, with no numpy call per coordinate, and gamma
reaches `PowerSplit` as a list, which it checks in Python floats.
`sweep_trajectory` applies the prefix rule to a lambda grid a chunk of
rows at a time (`_states`), from the instance's terms alone, and returns
the path as columns.

One evaluation costs O(K) per-user work (c_k, the sort, the prefix test and
the sums; a continuation skips the sort and the prefix test) and O(1)
scalar work (phi, Newton's step, the singularity), and the end game the
per-user work of `_split` once.  The per-user work has two forms, picked
once per instance from K alone: Python lists below `channel._ARRAY_USERS`
users (`_WaterFill`), numpy arrays from there (`_ArrayFill`), which, like
`sweep_trajectory`, imports numpy where it runs; the instance holds its
floats in the container each form reads without a copy, a tuple or an
`array('d')`, by the same threshold.  Overflow passes silently in both
forms: in Python floats by itself, in the arrays under one `np.errstate`
each for `_hold`, the whole root find (`root`) and `_split`, so a solve
sets numpy's float state three times however many evaluations it makes.
A sweep sets it once, around all of its array work, however many chunks
it takes.  Each numpy call costs a microsecond or more however short the
array (7 to 15 where a solve starts with cold caches; README), so the
array form is slower at small K and faster at large K; the two cross near
K = 56.
Both give the same floats: every elementwise operation rounds alike, the
sorts are stable, every sum, norm and maximum is the same builtin over the
same floats in the same order, and the running sums add in order
(itertools.accumulate in one form, np.cumsum in the other).  The split's
terms are summed as the channel sums them, so the reported residual is
`relative_residual` at the split, bit for bit, at any K.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, truediv
from typing import TYPE_CHECKING

from .channel import (
    _ARRAY_USERS,
    GRID_CHUNK_ROWS,
    MAX_GRID_ROWS,
    RESIDUAL_TOL,
    ChannelInstance,
    PowerSplit,
    SATURATED_GAMMA,
    _coordinate_roots,
    _excess,
    _lost,
    _phi,
    _relative_phi,
    _relayed,
    sum_rate,
)


if TYPE_CHECKING:
    import numpy as np

# a step or a bracket this short, relative to the multiplier, ends the root find
_FEW_ULPS = 4.0 * sys.float_info.epsilon


class SolverStatus(enum.Enum):
    """How a solve ended.  Every root find reaches lambda* within its stated
    worst case (`_follow`), so the status reads the split there alone:
    `Converged` where its relative residual is at most
    `channel.RESIDUAL_TOL`, `MaxItersExceeded` where it is above.  That
    value keeps its old name, which every report prints, though no
    iteration budget is left to exceed."""

    CONVERGED = "Converged"
    MAX_ITERS_EXCEEDED = "MaxItersExceeded"


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
    over the users a_k > 0 kept in their last order of c_k.  c_k = w_k /
    a_k - lambda s_p a_k, with w_k = h_k^2 P_k, so no (h_k / g_k)^2 leaves
    the float range; `last` is the last pole, max_k w_k / a_k / a_k / s_p,
    within the normal floats.
    `evaluations` counts the calls of phi and `_split`: each is one pass
    over the users, a fixed point (`_prefix`) or a continuation
    (`_continue`), except a `_split` that reads the last fixed point again.

    This is the list form: its per-user work, `_hold`, `_prefix`,
    `_continue` and `_split`, runs on Python floats, which overflow to inf
    without a warning, and whose sort (Timsort) re-sorts the last order in
    about one pass.  `_ArrayFill` does the same work in numpy arrays;
    everything else is shared.  This form sets no numpy float state."""

    def __init__(self, ch: ChannelInstance):
        self.ch = ch
        top = self._hold(ch)
        pole = top / ch.s_p if ch.s_p > 0.0 else 0.0
        self.last = min(max(pole, sys.float_info.min), sys.float_info.max)
        self.amp, self.sigma_p2 = ch.primary_amplitude, ch.sigma_p2
        self.s_p, self.t_p = ch.s_p, ch.t
        # C = sqrt(t_p (sigma_p2 + sum_k a_k^2)), phi's constant term as a signal
        self.level = math.sqrt(ch.t * (ch.sigma_p2 + ch.interference))
        self.evaluations = 0
        self._last = math.nan, None  # the last multiplier evaluated, and its fixed point

    def root(self) -> float:
        """lambda*, the root of phi on this path (`_follow`)."""
        return _follow(self)

    def _hold(self, ch: ChannelInstance) -> float:
        """Keep ids, a, a2 and wa = w / a over the users with a_k > 0
        (g_k > 0, unless g_k sqrt(P_k) underflows), the columns that follow
        the order of c_k; return max_k wa_k / a_k."""
        a, a2, h2, p = ch.a_floats, ch.a2_floats, ch.h2_floats, ch.p_floats
        ids = self.ids = [k for k, a_k in enumerate(a) if a_k > 0.0]
        self.a, self.a2 = [a[k] for k in ids], [a2[k] for k in ids]
        self.wa, self.identity = [h2[k] * p[k] / a[k] for k in ids], list(range(len(ids)))
        return max(map(truediv, self.wa, self.a), default=0.0)

    def _prefix(self, lam: float):
        """Re-sort the columns by c_k at lam and find the m saturated users,
        who lead them: s_m, Q_m, m, c, a and wa in the columns' order, a_k /
        c_k over the interior users and a_k^2 over all, as lists, and sum_I
        (a_k / c_k)^3."""
        ls, r, amp = lam * self.s_p, lam * self.sigma_p2, self.amp
        c = [w - ls * a for w, a in zip(self.wa, self.a)]
        n = len(c)
        if n > 1:  # one user is sorted, and itemgetter(k) returns no tuple
            order = sorted(self.identity, key=c.__getitem__)
            if order != self.identity:
                get = itemgetter(*order)
                lists = c, self.ids, self.a, self.a2, self.wa
                c, self.ids, self.a, self.a2, self.wa = map(get, lists)
        # users at or past their pole lead, and most evaluations have none (z
        # = 0) and saturate none (m = z): no slice is copied then
        a, z = self.a, bisect_right(c, 0.0)
        ratio = list(map(truediv, a[z:], c[z:]) if z else map(truediv, a, c))
        # s_m = sum_{i<m} a_i and Q_m, summed in the order of `_states`'
        # cumulative sums; Q_j past z is q[n - j], suffix sums listed only once
        # a user past z saturates
        m, s_m, q_m, q = z, sum(a[:z]) if z else 0.0, sum(reversed(ratio)), None
        while m < n and r * (amp + s_m) >= c[m] * (1.0 - r * q_m):
            if q is None:
                q = list(accumulate(reversed(ratio), initial=0.0))
            s_m += a[m]
            m += 1
            q_m = q[n - m]
        if m > z:
            ratio = ratio[m - z :]
        return s_m, q_m, m, c, a, self.wa, ratio, self.a2, sum([v * v * v for v in ratio])

    def _continue(self, lam: float, point: tuple):
        """`_prefix`'s sums at lam for the segment of a point that
        `_fixed_point` returned at another multiplier: that segment's
        formula continued to lam, over the point's columns in their order
        and with its m, which leaves the path's columns as they are.  With
        no interior user once c_k <= 0 for one of them or r Q >= 1 (at or
        past a pole)."""
        _, m, _, a, wa, _, _, a2, _ = point
        ls, r, s_m = lam * self.s_p, lam * self.sigma_p2, sum(a[:m])
        c = [w - ls * a_k for w, a_k in zip(wa, a)]
        if all(c_k > 0.0 for c_k in c[m:]):
            ratio = list(map(truediv, a[m:], c[m:]))
            q_m = sum(reversed(ratio))
            if r * q_m < 1.0:
                return s_m, q_m, m, c, a, wa, ratio, a2, sum([v * v * v for v in ratio])
        return s_m, 0.0, m, c, a, wa, [], a2, 0.0

    def _fixed_point(self, lam: float, segment=None):
        """The point at lam: S, the number m of saturated users, who lead
        the columns, c_k, a_k and wa_k in their order, a_k / c_k and their
        sum Q over the interior users, a_k^2 in the columns' order and
        sum_I (a_k / c_k)^3.  At the multiplier evaluated last, as `_split`
        at the root usually is, the same point again.  With `segment`, a
        point of another multiplier, the same from that point's segment
        formula continued to lam (`_continue`), which is not kept."""
        self.evaluations += 1
        if segment is None:
            if lam == self._last[0]:
                return self._last[1]
            s_m, q_m, m, c, a, wa, ratio, a2, cube = self._prefix(lam)
        else:
            s_m, q_m, m, c, a, wa, ratio, a2, cube = self._continue(lam, segment)
        r = lam * self.sigma_p2
        # r = 0 relays nothing, even where a_k / c_k is past the largest float,
        # nor does Q = 0 (no interior user, or each a_k / c_k underflowed),
        # even where r A is
        s = (s_m + self.amp * r * q_m) / (1.0 - r * q_m) if r > 0.0 and q_m > 0.0 else s_m
        point = s, m, c, a, wa, ratio, q_m, a2, cube
        if segment is None:
            self._last = lam, point
        return point

    def phi(self, lam: float, segment=None) -> tuple[float, float, float]:
        """phi at lam by the module's phi(lambda), and from the same sums
        what the root find needs: Newton's step from lam and the distance
        from lam to the nearest singularity of the segment's formula.  With
        `segment`, a point of another multiplier, the same for that point's
        segment formula continued to lam, with a NaN step at or past a pole:
        past the segment's next saturation this is no longer the path's phi,
        but its step still leads back toward lambda*.

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
        s, m, c, a, _, ratio, q, a2, cube = self._fixed_point(lam, segment)
        sigma_p2, s_p, t_p = self.sigma_p2, self.s_p, self.t_p
        x, r = self.amp + s, lam * sigma_p2
        # sum_I a_k^2 gamma_k^2 = (t |a_k / c_k|)^2, t = r X; with hypot, no
        # NaN from t^2 underflowing to 0 while sum (a_k / c_k)^2 overflows,
        # nor at lambda = 0 from 0 times a norm past the largest float, nor
        # at a norm of 0 from a t past it times 0
        norm = math.hypot(*ratio)
        relay_norm = r * x * norm if r > 0.0 and norm > 0.0 else 0.0
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
            if not (lam + step) * sigma_p2 * y < float(c[m]) - step * s_p * float(a[m]):
                step = math.nan
        if grow > near:
            near = grow
        return phi, step, 1.0 / near if near > 0.0 else math.inf

    def _split(self, lam: float):
        """The end game's columns at lam, from the path's fixed point.

        Four lists: gamma in index order, 1 on the saturated users, t / c_k
        from the path's own c_k capped at 1 on the others, and 0 where a_k =
        0; the users with a_k > 0 in the order `_project` tries them:
        interior before saturated, each group by steepest slope a_k (X + t_p
        a_k gamma_k), half of d phi / d gamma_k over sigma_p2, a NaN slope
        last, ties in index order; and each user's terms of phi by the
        channel's formulas, in index order: a_k gamma_k and a_k^2 u_k."""
        s, m, c, *_ = self._fixed_point(lam)
        x = self.amp + s
        t = lam * self.sigma_p2 * x
        ch, t_p, ids = self.ch, self.t_p, self.ids
        gamma = [0.0] * ch.num_users
        for k, g in zip(ids, [1.0] * m + [t / c_k for c_k in c[m:]]):
            gamma[k] = 1.0 if 1.0 < g else g  # min(g, 1.0), NaN kept
        a, a2 = ch.a_floats, ch.a2_floats
        # minus each slope, at most 0, and a NaN slope read as +inf: a stable
        # sort of users in index order by it is steepest first, ties in index
        # order, NaN last
        slopes = [a_k * (x + t_p * a_k * g) for a_k, g in zip(a, gamma)]
        steep = [-v if v >= 0.0 else math.inf for v in slopes].__getitem__
        candidates = sorted(sorted(ids[m:]), key=steep) + sorted(sorted(ids[:m]), key=steep)
        return gamma, candidates, list(map(_relayed, a, gamma)), list(map(_lost, a2, gamma))


class _ArrayFill(_WaterFill):
    """`_WaterFill` with `_hold`, `_prefix` and `_split` in numpy arrays,
    bit for bit the same (see the module docstring).
    Overflow and inf - inf pass silently, as in Python floats: `root` and
    `_split`, which make every call of `_prefix`, each run under one
    `np.errstate`, as `_hold` does."""

    def _hold(self, ch: ChannelInstance) -> float:
        import numpy as np

        self.users = np.flatnonzero(ch.a > 0)
        self.a_k, a2 = ch.a[self.users], ch.a2[self.users]
        with np.errstate(over="ignore"):
            wa = ch.h2[self.users] * ch.p[self.users] / self.a_k
            top = float(np.max(wa / self.a_k, initial=0.0))
        # the columns as one (4, K) array, re-sorted by one take; the ids ride
        # along as floats, exact up to 2^53
        self.cols = np.array([self.a_k, a2, wa, self.users], dtype=float)
        self.a, self.a2, self.wa, self.ids = self.cols
        return top

    def root(self) -> float:
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            return _follow(self)

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
        ratio = a[z:] / c[z:] if z else a / c
        listed = ratio.tolist()
        m, s_m, q_m, q = z, sum(a[:z].tolist()) if z else 0.0, sum(reversed(listed)), None
        while m < n and r * (amp + s_m) >= c.item(m) * (1.0 - r * q_m):
            if q is None:  # q[i]: the last i + 1 of a_k / c_k, summed from the end
                q = ratio[::-1].cumsum()
            s_m += a.item(m)
            m += 1
            q_m = q.item(n - m - 1) if m < n else 0.0
        if m > z:
            ratio, listed = ratio[m - z :], listed[m - z :]
        cube = sum((ratio * ratio * ratio).tolist())  # v * v * v, as the list form
        return s_m, q_m, m, c, a, self.wa, listed, self.a2.tolist(), cube

    def _continue(self, lam: float, point: tuple):
        # the list form's, on the point's columns as lists: it is rare
        s, m, c, a, wa, *rest = point
        return super()._continue(lam, (s, m, c, a.tolist(), wa.tolist(), *rest))

    def _split(self, lam: float):
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            s, m, c, *_ = self._fixed_point(lam)
            x = self.amp + s
            t = lam * self.sigma_p2 * x
            ch, users, ids = self.ch, self.users, self.ids.astype(np.intp)
            gamma = np.zeros(ch.num_users)
            gamma[ids[:m]] = 1.0
            gamma[ids[m:]] = np.minimum(t / c[m:], 1.0)
            saturated = np.zeros(ch.num_users, dtype=bool)
            saturated[ids[:m]] = True
            slope = self.a_k * (x + self.t_p * self.a_k * gamma[users])
            # lexsort is stable and puts a NaN last, as the list form's key
            candidates = users[np.lexsort((-slope, saturated[users]))]
            relay, lost = _relayed(ch.a, gamma), _lost(ch.a2, gamma)
            return gamma.tolist(), candidates.tolist(), relay.tolist(), lost.tolist()


def _water_fill(ch: ChannelInstance) -> _WaterFill:
    """The multiplier path of ch in the form that is faster at its K."""
    return (_ArrayFill if ch.num_users >= _ARRAY_USERS else _WaterFill)(ch)


def _project(path: _WaterFill, gamma, candidates: list, relay: list, lost: list):
    """Project `_split`'s gamma onto phi = 0 one coordinate at a time, in
    place, with its terms of phi, reading each user's a_k and a_k^2 from
    the instance's floats, in Python floats in either form.

    Each of `candidates` in turn is set to its root clipped to [0, 1], if
    finite; the first root in [0, 1] before clipping ends the walk (one that
    rounding put just outside does not land once clipped).  phi increases in
    every such gamma_k, so one that cannot land alone still moves phi toward
    0: a relay with h_k = 0 released to 0 lets the next one land.  Each root
    comes from S' and L at gamma_k = 0, summed in index order, as
    `_primary_sums` sums them.
    """
    ch = path.ch
    a, a2 = ch.a_floats, ch.a2_floats
    for k in candidates:
        held = relay[k], lost[k]
        relay[k], lost[k] = _relayed(a[k], 0.0), _lost(a2[k], 0.0)
        ok, root = _coordinate_roots(ch, a[k], sum(relay), sum(lost), slack=0.0)
        if math.isfinite(root):  # NaN once phi's terms overflow
            gamma[k], held = root, (_relayed(a[k], root), _lost(a2[k], root))
        relay[k], lost[k] = held
        if ok:
            return


def _follow(path: _WaterFill) -> float:
    """Find the root lambda* of phi.  From Newton's step at 0, grow the
    bracket in the exponent, lambda 2^(2^j) up or down, or by lo's Newton
    step wherever it lands inside.  Then take hi's Newton step wherever it
    lands strictly inside; while the bracket spans at most a factor of 4
    in mu = lambda / (p - lambda), p lo's nearest singularity, lo's step if
    it lands strictly inside, the float just above lo where hi's lands
    exactly on lo, or, where hi is a Newton step past a saturation of lo's
    segment, that formula's step continued to hi (one more pass) if it
    lands inside; otherwise `_midpoint`'s geometric mean in mu.  Stops at
    an end whose step is a few ulps long, or on a bracket a few ulps wide.
    Past the last pole phi is constant: if still negative there, by
    rounding only, or NaN, that multiplier is lambda*: while the bracket is
    unbounded, hi is the last pole, so that multiplier becomes lo and the
    width stop returns it.

    The worst case is stated, not budgeted.  `_halvings` counts the
    geometric bisections in lambda that close a bracket to the few-ulps
    stop: k for [tiny, last], n for the first bracket bounded with lo > 0.
    While the bracket grows, Newton's step is taken in the first k - 1
    steps at most; the factor is inf by the eleventh, so a later step of
    the exponent lands on tiny or on last and ends the growth.  Then the
    rules above pick n - 1 steps at most, and each step after those is the
    geometric mean of lo and hi, strictly inside the bracket, which halves
    ln(hi / lo) up to its rounding, at most 1.5 epsilon a step and so 3
    epsilon in all: n + 3 such steps close any bracket the rules left.  A
    solve so makes at most max(k, 11) + 3 n + 4 path evaluations: phi at 0
    and at the first multiplier, max(k, 11) growth steps, n - 1 rule steps
    with at most one continuation pass each, n + 3 bisections and
    `_split`'s pass.  k and n are at most 61 over the normal floats, so no
    solve makes more than 248."""
    f, step, _ = path.phi(0.0)
    if f >= 0.0:
        return 0.0
    tiny, last, few = sys.float_info.min, path.last, _FEW_ULPS
    # with no finite step at 0, start midway between tiny and last in exponent;
    # the growth factor squares at each step
    lam = step if 0.0 < step < math.inf else math.sqrt(tiny) * math.sqrt(last)
    lam, factor = min(max(lam, tiny), last), 2.0
    # phi < 0 at lo and phi >= 0 at hi, evaluated once `bounded`; each end
    # with its step, lo with its singularity and its point, and hi with
    # whether it is the Newton step aimed at; the steps left before the
    # bisection, counted from [tiny, last] while `growing`
    lo, f_lo, step_lo, gap, point = 0.0, f, step, math.inf, path._last[1]
    hi, f_hi, step_hi, bounded = last, math.inf, math.nan, False
    newton, left, growing = step, _halvings(tiny, last), True
    while True:
        f, step, d = path.phi(lam)
        if f > 0.0:
            hi, f_hi, step_hi, bounded, stepped = lam, f, step, True, lam == newton
        elif f == 0.0:
            return lam
        else:
            lo, f_lo, step_lo, gap, point = lam, f, step, d, path._last[1]
        if abs(step) <= few * lam and lo <= lam + step <= hi:
            return lam
        width = hi - lo
        if width <= few * hi or width <= tiny:
            return lo if -f_lo < f_hi else hi
        newton = lo + step_lo
        if not lo < newton < hi:
            newton = hi + step_hi  # NaN unless it lands inside
            if newton == lo:  # lambda* lies within an ulp above lo
                newton = math.nextafter(lo, hi)
        left -= 1
        if growing and bounded and lo > 0.0:  # count this bracket's own halvings
            left, growing = _halvings(lo, hi) - 1, False
        if not bounded:
            lam = newton if lo < newton < hi and left > 0 else min(lo * factor, last)
        elif lo == 0.0:
            lam = max(hi / factor, tiny)
            if lam < newton < hi and left > 0:
                lam = newton
        elif left <= 0:  # inside the bracket, as it spans more than a few ulps
            lam = _midpoint(lo, hi, math.inf)[1]
        elif lo < hi + step_hi < hi:  # at any width
            lam = newton = hi + step_hi
        else:
            spread, mid = _midpoint(lo, hi, gap)
            if spread <= 4.0:
                if lo < newton < hi:
                    mid = newton
                # hi, just evaluated, is a Newton step past a saturation of
                # lo's segment: step back by lo's formula continued to hi
                elif stepped and path._last[1][1] > point[1]:
                    step_hi = path.phi(hi, point)[1]
                    newton = hi + step_hi
                    if lo < newton < hi:
                        mid = newton
            # a singularity within an ulp of lo rounds the midpoint onto it
            lam = mid if lo < mid < hi else math.nextafter(lo, hi)
        factor *= factor


def _halvings(lo: float, hi: float) -> int:
    """The geometric bisections in lambda that close [lo, hi], 0 < lo <= hi,
    to the few-ulps stop, at least 0: ceil(log2(ln(hi / lo) / `_FEW_ULPS`)),
    with hi / lo as the square of sqrt(hi) / sqrt(lo), which cannot
    overflow.  The stop holds once ln(hi / lo) <= -ln(1 - `_FEW_ULPS`),
    which is more than `_FEW_ULPS`."""
    span = 2.0 * math.log(math.sqrt(hi) / math.sqrt(lo))
    return math.ceil(math.log2(span / _FEW_ULPS)) if span > _FEW_ULPS else 0


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


def solve_max_sum_rate(ch: ChannelInstance) -> SolverResult:
    """Find the root lambda* of phi along the multiplier path, build gamma
    there, project it onto phi = 0 and score phi from the path's own fixed
    point, and the rate by `sum_rate` (see the module docstring).

    Returns the feasible split maximizing the cognitive sum rate, reported
    `Converged` where the split's relative residual is at most
    `channel.RESIDUAL_TOL` and `MaxItersExceeded` where it is above
    (`SolverStatus`).  With no interference path at all (every
    g_k = 0) phi is 0 at lambda = 0, so the path stops there with gamma = 0
    after 2 evaluations, one for phi and one for gamma, like any instance
    whose constraint does not bind.
    """
    path = _water_fill(ch)
    lam = path.root()
    gamma, candidates, relay, lost = path._split(lam)
    _project(path, gamma, candidates, relay, lost)
    split = PowerSplit(gamma)
    # phi and its relative residual from the projection's own terms, summed
    # in index order: channel's `relative_residual`
    residual = _relative_phi(ch, ch.sigma_p2 * _excess(ch, sum(relay), sum(lost)))
    converged = residual <= RESIDUAL_TOL
    return SolverResult(
        gamma_star=split,
        sum_rate=sum_rate(ch, split),
        lambda_star=lam,
        residual=residual,
        outer_iterations=path.evaluations,
        active_set_changes=len([g for g in split.gamma_floats if g >= SATURATED_GAMMA]),
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


def sweep_trajectory(ch: ChannelInstance, lambda_max: float | None, samples: int) -> Trajectory:
    """Evaluate the path on an even lambda grid over [0, lambda_max], with
    lambda_max = -0 read as 0.

    lambda_max None stands for 1.25 lambda*, found as `solve_max_sum_rate`
    finds it, or when that is 0 for the least pole > 0, (h_k / g_k)^2 / s_p
    in the path's terms (as `_WaterFill.last`), else for max(s_p, sigma_p2)
    / sigma_p2^2, written max(t, 1) / sigma_p2; each is capped at the
    largest float; only then is a path built.  Every sweep takes one loop:
    the grid points are evaluated by the prefix rule in array operations
    (`_states`), in chunks of at most `channel.GRID_CHUNK_ROWS` path values
    (multipliers x K), so that peak memory is set by the output and one
    chunk; a point at an event already has that user saturated.  All of it
    runs under one `np.errstate`.  Each row of gamma lies in [0, 1] by the
    rule, or holds a NaN where the path's terms pass the float range, and
    so does phi then; where phi is not finite, FloatingPointError names the
    first such multiplier, once every chunk is evaluated.  gamma
    is read-only, as a split's is.  The arguments are checked before
    anything is solved or allocated: the (samples, K) gamma may hold at most
    `channel.MAX_GRID_ROWS` values, the feasible grid's cap."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if samples * ch.num_users > MAX_GRID_ROWS:
        raise ValueError(
            f"samples {samples} on this {ch.num_users}-user instance ask for more than "
            f"{MAX_GRID_ROWS:.0e} path values; take a smaller --samples"
        )
    if lambda_max is not None and not 0 <= lambda_max < math.inf:
        raise ValueError(f"lambda_max must be nonnegative and finite, got {lambda_max}")
    import numpy as np

    # overflow to inf, and 0 * inf in the rows that r = 0 skips, pass
    # silently, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        if lambda_max is None:
            path = _water_fill(ch)
            lambda_max = 1.25 * path.root()
            if lambda_max == 0.0:  # w_k / a_k / a_k / s_p, as `last`
                poles = np.divide(path.wa, path.a) / ch.s_p if ch.s_p > 0.0 else np.zeros(0)
                poles, fallback = poles[poles > 0.0], max(ch.t, 1.0) / ch.sigma_p2
                lambda_max = float(poles.min()) if poles.size else fallback
            lambda_max = min(lambda_max, sys.float_info.max)
        grid = np.linspace(0.0, lambda_max + 0.0, samples)  # -0 + 0 = 0
        # filled chunk by chunk: peak memory is the output's and one chunk's
        x, phi = np.empty(samples), np.empty(samples)
        gamma = np.empty((samples, ch.num_users))
        saturated = np.empty(gamma.shape, dtype=bool)
        chunk = max(1, GRID_CHUNK_ROWS // ch.num_users)  # multipliers of K path values each
        for start in range(0, samples, chunk):
            rows = slice(start, start + chunk)
            x[rows], gamma[rows], saturated[rows] = _states(ch, grid[rows])
            phi[rows] = _phi(ch, gamma[rows])
    overflow = ~np.isfinite(phi)  # as is every row of gamma that holds a NaN
    if overflow.any():
        at = grid[overflow.argmax()]
        raise FloatingPointError(f"the path passes the float range at lambda = {at:.12g}")
    gamma.setflags(write=False)
    return Trajectory(grid, x, gamma, phi, saturated)


def _states(ch: ChannelInstance, lam: np.ndarray):
    """X (n,), gamma (n, K) and the saturated flags (n, K) at each of n
    multipliers, one row each: `_WaterFill._split`'s gamma, from the same
    prefix rule in array operations on the instance's terms.  Overflow
    passes silently under the caller's `np.errstate`, as in Python floats."""
    import numpy as np

    users = np.flatnonzero(ch.a > 0)
    n, k, a_k, amp = lam.size, users.size, ch.a[users], ch.primary_amplitude
    ls, r = lam[:, None] * ch.s_p, lam[:, None] * ch.sigma_p2
    c = ch.h2[users] * ch.p[users] / a_k - ls * a_k  # wa_k as `wa`, in user order
    order = np.argsort(c, axis=1, kind="stable")
    c_s = np.take_along_axis(c, order, axis=1)
    a_s = a_k[order]
    big_s = np.cumsum(np.column_stack([np.zeros(n), a_s]), axis=1)
    ratio = np.divide(a_s, c_s, out=np.zeros_like(c_s), where=c_s > 0.0)
    q = np.column_stack([np.cumsum(ratio[:, ::-1], axis=1)[:, ::-1], np.zeros(n)])
    prefix = (c_s <= 0.0) | (r * (amp + big_s[:, :k]) >= c_s * (1.0 - r * q[:, :k]))
    m = np.argmin(np.column_stack([prefix, np.zeros(n, dtype=bool)]), axis=1)
    rows, r = np.arange(n), r[:, 0]
    s_m, q_m = big_s[rows, m], q[rows, m]
    relayed = (s_m + amp * r * q_m) / (1.0 - r * q_m)
    x = amp + np.where((r > 0.0) & (q_m > 0.0), relayed, s_m)  # as `_fixed_point`
    pinned = np.argsort(order, axis=1) < m[:, None]  # rank below m
    interior = np.divide((r * x)[:, None], c, out=np.ones_like(c), where=~pinned)
    gamma = np.zeros((n, ch.num_users))
    saturated = np.zeros(gamma.shape, dtype=bool)
    gamma[:, users], saturated[:, users] = np.minimum(interior, 1.0), pinned
    return x, gamma, saturated
