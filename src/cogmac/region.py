"""The feasible grid and the two-user capacity region boundary.

`_blocks` projects a uniform grid onto the primary-rate equality, one block
per solved user, from each user's grid on its own axis, and yields each
block's roots and the mask of its kept rows.  The grid oracle reduces each
block where it is built; `feasible_grid` gathers the kept rows column-major,
one user per column, so that every sum over the few users adds whole
columns.  For each feasible split the two cognitive users see a
plain Gaussian MAC, whose achievable rates form a pentagon.  The region is
the convex hull of the union of these pentagons over the feasible grid.
`region_boundary` sorts the pentagons' dominant-face corners into the
staircase of those no other corner dominates, and draws the hull in one
monotone-chain pass over it, from the origin counterclockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, starmap
from operator import add

import numpy as np

from .channel import (
    MAX_GRID_ROWS,
    RESIDUAL_TOL,
    ChannelInstance,
    _capacity,
    _coordinate_roots,
    _excess,
    _mac_power,
    _primary_sums,
    _relative_phi,
)

MAX_GRID_USERS = 3


class UnsupportedSizeError(ValueError):
    """Operation is only defined for a bounded number of users."""


class EmptyGridError(RuntimeError):
    """No grid point of a valid instance passed the feasibility check."""


@dataclass(frozen=True)
class RegionBoundary:
    """Counterclockwise hull boundary of the two-user region, in bits."""

    points: list[tuple[float, float]]
    samples_used: int

    def max_sum_rate(self) -> float:
        return max(starmap(add, self.points))  # r1 + r2, with no Python frame per point


def _grid(step: float) -> np.ndarray:
    n = int(math.ceil(1.0 / step))
    values = np.minimum(np.arange(n + 1) * step, 1.0)
    values[-1] = 1.0
    return values


def _blocks(ch: ChannelInstance, grid_step: float):
    """The feasible grid block by block, as (axes, keep): axes[j], user j's
    coordinate, broadcasts to keep's shape, and keep marks the rows that
    `feasible_grid` keeps.  In solved user k's block, user j's grid runs
    along axis j and axis k has length 1, so the candidates are the others'
    grid tuples in lexicographic (C) order; axes[k] holds their roots."""
    if not 0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    k = ch.num_users
    if k > MAX_GRID_USERS:
        raise UnsupportedSizeError(
            f"grid walk over the feasible set supports up to {MAX_GRID_USERS} users, got {k}"
        )
    solvable = np.flatnonzero(ch.g > 0).tolist()
    if not solvable:
        yield [np.zeros(1)] * k, np.ones(1, dtype=bool)
        return
    # counted before anything is built, in floats: inf where 1 / step
    # overflows or the count passes the float range
    inverse = 1.0 / grid_step
    points = math.ceil(inverse) + 1.0 if inverse < math.inf else math.inf
    rows = len(solvable) * math.prod([points] * (k - 1))
    if rows > MAX_GRID_ROWS:
        raise ValueError(
            f"grid_step {grid_step} needs {rows:.3g} grid rows on this {k}-user "
            f"instance, more than {MAX_GRID_ROWS:.0e}; take a larger --grid-step"
        )
    grid = _grid(grid_step) if k > 1 else np.zeros(1)
    kept = 0
    for solved in solvable:
        # overflow and inf - inf pass silently: such a row's residual, inf
        # or NaN, fails the test, as do the roots outside [0, 1], whose
        # residuals no row needs.  The context closes before the yield,
        # which would otherwise carry it into the caller
        with np.errstate(over="ignore", invalid="ignore"):
            axes = [grid.reshape([-1 if i == j else 1 for i in range(k)]) for j in range(k)]
            axes[solved] = np.zeros([1] * k)  # S' and L at gamma_k = 0
            relayed, lost = _primary_sums(ch, axes)  # broadcast over the block
            mask, root = _coordinate_roots(ch, ch.a.item(solved), relayed.ravel(), lost.ravel())
            axes[solved] = root.reshape(relayed.shape)
            phi = ch.sigma_p2 * _excess(ch, *_primary_sums(ch, axes))
            keep = mask.reshape(phi.shape) & (_relative_phi(ch, phi) <= RESIDUAL_TOL)
        kept += np.count_nonzero(keep)
        yield axes, keep
    if not kept:
        raise EmptyGridError(
            f"no feasible split on the step-{grid_step} grid of this {k}-user "
            "instance despite nonzero interference"
        )


def feasible_grid(ch: ChannelInstance, grid_step: float) -> np.ndarray:
    """Grid points projected onto the feasible set, as a column-major (n, K)
    array.

    For each user k with g_k > 0, in index order, the other coordinates run
    over the grid in lexicographic order and gamma_k is solved from the
    feasibility quadratic.  The rows are the points whose root lies in
    [0, 1] and whose relative residual is at most `channel.RESIDUAL_TOL`,
    the residual at which the solver reports `Converged`, block by solved
    user, in that order.
    There are (number of such users) * points^(K - 1) candidate rows, with
    points = ceil(1 / step) + 1, and only the grid they use is built: a
    one-user instance has the one row gamma = 0 before its root, whatever
    the step.  A step that asks for more than `MAX_GRID_ROWS` candidate
    rows raises ValueError before anything is allocated.
    With no interference path at all every split is feasible and each rate
    falls as any gamma_k grows, so the one row gamma = 0 dominates the rest
    and stands for them.  Raises EmptyGridError if no row is left despite
    interference.
    """
    blocks = [
        np.stack([np.broadcast_to(axis, keep.shape)[keep] for axis in axes])
        for axes, keep in _blocks(ch, grid_step)
    ]
    return np.concatenate(blocks, axis=1).T


def _staircase(ch: ChannelInstance, grid_step: float):
    """The feasible grid's row count, c1max, c2max and, unless either is 0,
    the corners no other corner dominates, r1 descending, as two arrays."""
    rows = feasible_grid(ch, grid_step)
    h2, p = ch.h2.tolist(), ch.p.tolist()
    # an SNR past the float range reads inf, and inf - inf NaN, silently
    with np.errstate(over="ignore", invalid="ignore"):
        # one capacity at a time: a power kept for the next one raised peak RSS
        c1, c2 = (_capacity(_mac_power(h2[k], p[k], rows[:, k]) / ch.sigma_c2) for k in (0, 1))
        c12 = _capacity(sum(map(_mac_power, h2, p, rows.T)) / ch.sigma_c2)
        c1max, c2max = float(c1.max()), float(c2.max())
        if c1max == 0.0 or c2max == 0.0:
            return len(rows), c1max, c2max, None, None
        r1 = np.concatenate([c1, c12 - c2])
        r2 = np.concatenate([c12 - c1, c2])
    order = np.lexsort((-r2, -r1))  # r1 descending, ties by r2 descending
    r1, r2 = r1[order], r2[order]
    # kept: r2 above that of every corner with a larger or equal r1
    kept = np.ones(r2.size, dtype=bool)
    kept[1:] = r2[1:] > np.maximum.accumulate(r2)[:-1]
    return len(rows), c1max, c2max, r1[kept], r2[kept]


def region_boundary(ch: ChannelInstance, grid_step: float) -> RegionBoundary:
    """Hull boundary of the union of rate pentagons over the feasible set.

    The pentagon with bounds c1, c2, c12 is the down-closure of its corners
    (c1, c12 - c1) and (c12 - c2, c2), so the hull is that of the origin,
    the two axis intercepts and the corners no other corner dominates.
    Those corners, sorted by r1, form a staircase: r1 strictly falls as r2
    strictly rises, from (c1max, .) to (., c2max).  So the hull is one
    monotone chain that starts at the origin, goes to (c1max, 0), climbs the
    staircase with left turns kept and ends at (0, c2max); a corner on an
    axis replaces the intercept it repeats, and the turn back to the origin
    is always a left one.  With c1max or c2max zero the region is a segment
    on an axis, or the origin alone.  The walk reads the staircase in slices
    of floats once the sorted arrays are freed: whole lists would outweigh
    the hull.
    """
    if ch.num_users != 2:
        raise UnsupportedSizeError(
            f"region boundary defined for 2 users, got {ch.num_users}"
        )
    samples, c1max, c2max, xs, ys = _staircase(ch, grid_step)
    if c1max == 0.0 or c2max == 0.0:
        points = sorted({(0.0, 0.0), (c1max, 0.0), (0.0, c2max)})
        return RegionBoundary(points=points, samples_used=samples)
    hull = [(0.0, 0.0), (c1max, 0.0)]
    ox, oy, ax, ay = 0.0, 0.0, c1max, 0.0  # hull[-2] and hull[-1]
    corners = chain.from_iterable(
        zip(xs[i : i + 4096].tolist(), ys[i : i + 4096].tolist()) for i in range(0, xs.size, 4096)
    )
    for x, y in chain(corners, [(0.0, c2max)]):
        while len(hull) >= 2 and not (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
            hull.pop()  # hull[-1] made no left turn
            ax, ay = ox, oy
            ox, oy = hull[-2] if len(hull) >= 2 else hull[0]
        hull.append((x, y))
        ox, oy, ax, ay = ax, ay, x, y
    return RegionBoundary(points=hull, samples_used=samples)
