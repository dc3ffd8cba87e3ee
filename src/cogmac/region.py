"""The feasible grid and the two-user capacity region boundary.

`feasible_grid` projects a uniform grid onto the primary-rate equality; the
grid oracle searches the same array.  It is built, filtered and returned
column-major, one user per column, so that every sum over the few users
adds whole columns.  For each feasible split the two cognitive users see a
plain Gaussian MAC, whose achievable rates form a pentagon.  The region is
the convex hull of the union of these pentagons over the feasible grid.
`region_boundary` sorts the pentagons' dominant-face corners into the
staircase of those no other corner dominates, and draws the hull in one
monotone-chain pass over it, from the origin counterclockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    RESIDUAL_TOL,
    ChannelInstance,
    _capacity,
    _coordinate_roots,
    _mac_snr,
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
        return max(r1 + r2 for r1, r2 in self.points)


def _grid(step: float) -> np.ndarray:
    n = int(math.ceil(1.0 / step))
    values = np.minimum(np.arange(n + 1) * step, 1.0)
    values[-1] = 1.0
    return values


def feasible_grid(ch: ChannelInstance, grid_step: float) -> np.ndarray:
    """Grid points projected onto the feasible set, as a column-major (n, K)
    array.

    For each user k with g_k > 0, in index order, the other coordinates run
    over the grid in lexicographic order and gamma_k is solved from the
    feasibility quadratic.  The rows are the points whose root lies in
    [0, 1] and whose relative residual is at most `channel.RESIDUAL_TOL`,
    the solver's default tolerance, block by solved user, in that order.
    With no interference path at all every split is feasible and each rate
    falls as any gamma_k grows, so the one row gamma = 0 dominates the rest
    and stands for them.  Raises EmptyGridError if no row is left despite
    interference.
    """
    if not 0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    k = ch.num_users
    if k > MAX_GRID_USERS:
        raise UnsupportedSizeError(
            f"grid walk over the feasible set supports up to {MAX_GRID_USERS} users, got {k}"
        )
    solvable = np.flatnonzero(ch.g > 0)
    if solvable.size == 0:
        return np.zeros((1, k))
    grid = _grid(grid_step)
    blocks = []
    for solved in solvable:
        # the (K, n) transpose, C-ordered: every grid tuple of the others, in
        # lexicographic order, with grid[0] in the solved row, which the
        # quadratic ignores; compress keeps it C-ordered, where a boolean
        # index would not
        shape = [1 if j == solved else grid.size for j in range(k)]
        cols = grid[np.indices(shape).reshape(k, -1)]
        mask, root = _coordinate_roots(ch, solved, cols.T)
        cols = np.compress(mask, cols, axis=1)
        cols[solved] = root[mask]
        keep = _relative_phi(ch, cols.T) <= RESIDUAL_TOL
        blocks.append(np.compress(keep, cols, axis=1))
    grid = np.concatenate(blocks, axis=1).T
    if len(grid) == 0:
        raise EmptyGridError(
            f"no feasible split on the step-{grid_step} grid of this {k}-user "
            "instance despite nonzero interference"
        )
    return grid


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
    on an axis, or the origin alone.
    """
    if ch.num_users != 2:
        raise UnsupportedSizeError(
            f"region boundary defined for 2 users, got {ch.num_users}"
        )
    rows = feasible_grid(ch, grid_step)
    c1, c2, c12 = (_capacity(_mac_snr(ch, rows, users)) for users in ([0], [1], slice(None)))
    c1max, c2max = float(c1.max()), float(c2.max())
    if c1max == 0.0 or c2max == 0.0:
        points = sorted({(0.0, 0.0), (c1max, 0.0), (0.0, c2max)})
        return RegionBoundary(points=points, samples_used=len(rows))
    r1 = np.concatenate([c1, c12 - c2])
    r2 = np.concatenate([c12 - c1, c2])
    order = np.lexsort((-r2, -r1))  # r1 descending, ties by r2 descending
    r1, r2 = r1[order], r2[order]
    # kept: r2 above that of every corner with a larger or equal r1
    kept = np.ones(r2.size, dtype=bool)
    kept[1:] = r2[1:] > np.maximum.accumulate(r2)[:-1]
    staircase = zip(r1[kept].tolist(), r2[kept].tolist())
    hull = [(0.0, 0.0)]
    for x, y in ((c1max, 0.0), *staircase, (0.0, c2max)):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:  # a left turn
                break
            hull.pop()
        hull.append((x, y))
    return RegionBoundary(points=hull, samples_used=len(rows))
