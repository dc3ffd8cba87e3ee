"""The feasible grid and the two-user capacity region boundary.

`feasible_grid` projects a uniform grid onto the primary-rate equality; the
grid oracle searches the same array.  For each feasible split the two
cognitive users see a plain Gaussian MAC, whose achievable rates form a
pentagon.  The region is the convex hull of the union of these pentagons
over the feasible grid, which for two users is a 1-D curve swept by
coordinate solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelInstance,
    _capacity,
    _coordinate_roots,
    _mac_snr,
    _relative_phi,
)

MAX_GRID_USERS = 3

# relative residual a projected grid point must meet to count as feasible
SAMPLE_RESIDUAL_TOL = 1e-9


class UnsupportedSizeError(ValueError):
    """Operation is only defined for a bounded number of users."""


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
    """Grid points projected onto the feasible set, as an (n, K) array.

    For each user k with g_k > 0, in index order, the other coordinates run
    over the grid in lexicographic order and gamma_k is solved from the
    feasibility quadratic.  The rows are the points whose root lies in
    [0, 1] and whose relative residual is at most SAMPLE_RESIDUAL_TOL, block
    by solved user, in that order.  With no interference path at all every
    split is feasible and each rate falls as any gamma_k grows, so the one
    row gamma = 0 dominates the rest and stands for them.
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
        # every grid tuple of the others, in lexicographic order; the solved
        # column, which the quadratic ignores, holds grid[0].  Column-major,
        # so that the sums over the users add whole columns
        shape = [1 if j == solved else grid.size for j in range(k)]
        rows = grid[np.indices(shape).reshape(k, -1)].T
        mask, root = _coordinate_roots(ch, solved, rows)
        rows = rows[mask]
        rows[:, solved] = root[mask]
        blocks.append(rows[_relative_phi(ch, rows) <= SAMPLE_RESIDUAL_TOL])
    grid = np.concatenate(blocks)
    if len(grid) == 0:
        raise RuntimeError(
            f"no feasible split on the step-{grid_step} grid of this {k}-user "
            "instance despite nonzero interference"
        )
    return grid


def convex_hull(points) -> list[tuple[float, float]]:
    """Monotone-chain 2-D convex hull, counterclockwise, collinear dropped."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def region_boundary(ch: ChannelInstance, grid_step: float) -> RegionBoundary:
    """Hull boundary of the union of rate pentagons over the feasible set.

    The pentagon with bounds c1, c2, c12 is the down-closure of its corners
    (c1, c12 - c1) and (c12 - c2, c2), so the hull is that of the origin,
    the two axis intercepts and the corners no other corner dominates.
    """
    if ch.num_users != 2:
        raise UnsupportedSizeError(
            f"region boundary defined for 2 users, got {ch.num_users}"
        )
    rows = feasible_grid(ch, grid_step)
    c1, c2, c12 = (
        np.array([_capacity(snr) for snr in _mac_snr(ch, rows, users).tolist()])
        for users in ([0], [1], slice(None))
    )
    r1 = np.concatenate([c1, c12 - c2])
    r2 = np.concatenate([c12 - c1, c2])
    order = np.lexsort((-r2, -r1))  # r1 descending, ties by r2 descending
    r1, r2 = r1[order], r2[order]
    # kept: r2 above that of every corner with a larger or equal r1
    kept = np.ones(r2.size, dtype=bool)
    kept[1:] = r2[1:] > np.maximum.accumulate(r2)[:-1]
    corners = zip(r1[kept].tolist(), r2[kept].tolist())
    axes = [(0.0, 0.0), (c1.max(), 0.0), (0.0, c2.max())]
    hull = convex_hull([*axes, *corners])
    return RegionBoundary(points=hull, samples_used=len(rows))
