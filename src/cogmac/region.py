"""The feasible grid and the two-user capacity region boundary.

`_blocks` projects a uniform grid onto the primary-rate equality, one block
per solved user, from each user's grid on its own axis, and yields each
block's roots and the mask of its kept rows in chunks of at most
`channel.GRID_CHUNK_ROWS` candidate rows.  The grid oracle reduces each
chunk where it is built; `feasible_grid` gathers the kept rows column-major,
one user per column, so that every sum over the few users adds whole
columns.  For each feasible split the two cognitive users see a
plain Gaussian MAC, whose achievable rates form a pentagon.  The region is
the convex hull of the union of these pentagons over the feasible grid.
`region_boundary` sorts the pentagons' dominant-face corners into the
staircase of those no other corner dominates, and draws the hull in one
monotone-chain pass over it, from the origin counterclockwise.  Every
function here works on grids and columns, and imports numpy where it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .channel import (
    GRID_CHUNK_ROWS,
    MAX_GRID_ROWS,
    RESIDUAL_TOL,
    ChannelInstance,
    _capacity,
    _coordinate_roots,
    _excess,
    _mac_power,
    _primary_sums,
    _relative_phi,
    _row_chunks,
)

if TYPE_CHECKING:
    import numpy as np

MAX_GRID_USERS = 3


class UnsupportedSizeError(ValueError):
    """Operation is only defined for a bounded number of users."""


class EmptyGridError(RuntimeError):
    """No grid point of a valid instance passed the feasibility check."""


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """Counterclockwise hull boundary of the two-user region, in bits, as two
    read-only float columns: vertex i is (r1[i], r2[i]).  The arrays passed
    in are kept, not copied, and made read-only.  At 16 B per vertex the
    hull weighs less than the kept rows it is drawn from, which the grid
    builds one chunk at a time: `region_boundary`'s peak memory is set by the
    kept rows and one chunk, not by the candidate grid or the vertices.
    Two boundaries are equal where their points and sample counts are."""

    r1: np.ndarray
    r2: np.ndarray
    samples_used: int

    def __post_init__(self):
        self.r1.setflags(write=False)
        self.r2.setflags(write=False)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.samples_used == other.samples_used and self.points == other.points

    @property
    def points(self) -> list[tuple[float, float]]:
        """The vertices as (r1, r2) tuples of floats."""
        return list(zip(self.r1.tolist(), self.r2.tolist()))

    def max_sum_rate(self) -> float:
        return max((self.r1 + self.r2).tolist())  # builtin max: np.max would propagate a NaN


def _grid(step: float) -> np.ndarray:
    import numpy as np

    n = int(math.ceil(1.0 / step))
    values = np.minimum(np.arange(n + 1) * step, 1.0)
    values[-1] = 1.0
    return values


def _blocks(ch: ChannelInstance, grid_step: float):
    """The feasible grid chunk by chunk, as (axes, keep): axes[j], user j's
    coordinate, broadcasts to keep's shape, and keep marks the rows that
    `feasible_grid` keeps.  In solved user k's block, user j's grid runs
    along axis j and axis k has length 1, so the candidates are the others'
    grid tuples in lexicographic (C) order; axes[k] holds their roots.  Each
    block comes in chunks of whole lines along its first free axis, at most
    `channel.GRID_CHUNK_ROWS` candidate rows each, in order, and a chunk's
    temporaries are dropped before it is yielded: peak memory is set by one
    chunk, not by the grid."""
    if not 0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    import numpy as np

    k = ch.num_users
    if k > MAX_GRID_USERS:
        raise UnsupportedSizeError(
            f"grid walk over the feasible set supports up to {MAX_GRID_USERS} users, got {k}"
        )
    solvable = [j for j, g in enumerate(ch.g_floats) if g > 0.0]
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
    # the first free axis's grid in chunks of whole lines, each line the
    # grid tuples of the free axes after it (the cap leaves no line longer
    # than a chunk)
    lines = max(1, GRID_CHUNK_ROWS // grid.size ** max(k - 2, 0))
    parts = [grid[i : i + lines] for i in range(0, grid.size, lines)]
    kept = 0
    for solved in solvable:
        first = 1 if solved == 0 else 0  # the block's first free axis, where k > 1
        for part in parts:
            # overflow and inf - inf pass silently: such a row's residual, inf
            # or NaN, fails the test, as do the roots outside [0, 1], whose
            # residuals no row needs.  The context closes before the yield,
            # which would otherwise carry it into the caller
            with np.errstate(over="ignore", invalid="ignore"):
                axes = [
                    (part if j == first else grid).reshape([-1 if i == j else 1 for i in range(k)])
                    for j in range(k)
                ]
                axes[solved] = np.zeros([1] * k)  # S' and L at gamma_k = 0
                relayed, lost = _primary_sums(ch, axes)  # broadcast over the chunk
                a_k = ch.a_floats[solved]
                mask, root = _coordinate_roots(ch, a_k, relayed.ravel(), lost.ravel())
                axes[solved] = root.reshape(relayed.shape)
                phi = ch.sigma_p2 * _excess(ch, *_primary_sums(ch, axes))
                keep = mask.reshape(phi.shape) & (_relative_phi(ch, phi) <= RESIDUAL_TOL)
            del relayed, lost, mask, root, phi
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
    The blocks are built one chunk at a time (`_blocks`), and each chunk is
    reduced to its kept rows before the next is built: peak memory is set
    by the kept rows and one chunk, not by the candidate grid.
    """
    import numpy as np

    blocks = [
        np.stack([np.broadcast_to(axis, keep.shape)[keep] for axis in axes])
        for axes, keep in _blocks(ch, grid_step)
    ]
    return np.concatenate(blocks, axis=1).T


def _staircase(ch: ChannelInstance, grid_step: float):
    """The feasible grid's row count, c1max, c2max and, unless either is 0,
    the corners no other corner dominates, r1 descending, as two arrays.
    The grid's rows and c1, c2 and c12 are freed once they are used."""
    import numpy as np

    rows = feasible_grid(ch, grid_step)
    samples = len(rows)
    h2, p = ch.h2_floats, ch.p_floats
    # an SNR past the float range reads inf, and inf - inf NaN, silently
    with np.errstate(over="ignore", invalid="ignore"):
        # one capacity at a time: a power kept for the next one raised peak RSS
        c1, c2 = (_capacity(_mac_power(h2[k], p[k], rows[:, k]) / ch.sigma_c2) for k in (0, 1))
        c12 = _capacity(sum(map(_mac_power, h2, p, rows.T)) / ch.sigma_c2)
        del rows
        c1max, c2max = float(c1.max()), float(c2.max())
        if c1max == 0.0 or c2max == 0.0:
            return samples, c1max, c2max, None, None
        r1 = np.concatenate([c1, c12 - c2])
        r2 = np.concatenate([c12 - c1, c2])
    del c1, c2, c12
    # r1 descending, ties by r2 descending: ascending on both negated, which
    # negates in place and back, bit for bit, rather than copy
    np.negative(r1, out=r1)
    np.negative(r2, out=r2)
    order = np.lexsort((r2, r1))
    np.negative(r1, out=r1)
    np.negative(r2, out=r2)
    r2 = r2[order]
    # kept: r2 above that of every corner with a larger or equal r1
    kept = np.ones(r2.size, dtype=bool)
    kept[1:] = r2[1:] > np.maximum.accumulate(r2)[:-1]
    return samples, c1max, c2max, r1[order[kept]], r2[kept]


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
    of floats once the sorted arrays are freed, and writes each vertex into
    two float columns: whole lists of the staircase, or a Python object per
    vertex, would outweigh the hull.
    """
    if ch.num_users != 2:
        raise UnsupportedSizeError(
            f"region boundary defined for 2 users, got {ch.num_users}"
        )
    import numpy as np

    samples, c1max, c2max, xs, ys = _staircase(ch, grid_step)
    if c1max == 0.0 or c2max == 0.0:
        hull = sorted({(0.0, 0.0), (c1max, 0.0), (0.0, c2max)})
        return RegionBoundary(*map(np.array, zip(*hull)), samples)
    # the hull's two columns, written in place through memoryviews, which
    # read and write Python floats: at most the origin, the intercepts and
    # every corner; n counts the vertices
    hull = np.zeros((2, xs.size + 3))
    hull_r1, hull_r2 = memoryview(hull[0]), memoryview(hull[1])
    hull_r1[1], n = c1max, 2
    ox, oy, ax, ay = 0.0, 0.0, c1max, 0.0  # the last two vertices
    corners = chain.from_iterable(zip(x.tolist(), y.tolist()) for x, y in _row_chunks(xs, ys))
    for x, y in chain(corners, [(0.0, c2max)]):
        # the turn first: most corners make a left one
        while not (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0 and n >= 2:
            n -= 1  # the last vertex made no left turn
            ax, ay = ox, oy
            ox, oy = (hull_r1[n - 2], hull_r2[n - 2]) if n >= 2 else (0.0, 0.0)  # or the origin
        hull_r1[n], hull_r2[n] = x, y
        n += 1
        ox, oy, ax, ay = ax, ay, x, y
    del xs, ys
    return RegionBoundary(hull[0, :n].copy(), hull[1, :n].copy(), samples)
