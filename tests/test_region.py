import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogmac import (
    ChannelInstance,
    PowerSplit,
    UnsupportedSizeError,
    baseline_primary_rate,
    grid_search,
    instance_suite,
    primary_rate,
    region_boundary,
    relative_residual,
    solve_max_sum_rate,
)
from cogmac import region
from cogmac.channel import _capacity, _mac_snr
from cogmac.region import feasible_grid
from conftest import convex_hull, hull_contains, pentagon_vertices
from test_channel import make_instance


def rate_bounds(ch, split):
    """c1, c2, c12 at one split, from the channel kernel region_boundary uses."""
    return tuple(
        _capacity(float(_mac_snr(ch, split.gamma, users)))
        for users in ([0], [1], slice(None))
    )


class TestPolytope:
    def test_full_cooperation_all_zero(self, k2_reference):
        assert rate_bounds(k2_reference, PowerSplit.ones(2)) == (0.0, 0.0, 0.0)

    def test_direct_evaluation(self):
        ch = ChannelInstance(
            h=[1.0, 1.0], g=[0.1, 0.1], p=[1.0, 1.0], h_p=1.0, p_p=1.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )
        c1, c2, c12 = rate_bounds(ch, PowerSplit.zeros(2))
        assert c1 == pytest.approx(0.5, abs=1e-14)
        assert c2 == pytest.approx(0.5, abs=1e-14)
        assert c12 == pytest.approx(0.5 * math.log2(3.0), abs=1e-14)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_and_subadditive(self, seed):
        """0 <= c12 - c1 <= c2 and 0 <= c12 - c2 <= c1: each pentagon is the
        down-closure of its two dominant-face corners."""
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 2)
        c1, c2, c12 = rate_bounds(ch, PowerSplit(rng.uniform(0, 1, 2)))
        assert 0.0 <= c12 - c1 <= c2 + 1e-12
        assert 0.0 <= c12 - c2 <= c1 + 1e-12


class TestPentagon:
    def test_dominant_face_vertices(self, k2_no_interference):
        # every split is feasible and gamma = 0 gives the largest pentagon,
        # so the region is that pentagon: c1 = c2 = 1/2, c12 = log2(3) / 2
        c12 = 0.5 * math.log2(3.0)
        points = region_boundary(k2_no_interference, 0.5).points
        assert (0.5, c12 - 0.5) in points
        assert (c12 - 0.5, 0.5) in points
        assert len(points) == 5


class TestFeasibleGrid:
    def test_no_interference_is_one_zero_row(self, k2_no_interference):
        rows = feasible_grid(k2_no_interference, 0.5)
        assert rows.shape == (1, 2)
        assert np.all(rows == 0.0)

    def test_single_user_single_point(self, unit_k1):
        rows = feasible_grid(unit_k1, 0.1)
        assert rows.shape == (1, 1)
        assert rows[0, 0] == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-12)

    def test_all_rows_preserve_primary_rate(self, k2_reference):
        rows = feasible_grid(k2_reference, 0.05)
        assert len(rows)
        base = baseline_primary_rate(k2_reference)
        for split in map(PowerSplit, rows):
            assert relative_residual(k2_reference, split) <= 1e-9
            assert abs(primary_rate(k2_reference, split) - base) <= 1e-6

    def test_column_major(self, k2_reference):
        """One user per column, so that every sum over the users adds whole
        columns."""
        for ch in (k2_reference, *instance_suite(1, 2, sizes=(3,))):
            assert feasible_grid(ch, 0.05).flags.f_contiguous

    def test_empty_despite_interference_raises(self, k2_reference, monkeypatch):
        monkeypatch.setattr(region, "RESIDUAL_TOL", -1.0)
        with pytest.raises(RuntimeError, match="2-user"):
            region_boundary(k2_reference, 0.05)
        with pytest.raises(RuntimeError, match="2-user"):
            grid_search(k2_reference, 0.05)


class TestConvexHull:
    def test_hull_of_one_pentagon_is_that_pentagon(self):
        c1, c2, c12 = 1.0, 1.0, 1.5
        verts = [(0.0, 0.0), (c1, 0.0), (c1, c12 - c1), (c12 - c2, c2), (0.0, c2)]
        hull = convex_hull(verts)
        assert sorted(hull) == sorted(verts)

    def test_counterclockwise(self):
        hull = convex_hull([(0, 0), (2, 0), (2, 1), (0, 1), (1, 0.5)])
        for i in range(len(hull)):
            o, a, b = hull[i], hull[(i + 1) % len(hull)], hull[(i + 2) % len(hull)]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0


def hull_of_every_pentagon(ch, gammas):
    """The hull over the origin and all five corners of the pentagon at
    every split: the construction the non-dominated corners replace."""
    vertices = [(0.0, 0.0)]
    for pentagon in pentagon_vertices(ch, gammas):
        vertices.extend(pentagon)
    return convex_hull(vertices)


class TestRegionBoundary:
    def test_contains_origin_and_intercepts(self, k2_reference):
        boundary = region_boundary(k2_reference, 0.05)
        assert (0.0, 0.0) in boundary.points
        xs = [p for p in boundary.points if p[1] == 0.0 and p[0] > 0]
        ys = [p for p in boundary.points if p[0] == 0.0 and p[1] > 0]
        assert xs and ys

    def test_convex_chain(self, k2_reference):
        pts = region_boundary(k2_reference, 0.05).points
        for i in range(len(pts)):
            o, a, b = pts[i], pts[(i + 1) % len(pts)], pts[(i + 2) % len(pts)]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross >= -1e-12

    def test_contains_every_pentagon_vertex(self, k2_reference):
        boundary = region_boundary(k2_reference, 0.05)
        rows = feasible_grid(k2_reference, 0.05)
        for pentagon in pentagon_vertices(k2_reference, rows):
            for vert in pentagon:
                assert hull_contains(boundary.points, vert, tol=1e-12)

    def test_equals_hull_of_every_pentagon(self, k2_reference):
        for ch in [k2_reference, *instance_suite(5, 30, sizes=(2,))]:
            assert region_boundary(ch, 1e-2).points == hull_of_every_pentagon(
                ch, feasible_grid(ch, 1e-2)
            )

    def test_equals_hull_of_every_pentagon_on_wide_suite(self, wide_suite):
        two_user = [ch for ch in wide_suite if ch.num_users == 2]
        assert two_user
        for ch in two_user:
            assert region_boundary(ch, 1e-2).points == hull_of_every_pentagon(
                ch, feasible_grid(ch, 1e-2)
            )

    def test_equals_hull_of_every_pentagon_at_benchmark_step(self, k2_reference, wide_suite):
        two_user = [ch for ch in wide_suite if ch.num_users == 2]
        for ch in [k2_reference, *two_user]:
            assert region_boundary(ch, 1e-3).points == hull_of_every_pentagon(
                ch, feasible_grid(ch, 1e-3)
            )

    @pytest.mark.parametrize("h", [(0.0, 0.8), (1.0, 0.0), (0.0, 0.0)])
    def test_equals_hull_of_every_pentagon_on_an_axis(self, h):
        # a user with h_k = 0 has no rate: the region is a segment on the
        # other user's axis, or the origin alone
        ch = ChannelInstance(
            h=h, g=[0.4, 0.2], p=[5.0, 5.0], h_p=1.0, p_p=10.0, sigma_p2=1.0, sigma_c2=1.0
        )
        points = region_boundary(ch, 0.05).points
        assert points == hull_of_every_pentagon(ch, feasible_grid(ch, 0.05))
        assert len(points) == 2 - (h == (0.0, 0.0))

    def test_no_interference_equals_hull_over_full_grid(self, k2_no_interference):
        # every split is feasible; the hull over all of them is that of the
        # gamma = 0 pentagon, the one row feasible_grid keeps
        grid = [0.0, 0.5, 1.0]
        every_split = np.array([(a, b) for a in grid for b in grid])
        boundary = region_boundary(k2_no_interference, 0.5)
        assert boundary.points == hull_of_every_pentagon(k2_no_interference, every_split)
        assert boundary.samples_used == 1

    def test_refinement_never_shrinks(self, k2_reference):
        coarse = region_boundary(k2_reference, 0.1)
        fine = region_boundary(k2_reference, 0.05)
        for vert in coarse.points:
            assert hull_contains(fine.points, vert, tol=1e-9)

    def test_sum_rate_face_touches_solver_optimum(self, k2_reference):
        boundary = region_boundary(k2_reference, 1e-3)
        result = solve_max_sum_rate(k2_reference)
        assert abs(boundary.max_sum_rate() - result.sum_rate) <= 5e-3

    def test_requires_two_users(self, unit_k1):
        with pytest.raises(UnsupportedSizeError):
            region_boundary(unit_k1, 0.1)
