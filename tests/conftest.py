import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cogmac import ChannelInstance

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# documented seed for every randomized suite in the tests
SUITE_SEED = 20260824


@pytest.fixture
def unit_k1():
    """Single user, everything 1: feasible ratio is (sqrt(3)-1)/2."""
    return ChannelInstance(
        h=[1.0], g=[1.0], p=[1.0], h_p=1.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0
    )


@pytest.fixture
def k2_reference():
    """Two-user instance used throughout: h=(1,.8), g=(.4,.2), P=(5,5)."""
    return ChannelInstance(
        h=[1.0, 0.8],
        g=[0.4, 0.2],
        p=[5.0, 5.0],
        h_p=1.0,
        p_p=10.0,
        sigma_p2=1.0,
        sigma_c2=1.0,
    )


@pytest.fixture
def k2_no_interference():
    return ChannelInstance(
        h=[1.0, 1.0], g=[0.0, 0.0], p=[1.0, 1.0], h_p=1.0, p_p=1.0,
        sigma_p2=1.0, sigma_c2=1.0,
    )


@pytest.fixture(scope="session")
def wide_suite():
    """The benchmark's seed-7 suite of 300 instances whose gains, powers and
    noise levels span many decades (`benchmarks/workloads.py`)."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.append(str(BENCHMARKS))
    from workloads import wide_suite

    return wide_suite()


def extreme_fuzz(seed: int = 11, count: int = 400) -> list[ChannelInstance]:
    """ROADMAP item 1's extreme fuzz.  Per draw: K = integers(1, 6); h and g,
    K values each, log-uniform over 1e-60..1e60; p over 1e-20..1e20; then
    h_p, p_p, sigma_p2 and sigma_c2, each over 1e-20..1e20."""
    rng = np.random.default_rng(seed)

    def log_uniform(decades, size=None):
        return 10.0 ** rng.uniform(-decades, decades, size)

    draws = []
    for _ in range(count):
        k = int(rng.integers(1, 6))
        h, g, p = log_uniform(60, k), log_uniform(60, k), log_uniform(20, k)
        h_p, p_p, sigma_p2, sigma_c2 = (log_uniform(20) for _ in range(4))
        draws.append(ChannelInstance(
            h=h, g=g, p=p, h_p=h_p, p_p=p_p, sigma_p2=sigma_p2, sigma_c2=sigma_c2
        ))
    return draws


def limit_fuzz(seed: int = 5, count: int = 600) -> list[ChannelInstance]:
    """ROADMAP item 8's limit fuzz.  Per draw: K = integers(1, 6); h, g and p,
    K values each, then h_p, p_p, sigma_p2 and sigma_c2, each log-uniform
    over 1e-150..1e150.  Draws that `ChannelInstance` rejects are skipped
    until `count` are kept."""
    rng = np.random.default_rng(seed)

    def log_uniform(size=None):
        return 10.0 ** rng.uniform(-150, 150, size)

    draws = []
    while len(draws) < count:
        k = int(rng.integers(1, 6))
        h, g, p = log_uniform(k), log_uniform(k), log_uniform(k)
        h_p, p_p, sigma_p2, sigma_c2 = (log_uniform() for _ in range(4))
        try:
            draws.append(ChannelInstance(
                h=h, g=g, p=p, h_p=h_p, p_p=p_p, sigma_p2=sigma_p2, sigma_c2=sigma_c2
            ))
        except ValueError:
            pass
    return draws


@pytest.fixture(scope="session")
def extreme_suite():
    """`extreme_fuzz()`, built once per session."""
    return extreme_fuzz()


def pentagon_vertices(ch, gammas):
    """The five corners of the two-user rate pentagon at each split (a row
    of gammas), from the origin counterclockwise, with the bounds written out:
    c_T = 0.5 log2(1 + sum over k in T of (1 - gamma_k^2) h_k^2 P_k / sigma_c2)."""
    pentagons = []
    for gamma in gammas:
        r = [
            (1.0 - g * g) * (h * h) * p
            for g, h, p in zip(gamma.tolist(), ch.h.tolist(), ch.p.tolist())
        ]
        c1, c2, c12 = (
            0.5 * math.log2(1.0 + snr)
            for snr in (r[0] / ch.sigma_c2, r[1] / ch.sigma_c2, (r[0] + r[1]) / ch.sigma_c2)
        )
        pentagons.append([(0.0, 0.0), (c1, 0.0), (c1, c12 - c1), (c12 - c2, c2), (0.0, c2)])
    return pentagons


def convex_hull(points):
    """Monotone-chain 2-D convex hull of any point set, counterclockwise from
    the lowest-leftmost point, collinear points dropped: the independent
    reference for `region_boundary`'s one pass over its staircase."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_contains(hull, point, tol=1e-12):
    """Point-in-convex-polygon test against a counterclockwise hull."""
    if len(hull) == 1:
        return abs(point[0] - hull[0][0]) <= tol and abs(point[1] - hull[0][1]) <= tol
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        px, py = point
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if abs(cross) > tol:
            return False
        dot = (px - x1) * (x2 - x1) + (py - y1) * (y2 - y1)
        return -tol <= dot <= (x2 - x1) ** 2 + (y2 - y1) ** 2 + tol
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        if (x2 - x1) * (point[1] - y1) - (y2 - y1) * (point[0] - x1) < -tol:
            return False
    return True


def bisect_root(func, lo, hi, iters=200):
    """Plain bisection; independent oracle for root-finding assertions."""
    f_lo = func(lo)
    f_hi = func(hi)
    assert f_lo * f_hi <= 0, "no sign change in bracket"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if func(mid) * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, func(mid)
    return 0.5 * (lo + hi)
