"""Output checks for the benchmark, computed apart from cogmac's own formulas.

Each function returns a list of problems; an empty list means the output
passed.  Rates are recomputed here from the paper's formulas in a few lines
of numpy instead of through ``cogmac.channel``, so that a fault in the
channel layer cannot hide itself.  The KKT check and the grid oracle come
from ``cogmac.oracle``, which never calls the solver.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from cogmac import oracle

AGREEMENT_TOL_BITS = 1e-3  # default of `cogmac validate --agreement-tol`
REGION_SLACK_BITS = 1e-9
RESIDUAL_TOL = 1e-10  # SolverConfig().residual_tol, the solver's default
ORACLE_STEP = {1: 1e-3, 2: 1e-3, 3: 1e-2}
PROJECTION_SCALES = (0.3, 0.03, 3e-3, 3e-4)
PROJECTIONS = 64


def _bits(snr: float) -> float:
    return 0.5 * math.log1p(snr) / math.log(2.0)


def primary_rate_bits(ch, gamma) -> float:
    """R_p = 1/2 log2(1 + (h_p sqrt(P_p) + sum g_k gamma_k sqrt(P_k))^2
    / (sigma_p^2 + sum g_k^2 (1 - gamma_k^2) P_k))."""
    signal = ch.h_p * math.sqrt(ch.p_p) + float(np.dot(ch.g * np.sqrt(ch.p), gamma))
    noise = ch.sigma_p2 + float(np.dot(ch.g**2 * ch.p, 1.0 - gamma**2))
    return _bits(signal**2 / noise)


def baseline_rate_bits(ch) -> float:
    return _bits(ch.h_p**2 * ch.p_p / ch.sigma_p2)


def sum_rate_bits(ch, gamma) -> np.ndarray:
    """Cognitive sum rate for one split or for each row of a (n, K) array."""
    snr = (1.0 - np.asarray(gamma) ** 2) @ (ch.h**2 * ch.p) / ch.sigma_c2
    return 0.5 * np.log1p(snr) / math.log(2.0)


def _phi(ch, gamma: np.ndarray) -> np.ndarray:
    """Cross-multiplied rate-preservation residual for each row of gamma."""
    s_p = ch.h_p**2 * ch.p_p
    signal = ch.h_p * math.sqrt(ch.p_p) + gamma @ (ch.g * np.sqrt(ch.p))
    noise = ch.sigma_p2 + (1.0 - gamma**2) @ (ch.g**2 * ch.p)
    return ch.sigma_p2 * signal**2 - s_p * noise


def _phi_scale(ch) -> float:
    s_p = ch.h_p**2 * ch.p_p
    return max(s_p * float(np.sum(ch.g**2 * ch.p)), ch.sigma_p2 * s_p)


def primary_rate_tol_bits(ch, gamma) -> float:
    """Largest primary-rate gap that a relative residual of RESIDUAL_TOL allows.

    With N the primary noise at gamma, the SNR gap is phi / (sigma_p^2 N), so
    |R - R_base| <= 1/(2 ln 2) |phi| / (N (sigma_p^2 + h_p^2 P_p)); 1 % and
    1e-14 bits are added for rounding.
    """
    noise = ch.sigma_p2 + float(np.dot(ch.g**2 * ch.p, 1.0 - gamma**2))
    phi_max = RESIDUAL_TOL * _phi_scale(ch)
    return 1.01 * phi_max / (2.0 * math.log(2.0) * noise * (ch.sigma_p2 + ch.h_p**2 * ch.p_p)) + 1e-14


def single_user_gamma(ch) -> tuple[float, float]:
    """For K = 1: the root in [0, 1] of (s + A^2) x^2 y^2 + 2 s A x y - A^2 x^2
    = 0, with A = h_p sqrt(P_p), x = g_1 sqrt(P_1), s = sigma_p^2, written
    without cancellation; and the distance from it that a relative residual
    of RESIDUAL_TOL allows, |phi| / phi'(y), plus 1 % for rounding."""
    amp = ch.h_p * math.sqrt(ch.p_p)
    x = ch.g[0] * math.sqrt(ch.p[0])
    s = ch.sigma_p2
    root = amp * x / (s + math.sqrt(s * s + (s + amp * amp) * x * x))
    slope = 2.0 * s * x * (amp + x * root) + 2.0 * amp**2 * x**2 * root
    return root, 1.01 * RESIDUAL_TOL * _phi_scale(ch) / slope


def project(ch, rows: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Solve the rate-preservation equality for gamma[users[i]] in row i,
    the other coordinates fixed; return the feasible rows only."""
    n = rows.shape[0]
    idx = np.arange(n)
    amp = ch.h_p * math.sqrt(ch.p_p)
    s, s_p = ch.sigma_p2, ch.h_p**2 * ch.p_p
    rest = rows.copy()
    rest[idx, users] = 0.0
    b = amp + rest @ (ch.g * np.sqrt(ch.p))
    c = s + (1.0 - rest**2) @ (ch.g**2 * ch.p) - ch.g[users] ** 2 * ch.p[users]
    x = ch.g[users] * np.sqrt(ch.p[users])
    # (s + s_p) x^2 y^2 + 2 s b x y + s b^2 - s_p (c + x^2) = 0
    disc = (s + s_p) * (c + x * x) - s * b * b
    ok = (disc >= 0.0) & (x > 0.0)
    root = (-s * b + amp * np.sqrt(np.where(ok, disc, 0.0))) / np.where(ok, (s + s_p) * x, 1.0)
    ok &= (root >= 0.0) & (root <= 1.0)
    rest[idx, users] = root
    feasible = rest[ok]
    keep = np.abs(_phi(ch, feasible)) <= 1e-9 * _phi_scale(ch)
    return feasible[keep]


def check_solve(ch, result, rng: np.random.Generator) -> list[str]:
    """Checks of one converged `solve_max_sum_rate` result."""
    problems = []
    gamma = np.asarray(result.gamma_star.gamma, dtype=float)
    k = ch.num_users
    if gamma.shape != (k,) or not np.all((gamma >= 0.0) & (gamma <= 1.0)):
        return [f"gamma outside [0, 1]: {gamma}"]
    base = baseline_rate_bits(ch)
    achieved = primary_rate_bits(ch, gamma)
    if abs(achieved - base) > primary_rate_tol_bits(ch, gamma):
        problems.append(f"primary rate {achieved!r} != baseline {base!r}")
    own = float(sum_rate_bits(ch, gamma))
    if not math.isclose(own, result.sum_rate, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"sum rate {result.sum_rate!r} != recomputed {own!r}")
    if not oracle.kkt_check(ch, result).passed:
        problems.append("kkt_check failed")
    if k == 1 and ch.g[0] > 0:
        root, tol = single_user_gamma(ch)
        if abs(gamma[0] - root) > tol:
            problems.append(f"gamma {gamma[0]!r} != single-user root {root!r}")
    if k <= 3:
        best = oracle.grid_search(ch, ORACLE_STEP[k]).best_sum_rate
        if abs(best - result.sum_rate) > AGREEMENT_TOL_BITS:
            problems.append(f"grid oracle {best!r} vs solver {result.sum_rate!r}")
    else:
        movable = np.flatnonzero(ch.g > 0)
        scales = np.resize(PROJECTION_SCALES, PROJECTIONS)[:, None]
        rows = np.clip(gamma + scales * rng.standard_normal((PROJECTIONS, k)), 0.0, 1.0)
        users = np.resize(rng.permutation(movable), PROJECTIONS)
        feasible = project(ch, rows, users)
        if feasible.size:
            best = float(np.max(sum_rate_bits(ch, feasible)))
            if best > result.sum_rate + AGREEMENT_TOL_BITS:
                problems.append(f"projected split {best!r} beats solver {result.sum_rate!r}")
    return problems


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def check_hull(points: list[tuple[float, float]], solver_sum_rate: float) -> list[str]:
    """The region boundary is a counter-clockwise convex polygon that holds
    (0, 0), and its best r1 + r2 brackets the solver's sum rate."""
    n = len(points)
    if n < 3:
        return [f"hull has {n} points"]
    problems = []
    turns = [_cross(points[i], points[(i + 1) % n], points[(i + 2) % n]) for i in range(n)]
    span = max(max(abs(r1), abs(r2)) for r1, r2 in points)
    if min(turns) < -1e-11 * max(span, 1.0) ** 2:
        problems.append(f"hull not convex counter-clockwise (turn {min(turns)!r})")
    if any(_cross(points[i], points[(i + 1) % n], (0.0, 0.0)) < -1e-12 for i in range(n)):
        problems.append("hull does not contain (0, 0)")
    best = max(r1 + r2 for r1, r2 in points)
    if best > solver_sum_rate + REGION_SLACK_BITS:
        problems.append(f"hull sum rate {best!r} above solver {solver_sum_rate!r}")
    if best < solver_sum_rate - AGREEMENT_TOL_BITS:
        problems.append(f"hull sum rate {best!r} below solver {solver_sum_rate!r}")
    return problems


def read_hull(path) -> list[tuple[float, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["r1_bits", "r2_bits"]:
        raise ValueError(f"unexpected region header {rows[0]}")
    return [(float(r1), float(r2)) for r1, r2 in rows[1:]]


def check_validate(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        verdict = json.load(fh)["verdict"]
    return [] if verdict == "pass" else [f"validate verdict {verdict!r}"]


def check_sweep(path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    first, last = float(rows[0]["phi"]), float(rows[-1]["phi"])
    problems = []
    if not first < 0.0:
        problems.append(f"sweep starts at phi {first!r} >= 0")
    if not last >= 0.0:
        problems.append(f"sweep ends at phi {last!r} < 0")
    return problems
