"""The primary-rate constraint against a 60-digit decimal referee.

The referee evaluates phi(gamma) = sigma_p2 X^2 - s_p (sigma_p2 + L) in its
textbook form, with X = h_p sqrt(P_p) + sum_k g_k gamma_k sqrt(P_k) and
L = sum_k g_k^2 (1 - gamma_k^2) P_k, in stdlib `decimal` from the exact
values of the float inputs.  sigma_p2 A^2 and s_p sigma_p2 cancel in that
form, so it carries 60 significant digits past the cancellation: its own
error is about 1e-60 of the scale sigma_p2 (S (2 A + S) + t sum_k a_k^2) of
phi's terms, with S = sum_k a_k gamma_k and a_k = g_k sqrt(P_k).  The scale
holds t sum_k a_k^2 rather than the lost power t L: 1 - gamma_k^2 is formed
from gamma_k^2, whose rounding is eps / 2 of gamma_k^2, so a float kernel
cannot resolve L past eps sum_k a_k^2 gamma_k^2.  Every float kernel must lie
within (K + 4) eps of that scale on ROADMAP item 1's extreme fuzz, where the
expanded float form is off by about eps sigma_p2 s_p.
"""

import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cogmac.channel import _phi
from cogmac.solver import _WaterFill, solve_max_sum_rate
from test_channel import coordinate_root

EPS = sys.float_info.epsilon
DIGITS = 60


def referee(ch, gamma):
    """(phi, scale) at the split gamma, as Decimals: phi to DIGITS digits of
    scale = sigma_p2 (S (2 A + S) + t sum_k a_k^2)."""

    def terms(prec):
        with localcontext() as ctx:
            ctx.prec = prec
            sigma, h_p, p_p = Decimal(ch.sigma_p2), Decimal(ch.h_p), Decimal(ch.p_p)
            amp, s_p = h_p * p_p.sqrt(), h_p * h_p * p_p
            users = [tuple(map(Decimal, v)) for v in zip(ch.g.tolist(), ch.p.tolist(), gamma.tolist())]
            relayed = sum(g * y * p.sqrt() for g, p, y in users)
            lost = sum(g * g * p * (1 - y * y) for g, p, y in users)
            interference = sum(g * g * p for g, p, _ in users)
            scale = sigma * relayed * (2 * amp + relayed) + s_p * interference
            return sigma * (amp + relayed) ** 2 - s_p * (sigma + lost), scale, sigma * s_p

    _, scale, cancelled = terms(DIGITS)
    if scale == 0:
        return Decimal(0), scale
    phi, scale, _ = terms(DIGITS + max(0, cancelled.adjusted() - scale.adjusted()))
    return phi, scale


def _bound(ch, scale):
    return (ch.num_users + 4) * Decimal(EPS) * scale


@pytest.fixture(scope="module")
def cases(extreme_suite):
    """Per draw: the instance, a uniform split from a fixed seed, and the
    solver's lambda*."""
    rng = np.random.default_rng(2)
    return [
        (ch, rng.uniform(0.0, 1.0, ch.num_users), solve_max_sum_rate(ch).lambda_star)
        for ch in extreme_suite
    ]


def test_referee_sees_the_cancellation(extreme_suite):
    """The expanded float form misses a split on draw 29 by about
    eps sigma_p2 s_p, far past the bound; the referee does not."""
    ch = extreme_suite[29]
    gamma = np.array([0.2299313993276])
    phi, scale = referee(ch, gamma)
    expanded = ch.sigma_p2 * (ch.primary_amplitude + float(ch.a @ gamma)) ** 2 - ch.s_p * (
        ch.sigma_p2 + float(ch.a2 @ (1.0 - gamma**2))
    )
    assert abs(Decimal(expanded) - phi) > 10**20 * _bound(ch, scale)
    assert abs(Decimal(float(_phi(ch, gamma))) - phi) <= _bound(ch, scale)


def test_phi_at_uniform_splits(cases):
    for i, (ch, gamma, _) in enumerate(cases):
        phi, scale = referee(ch, gamma)
        assert abs(Decimal(float(_phi(ch, gamma))) - phi) <= _bound(ch, scale), i


def test_coordinate_roots(cases):
    """At each root strictly inside (0, 1) the referee's phi stays within
    the bound: the root is as good as the float phi can tell."""
    checked = 0
    for i, (ch, gamma, _) in enumerate(cases):
        for k in range(ch.num_users):
            ok, root = coordinate_root(ch, k, gamma)
            if ok and 0.0 < root < 1.0:
                split = gamma.copy()
                split[k] = root
                phi, scale = referee(ch, split)
                assert abs(phi) <= _bound(ch, scale), (i, k)
                checked += 1
    assert checked >= 100


def test_path_phi_matches_split(cases):
    """_WaterFill.phi at lambda* and at half and twice it equals _phi at
    the end game's gamma before its projection (`_split`) within the bound
    at that split."""
    for i, (ch, _, lam_star) in enumerate(cases):
        path = _WaterFill(ch)
        for lam in (0.5 * lam_star, lam_star, 2.0 * lam_star):
            gamma = np.asarray(path._split(lam)[0])
            _, scale = referee(ch, gamma)
            gap = Decimal(path.phi(lam)[0]) - Decimal(float(_phi(ch, gamma)))
            assert abs(gap) <= _bound(ch, scale), (i, lam)
