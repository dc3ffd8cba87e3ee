"""Metamorphic relations of the solver, which check it at any K, where the
grid oracle (K <= 3) cannot: each changes an instance in a way whose effect
on the answer is known, solves both and compares.

- Units: multiplying every power, P_k and P_p, and both noise levels by the
  same power of 4 changes no ratio the answer depends on, and each sqrt(P)
  by a power of 2, so gamma*, the rate, the status and the path
  evaluations stay bit for bit the same.
- Order: reversing the users reverses gamma* and leaves the rate; the sums
  over the users then add in another order, so both agree to rounding.
- A silent user: a user with g = 0 relays nothing and interferes with
  nothing, so it is left at gamma = 0 and every other user's gamma stays
  bit for bit the same.
- A dropped user: a feasible split of the instance without user k, with
  gamma_k = 1 added, is a feasible split of the full instance at the same
  sum rate, since user k then relays all its power, which only helps the
  primary, and sends nothing of its own.  So the smaller instance's best
  rate is at most the full one's, and the reported rates keep that order
  with no tolerance.  This runs on the instances with 2 to 50 users, each
  user dropped in turn.

Each runs on the seeded suites at K = 1..3 and K = 10..200 and on the wide
suite.
"""

import pytest

from cogmac import ChannelInstance, solve_max_sum_rate
from cogmac.oracle import instance_suite

SUITES = [
    pytest.param(lambda: instance_suite(1, 450), id="seeded-k1-3"),
    pytest.param(lambda: instance_suite(0, 60, sizes=(10, 20, 50, 100, 200)), id="seeded-k10-200"),
    pytest.param(None, id="wide"),
]


@pytest.fixture(params=SUITES)
def suite(request, wide_suite):
    return request.param() if request.param else wide_suite


def _changed(ch: ChannelInstance, **fields) -> ChannelInstance:
    return ChannelInstance(**(ch.as_dict() | fields))


def _scaled(ch: ChannelInstance, factor: float) -> ChannelInstance:
    """ch with P_k, P_p, sigma_p2 and sigma_c2 times factor."""
    fields = ch.as_dict()
    return _changed(
        ch,
        p=[v * factor for v in fields["p"]],
        p_p=fields["p_p"] * factor,
        sigma_p2=fields["sigma_p2"] * factor,
        sigma_c2=fields["sigma_c2"] * factor,
    )


def _outcome(result):
    gamma = [v.hex() for v in result.gamma_star.gamma_floats]
    return gamma, result.sum_rate.hex(), result.status, result.outer_iterations


@pytest.mark.parametrize("factor", [4.0, 0.25, 4.0**40, 4.0**-40], ids=["4", "1/4", "4^40", "4^-40"])
def test_units(suite, factor):
    for ch in suite:
        assert _outcome(solve_max_sum_rate(_scaled(ch, factor))) == _outcome(solve_max_sum_rate(ch))


def test_order(suite):
    for ch in suite:
        fields = ch.as_dict()
        reversed_ch = _changed(ch, h=fields["h"][::-1], g=fields["g"][::-1], p=fields["p"][::-1])
        result, reversed_result = solve_max_sum_rate(ch), solve_max_sum_rate(reversed_ch)
        assert reversed_result.status is result.status
        assert reversed_result.outer_iterations == result.outer_iterations
        assert reversed_result.sum_rate == pytest.approx(result.sum_rate, rel=1e-15, abs=0.0)
        back = reversed_result.gamma_star.gamma_floats[::-1]
        assert back == pytest.approx(result.gamma_star.gamma_floats, rel=0.0, abs=1e-13)


def test_silent_user(suite):
    for ch in suite:
        fields = ch.as_dict()
        silent = _changed(ch, h=[*fields["h"], 1.0], g=[*fields["g"], 0.0], p=[*fields["p"], 1.0])
        gamma = solve_max_sum_rate(silent).gamma_star.gamma_floats
        assert gamma[-1] == 0.0
        expected = solve_max_sum_rate(ch).gamma_star.gamma_floats
        assert [v.hex() for v in gamma[:-1]] == [v.hex() for v in expected]


def test_dropped_user(suite):
    for ch in suite:
        if not 2 <= ch.num_users <= 50:
            continue
        fields, rate = ch.as_dict(), solve_max_sum_rate(ch).sum_rate
        for k in range(ch.num_users):
            dropped = {name: fields[name][:k] + fields[name][k + 1 :] for name in ("h", "g", "p")}
            assert solve_max_sum_rate(_changed(ch, **dropped)).sum_rate <= rate, k
