import dataclasses
import math
from decimal import Decimal, getcontext
from types import SimpleNamespace

import numpy as np
import pytest

from cogmac import (
    ChannelInstance,
    PowerSplit,
    SolverStatus,
    UnsupportedSizeError,
    grid_search,
    instance_suite,
    kkt_check,
    relative_residual,
    single_user_closed_form,
    solve_max_sum_rate,
    sum_rate,
)
from cogmac.channel import SATURATED_GAMMA, _mac_power, _primary_sums
from cogmac.region import EmptyGridError, feasible_grid
from conftest import limit_fuzz, numpy_calls
from test_channel import make_instance


class TestGridSearch:
    def test_single_user_unit(self, unit_k1):
        result = grid_search(unit_k1, 1e-3)
        assert result.best_gamma.gamma[0] == pytest.approx(
            (math.sqrt(3) - 1) / 2, abs=1e-3
        )
        assert result.best_sum_rate == sum_rate(unit_k1, result.best_gamma)

    def test_no_interference_returns_zero(self, k2_no_interference):
        result = grid_search(k2_no_interference, 0.1)
        assert np.all(result.best_gamma.gamma == 0.0)

    def test_best_row_is_copied(self, k2_reference):
        # a view of the best row would keep the whole grid alive
        assert grid_search(k2_reference, 0.01).best_gamma.gamma.base is None

    def test_two_user_agrees_with_solver(self, k2_reference):
        oracle = grid_search(k2_reference, 1e-3)
        solver = solve_max_sum_rate(k2_reference)
        assert abs(solver.sum_rate - oracle.best_sum_rate) <= 1e-3

    def test_best_point_is_feasible(self, k2_reference):
        result = grid_search(k2_reference, 0.01)
        assert relative_residual(k2_reference, result.best_gamma) <= 1e-9

    def test_size_cap(self):
        ch = ChannelInstance(
            h=np.ones(4), g=np.ones(4), p=np.ones(4), h_p=1, p_p=1,
            sigma_p2=1, sigma_c2=1,
        )
        with pytest.raises(UnsupportedSizeError):
            grid_search(ch, 0.1)

    def test_lower_bounds_solver_up_to_grid_error(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            ch = make_instance(rng, 2)
            oracle = grid_search(ch, 1e-2)
            solver = solve_max_sum_rate(ch)
            lip = float(np.sum(ch.h**2 * ch.p)) / (math.log(2.0) * ch.sigma_c2)
            assert solver.sum_rate >= oracle.best_sum_rate - lip * 1e-2


def reference_grid_search(ch, grid_step):
    """The oracle over the gathered rows: the first row of `feasible_grid`
    with the largest SNR, its sum rate and the row count, as bits."""
    rows = feasible_grid(ch, grid_step)
    power = sum(map(_mac_power, ch.h2.tolist(), ch.p.tolist(), rows.T))
    best = PowerSplit(rows[np.argmax(power / ch.sigma_c2)])
    return best.gamma.tobytes(), sum_rate(ch, best).hex(), len(rows)


class TestGridSearchReference:
    """`grid_search` reduces each block where it is built; the reference
    gathers every row first.  They agree bit for bit."""

    @staticmethod
    def _assert_matches(suite, grid_step):
        for ch in suite:
            result = grid_search(ch, grid_step)
            assert (
                result.best_gamma.gamma.tobytes(), result.best_sum_rate.hex(), result.points_evaluated
            ) == reference_grid_search(ch, grid_step)

    def test_seeded(self):
        suite = instance_suite(1, 60, sizes=(2, 3))
        self._assert_matches(suite, 1e-1)
        self._assert_matches([ch for ch in suite if ch.num_users == 3], 1e-2)

    def test_wide_and_extreme(self, wide_suite, extreme_suite):
        self._assert_matches([ch for ch in wide_suite if ch.num_users <= 3], 1e-1)
        self._assert_matches([ch for ch in extreme_suite if ch.num_users <= 3], 1e-1)

    def test_one_user_and_no_interference(self, unit_k1, k2_no_interference):
        self._assert_matches([unit_k1, k2_no_interference], 1e-1)
        assert grid_search(k2_no_interference, 1e-1).points_evaluated == 1

    def test_empty_grid_message(self):
        # a three-user limit-fuzz draw whose step-0.1 grid keeps no row
        ch = limit_fuzz()[219]
        message = (
            "no feasible split on the step-0.1 grid of this 3-user instance "
            "despite nonzero interference"
        )
        for search in (grid_search, reference_grid_search):
            with pytest.raises(EmptyGridError) as info:
                search(ch, 1e-1)
            assert str(info.value) == message


class TestKktCheck:
    def test_passes_on_converged_output(self, unit_k1):
        result = solve_max_sum_rate(unit_k1)
        assert kkt_check(unit_k1, result).passed

    def test_fails_on_corrupted_gamma(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        bad = result.gamma_star.gamma.copy()
        bad[0] = min(bad[0] + 0.05, 1.0 - 1e-6)
        corrupted = dataclasses.replace(result, gamma_star=PowerSplit(bad))
        report = kkt_check(k2_reference, corrupted)
        assert not report.passed
        assert any(abs(v) > 1e-6 for v in report.stationarity.values()) or not report.feasibility_ok

    def test_degenerate_instance_passes_empty(self, k2_no_interference):
        result = solve_max_sum_rate(k2_no_interference)
        assert result.status is SolverStatus.CONVERGED
        report = kkt_check(k2_no_interference, result)
        assert report.passed
        assert report.stationarity == {0: 0.0, 1: 0.0}
        assert report.saturated_users == ()

    def test_fails_on_cooperation_without_interference(self, k2_no_interference):
        """A user with g_k = 0 relays nothing, so gamma_k above tol fails."""
        result = solve_max_sum_rate(k2_no_interference)
        relaying = dataclasses.replace(result, gamma_star=PowerSplit(np.array([0.5, 0.0])))
        report = kkt_check(k2_no_interference, relaying)
        assert report.feasibility_ok
        assert not report.stationarity_ok
        assert not report.passed

    def test_fails_on_saturation_the_derivative_pulls_back(self, k2_reference):
        """At lambda = 0 only the sum rate acts, and it pulls every gamma_k
        to 0: a user held at 1 there has scaled derivative -1 < -tol."""
        result = solve_max_sum_rate(k2_reference)
        saturated = dataclasses.replace(
            result, gamma_star=PowerSplit(np.array([1.0, 1.0])), lambda_star=0.0
        )
        report = kkt_check(k2_reference, saturated)
        assert report.saturated_users == (0, 1)
        assert report.stationarity == {0: -1.0, 1: -1.0}
        assert not report.stationarity_ok
        assert not report.passed

    @pytest.mark.parametrize("case", ["interior", "saturated", "silent", "feasibility"])
    def test_value_at_tol_passes(self, request, case):
        """Each bound holds with equality: tol set to the |s| of an interior
        user, the -s of a saturated one, the gamma_k of a user with g_k = 0
        or the relative residual that a first call reports passes that
        test, and the float below it fails."""
        fixture, gamma, lam, bound, flag = {
            "interior": ("unit_k1", [0.5], 1.0, lambda r: abs(r.stationarity[0]), "stationarity_ok"),
            "saturated": ("k2_reference", [1.0, 1.0], 0.0, lambda r: -r.stationarity[0], "stationarity_ok"),
            "silent": ("k2_no_interference", [0.25, 0.0], 0.0, lambda r: 0.25, "stationarity_ok"),
            "feasibility": ("unit_k1", [0.5], 1.0, lambda r: r.feasibility_rel, "feasibility_ok"),
        }[case]
        ch = request.getfixturevalue(fixture)
        split = SimpleNamespace(gamma_star=PowerSplit(gamma), lambda_star=lam)
        tol = bound(kkt_check(ch, split))
        assert tol > 0.0
        assert getattr(kkt_check(ch, split, tol), flag)
        assert not getattr(kkt_check(ch, split, math.nextafter(tol, 0.0)), flag)

    def test_saturated_from_the_threshold(self, k2_reference):
        """gamma_k exactly at SATURATED_GAMMA counts as saturated, the float
        below it as interior."""
        below = math.nextafter(SATURATED_GAMMA, 0.0)
        split = SimpleNamespace(gamma_star=PowerSplit([SATURATED_GAMMA, below]), lambda_star=1.0)
        report = kkt_check(k2_reference, split)
        assert (report.saturated_users, report.interior_users) == ((0,), (1,))

    def test_stationarity_matches_per_user_loop(self, extreme_suite):
        """The float pass against a per-user loop over numpy scalars that
        squares h_k and g_k by pow, where the pass squares by x * x: the two
        differ in the last bit, which the scale turns into a few ulps
        absolute."""

        def per_user(ch, result):
            gamma, lam = result.gamma_star.gamma, result.lambda_star
            x = ch.primary_amplitude + _primary_sums(ch, gamma.tolist())[0]
            scaled = []
            for k in range(ch.num_users):
                term_obj = -2.0 * ch.h[k] ** 2 * ch.p[k] * gamma[k]
                term_x = 2.0 * lam * ch.sigma_p2 * x * ch.g[k] * math.sqrt(ch.p[k])
                term_quad = 2.0 * lam * ch.s_p * ch.g[k] ** 2 * ch.p[k] * gamma[k]
                scale = max(abs(term_obj), abs(term_x), abs(term_quad), 2.0 * ch.h[k] ** 2 * ch.p[k])
                scaled.append((term_obj + term_x + term_quad) / (scale or 1.0))
            return scaled

        with np.errstate(all="ignore"):
            for i, ch in enumerate(extreme_suite + limit_fuzz()):
                result = solve_max_sum_rate(ch)
                report = kkt_check(ch, result)
                np.testing.assert_allclose(
                    list(report.stationarity.values()), per_user(ch, result),
                    rtol=0.0, atol=8 * np.finfo(float).eps, err_msg=str(i),
                )

    @pytest.mark.parametrize("draw", [4, 36])
    def test_fails_on_non_finite_stationarity(self, draw):
        """Limit-fuzz draws 4 (K = 2) and 36 (K = 1) report Converged at
        lambda* = 1.797e308, the largest float, where X and the quadratic
        terms overflow to inf, so the scaled derivative is inf / inf: NaN,
        which no tolerance test rejects by comparison.  The check raises no
        RuntimeWarning on the way, which the suite's filter would fail."""
        ch = limit_fuzz()[draw]
        report = kkt_check(ch, solve_max_sum_rate(ch))
        assert not all(map(math.isfinite, report.stationarity.values()))
        assert report.feasibility_ok
        assert not report.stationarity_ok
        assert not report.passed

    def test_stationarity_holds_python_floats(self, k2_reference, extreme_suite):
        """As annotated, dict[int, float]: the values were numpy float64."""
        with np.errstate(all="ignore"):
            for ch in [k2_reference] + extreme_suite[:20]:
                report = kkt_check(ch, solve_max_sum_rate(ch))
                assert list(map(type, report.stationarity)) == [int] * ch.num_users
                assert list(map(type, report.stationarity.values())) == [float] * ch.num_users

    def test_makes_no_numpy_call_but_tolist(self):
        """One pass over Python floats: the instance's and the split's
        floats, with no numpy call at all (the name is kept from when it
        allowed `tolist`)."""
        suite = instance_suite(1, 30)
        results = [solve_max_sum_rate(ch) for ch in suite]
        seen = numpy_calls(lambda: [kkt_check(ch, result) for ch, result in zip(suite, results)])
        assert seen == set()

    def test_saturated_users_match_active_set_changes(self, extreme_suite):
        """One cut, SATURATED_GAMMA, for both counts; the extreme fuzz has
        gamma_k in [1 - 1e-9, 1), where gamma_k == 1 and the cut differ."""
        for i, ch in enumerate(extreme_suite):
            result = solve_max_sum_rate(ch)
            assert len(kkt_check(ch, result).saturated_users) == result.active_set_changes, i


# K = 1 draws of an extreme fuzz (default_rng(11); gains log-uniform over
# 1e-60..1e60, the rest over 1e-20..1e20) whose exact root lies within 1e-27
# of 1, where the closed form's last rounding can land above 1
ROOT_NEXT_TO_ONE = {
    75: dict(
        h=[2.1875693095051354e-31], g=[6.123253551172389e22], p=[1.9897830455394437e-06],
        h_p=97439494004004.11, p_p=717704.5601864096, sigma_p2=13924860.096550861,
        sigma_c2=5.1803635930903635e-17,
    ),
    247: dict(
        h=[3.418104220021484e52], g=[2.746173985004833e29], p=[967136135794.0684],
        h_p=21570974263.97676, p_p=1.4057662008924158e19, sigma_p2=3.8368700025151595e-15,
        sigma_c2=1210130435952698.5,
    ),
    252: dict(
        h=[3.571819775973074e-10], g=[400078.97845845454], p=[9.271330952131767e-11],
        h_p=1.7264895442637005e17, p_p=1.0779323491629484e18, sigma_p2=1.432823228899107e-16,
        sigma_c2=504022959.26550394,
    ),
}


class TestSingleUserClosedForm:
    @pytest.mark.parametrize("draw", sorted(ROOT_NEXT_TO_ONE))
    def test_root_next_to_one_is_a_split(self, draw):
        gamma = single_user_closed_form(ChannelInstance(**ROOT_NEXT_TO_ONE[draw]))
        assert gamma == 1.0  # the float nearest the exact root
        PowerSplit(np.array([gamma]))

    def test_unit_instance(self, unit_k1):
        assert type(single_user_closed_form(unit_k1)) is float
        assert single_user_closed_form(unit_k1) == pytest.approx(
            (math.sqrt(3) - 1) / 2, abs=1e-15
        )

    def test_large_interference_gain_limit(self):
        # interference and cooperation both scale with g, so the ratio tends
        # to sqrt(T/(1+T)) with T the baseline primary SNR
        ch = ChannelInstance(
            h=[1.0], g=[1e6], p=[1.0], h_p=1.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0
        )
        gamma = single_user_closed_form(ch)
        assert gamma == pytest.approx(math.sqrt(0.5), abs=1e-5)
        assert relative_residual(ch, PowerSplit(np.array([gamma]))) <= 1e-9

    def test_zero_primary_gain(self):
        ch = ChannelInstance(
            h=[1.0], g=[1.0], p=[1.0], h_p=0.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0
        )
        assert single_user_closed_form(ch) == 0.0

    def test_no_interference_is_zero(self):
        ch = ChannelInstance(
            h=[1.0], g=[0.0], p=[1.0], h_p=1.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0
        )
        assert single_user_closed_form(ch) == 0.0

    def test_size_check(self, k2_reference):
        with pytest.raises(UnsupportedSizeError):
            single_user_closed_form(k2_reference)

    def test_converged_solves_on_extreme_fuzz(self, extreme_suite):
        """Every K = 1 solve reported Converged is within 1e-9 relative or
        1e-12 absolute of the closed form, draw 29 (sigma_p2 A^2 about 1e42,
        phi's terms in gamma about 1e5) among them."""
        checked = 0
        for i, ch in enumerate(extreme_suite):
            if ch.num_users != 1:
                continue
            result = solve_max_sum_rate(ch)
            if result.status is SolverStatus.CONVERGED:
                exact = single_user_closed_form(ch)
                got = float(result.gamma_star.gamma[0])
                assert abs(got - exact) <= max(1e-9 * exact, 1e-12), i
                checked += 1
        assert checked == 68

    def test_matches_50_digit_root_on_wide_suite(self, wide_suite):
        getcontext().prec = 50
        worst = 0.0
        for ch in wide_suite:
            if ch.num_users != 1:
                continue
            amp = Decimal(ch.h_p) * Decimal(ch.p_p).sqrt()
            x = Decimal(float(ch.g[0])) * Decimal(float(ch.p[0])).sqrt()
            s = Decimal(ch.sigma_p2)
            # the "+" root of (s + A^2) x^2 y^2 + 2 s A x y - A^2 x^2 = 0
            exact = (-s * amp * x + amp * x * (s * s + (s + amp * amp) * x * x).sqrt()) / (
                (s + amp * amp) * x * x
            )
            got = Decimal(single_user_closed_form(ch))
            worst = max(worst, float(abs(got - exact) / exact))
        assert worst <= 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_at_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 1)
        gamma = single_user_closed_form(ch)
        assert relative_residual(ch, PowerSplit(np.array([gamma]))) <= 1e-12


class TestInstanceSuite:
    def test_reproducible(self):
        a = instance_suite(123, 6)
        b = instance_suite(123, 6)
        for x, y in zip(a, b):
            assert np.array_equal(x.h, y.h)
            assert x.p_p == y.p_p

    def test_cycles_sizes(self):
        suite = instance_suite(5, 6)
        assert [ch.num_users for ch in suite] == [1, 2, 3, 1, 2, 3]
