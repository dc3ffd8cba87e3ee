import math

import numpy as np
import pytest

from cogmac import (
    ChannelInstance,
    PowerSplit,
    SolverConfig,
    SolverStatus,
    baseline_primary_rate,
    feasibility_residual,
    grid_search,
    kkt_check,
    primary_rate,
    relative_residual,
    single_user_closed_form,
    solve_max_sum_rate,
    sum_rate,
    sweep_trajectory,
)
from cogmac.channel import _phi, residual_scale
from cogmac.oracle import instance_suite
from cogmac.solver import _Path
from conftest import bisect_root
from test_channel import make_instance


class TestXClosedForm:
    def test_zero_lambda_all_interior(self, k2_reference):
        x, _ = _Path(k2_reference).point(0.0)
        assert x == pytest.approx(math.sqrt(10.0), abs=1e-14)

    def test_all_saturated(self, k2_reference):
        path = _Path(k2_reference)
        path.saturate(0.05)
        path.saturate(0.05)
        x, _ = path.point(0.05)
        expected = math.sqrt(10.0) + 0.6 * math.sqrt(5.0)
        assert x == pytest.approx(expected, abs=1e-13)

    def test_hand_evaluated_single_user(self, unit_k1):
        x, _ = _Path(unit_k1).point(0.2)
        assert x == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_singularity_past_pole(self, unit_k1):
        # gamma = lambda / (1 - 2 lambda) reaches 1 at lambda = 1/3, before
        # D = 0 at 1/2 and the pole beta^2 / (h_p^2 P_p) = 1
        event = _Path(unit_k1).next_event(0.0, math.inf)
        assert event == pytest.approx(1.0 / 3.0, rel=1e-15)


class TestGammaOfLambda:
    def test_zero_lambda_gives_zero(self, k2_reference):
        _, gamma = _Path(k2_reference).point(0.0)
        assert np.all(gamma == 0.0)

    def test_saturated_branch_is_one(self, unit_k1):
        path = _Path(unit_k1)
        path.saturate(0.4)
        _, gamma = path.point(0.1)
        assert gamma[0] == 1.0

    def test_hand_evaluated_single_user(self, unit_k1):
        x, gamma = _Path(unit_k1).point(0.2)
        assert gamma[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        # consistency with the aggregate-amplitude definition
        assert 1.0 + gamma[0] == pytest.approx(x, abs=1e-14)

    def test_overflow_reported(self, unit_k1):
        path = _Path(unit_k1)
        path.saturate(path.next_event(0.0, math.inf))
        assert np.flatnonzero(path.saturated).tolist() == [0]
        assert path.interior.size == 0


class TestUpdateActiveSet:
    def test_zero_lambda_no_changes(self, k2_reference):
        path = _Path(k2_reference)
        assert path.interior.tolist() == [0, 1]
        assert not path.saturated.any()

    def test_one_user_saturates_past_threshold(self):
        ch = ChannelInstance(
            h=[0.5, 1.5], g=[1.0, 0.5], p=[2.0, 2.0], h_p=1.0, p_p=1.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )

        def raw_gamma(lam):
            # the stationarity closed form with no user saturated, written out
            a = ch.g * np.sqrt(ch.p)
            pole = (ch.h / ch.g) ** 2 - lam * ch.h_p**2 * ch.p_p
            d = 1.0 - lam * ch.sigma_p2 * np.sum(1.0 / pole)
            if np.any(pole <= 0) or d <= 0:
                return None
            return lam * ch.sigma_p2 * (ch.primary_amplitude / d) / (pole * a)

        def raw_gamma_minus_one(lam):
            gamma = raw_gamma(lam)
            return 1.0 if gamma is None else float(gamma.max()) - 1.0

        # saturation threshold of the first user to hit 1, by root-finding
        threshold = bisect_root(raw_gamma_minus_one, 0.0, 0.2)
        path = _Path(ch)
        event = path.next_event(0.0, math.inf)
        assert event == pytest.approx(threshold, rel=1e-12)
        path.saturate(event)
        first = int(np.argmax(raw_gamma(threshold * (1.0 - 1e-9))))
        assert np.flatnonzero(path.saturated).tolist() == [first]

    def test_all_saturated_fixed_point(self, k2_reference):
        path = _Path(k2_reference)
        path.saturate(0.3)
        path.saturate(0.3)
        assert path.interior.size == 0
        _, gamma = path.point(0.3)
        assert np.all(gamma == 1.0)


def _segment_phis(ch):
    """(path phi, channel phi at the path's gamma, magnitude of phi's terms)
    at the start, midpoint and event of every segment of the path."""
    path = _Path(ch)
    lam, rows = 0.0, []
    total = ch.h_p**2 * ch.p_p * (ch.sigma_p2 + float(np.sum(ch.g**2 * ch.p)))
    while path.interior.size:
        lam_e = path.next_event(lam, math.inf)
        for t in (lam, 0.5 * (lam + lam_e), lam_e):
            x, gamma = path.point(t)
            rows.append((path.phi(t), float(_phi(ch, gamma)), ch.sigma_p2 * float(x) ** 2 + total))
        path.saturate(lam_e)
        lam = lam_e
    return rows


class TestPathResidual:
    """phi from the interior poles alone equals the channel's phi(gamma).

    Worst differences measured: 2.6e-13 of residual_scale on the first
    suite, 2.5e-14 on the second, and on the wide suite 8.4e-9 of
    sigma_p2 X^2 + s_p (sigma_p2 + sum g_k^2 P_k), at events where D is
    near 0 and phi is about 1e11.
    """

    @pytest.mark.parametrize(
        "suite",
        [
            instance_suite(1, 90),
            instance_suite(0, 20, sizes=(10, 20, 50, 100, 200)),
        ],
        ids=["k1-3", "k10-200"],
    )
    def test_seeded_suites(self, suite):
        for ch in suite:
            bound = 1e-11 * residual_scale(ch)
            for path_phi, channel_phi, _ in _segment_phis(ch):
                assert abs(path_phi - channel_phi) <= bound
                assert (path_phi >= 0.0) == (channel_phi >= 0.0)

    def test_wide_suite(self, wide_suite):
        for ch in wide_suite:
            for path_phi, channel_phi, magnitude in _segment_phis(ch):
                assert abs(path_phi - channel_phi) <= 1e-7 * magnitude
                assert (path_phi >= 0.0) == (channel_phi >= 0.0)


class TestSolveMaxSumRate:
    def test_single_user_unit_instance(self, unit_k1):
        result = solve_max_sum_rate(unit_k1)
        assert result.status is SolverStatus.CONVERGED
        assert result.gamma_star.gamma[0] == pytest.approx(
            (math.sqrt(3.0) - 1.0) / 2.0, abs=1e-8
        )
        assert result.sum_rate == pytest.approx(0.4500, abs=1e-4)

    def test_degenerate_no_interference(self, k2_no_interference):
        result = solve_max_sum_rate(k2_no_interference)
        assert result.status is SolverStatus.DEGENERATE_NO_INTERFERENCE
        assert np.all(result.gamma_star.gamma == 0.0)
        assert result.sum_rate == pytest.approx(0.5 * math.log2(3.0), abs=1e-14)

    def test_two_user_matches_oracle(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        oracle = grid_search(k2_reference, 1e-3)
        assert result.status is SolverStatus.CONVERGED
        assert abs(result.sum_rate - oracle.best_sum_rate) <= 1e-3
        assert result.sum_rate >= oracle.best_sum_rate - 1e-3

    def test_max_iters_exceeded(self, unit_k1, k2_reference):
        # every cap short of a converged solve's evaluation count stops with
        # at most that many evaluations and a valid split; that count itself
        # reproduces the converged solve.  Instance 50 of the suite has K = 3
        # and two saturation events before lambda*.
        for ch in (unit_k1, k2_reference, instance_suite(1, 90)[50]):
            converged = solve_max_sum_rate(ch)
            assert converged.status is SolverStatus.CONVERGED
            needed = converged.outer_iterations
            for cap in range(1, needed):
                result = solve_max_sum_rate(ch, SolverConfig(max_outer_iters=cap))
                assert result.status is SolverStatus.MAX_ITERS_EXCEEDED, cap
                assert result.outer_iterations <= cap
                assert isinstance(result.gamma_star, PowerSplit)
                assert len(result.gamma_star) == ch.num_users
            again = solve_max_sum_rate(ch, SolverConfig(max_outer_iters=needed))
            assert again.status is SolverStatus.CONVERGED
            assert again.outer_iterations == needed
            assert np.array_equal(again.gamma_star.gamma, converged.gamma_star.gamma)

    def test_single_user_wide_suite_matches_closed_form(self, wide_suite):
        # gamma* is small against the primary terms on some of these (5.4e-7
        # on instance 247), so the coordinate root must not cancel
        worst = 0.0
        for ch in wide_suite:
            if ch.num_users == 1:
                exact = single_user_closed_form(ch)
                gamma = solve_max_sum_rate(ch).gamma_star.gamma[0]
                worst = max(worst, abs(gamma - exact) / exact)
        assert worst <= 1e-9

    def test_converges_far_below_the_lambda_step(self):
        # instance 9 of the seed-7 wide-range suite (benchmarks/workloads.py):
        # lambda* ~ 1.3e-11 against a pole ~ 1.6e5, so the root search must
        # work to float resolution in relative terms
        ch = ChannelInstance(
            h=[0.00647720826806487],
            g=[0.0038740853456137206],
            p=[0.1509251802841349],
            h_p=0.011924389828171105,
            p_p=0.11922535786373,
            sigma_p2=488.36481666876034,
            sigma_c2=2.7542052745452823,
        )
        result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        assert result.residual <= SolverConfig().residual_tol
        assert result.gamma_star.gamma[0] == pytest.approx(
            single_user_closed_form(ch), abs=1e-9
        )

    def test_not_beaten_by_the_grid_oracle(self):
        # instance 294 of the seed-7 wide-range suite: the end of a bracket on
        # the phi >= 0 side, instead of a point on phi = 0, loses 4.9e-5 bits
        ch = ChannelInstance(
            h=[2.794259935140729, 475.23320915693205],
            g=[7.6450849315201, 105.08083365627043],
            p=[727.1682969630755, 0.06241175951984221],
            h_p=180.82992143836952,
            p_p=2.0247525869872622,
            sigma_p2=0.01616188824397435,
            sigma_c2=0.006193765655277181,
        )
        result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        assert result.sum_rate >= grid_search(ch, 1e-3).best_sum_rate

    def test_wide_suite_converges_and_passes_kkt(self, wide_suite):
        failed = []
        for i, ch in enumerate(wide_suite):
            result = solve_max_sum_rate(ch)
            if result.status is not SolverStatus.CONVERGED or not kkt_check(ch, result).passed:
                failed.append((i, result.status.value, result.residual))
        assert not failed

    def test_zero_gain_user_cooperates_at_zero_multiplier(self):
        # h_1 = 0 < g_1: user 1 costs no rate, so it alone restores the primary
        ch = ChannelInstance(
            h=[0.0, 1.0], g=[0.5, 0.5], p=[2.0, 2.0], h_p=1.0, p_p=1.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )
        result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        assert result.lambda_star == 0.0
        assert 0.0 < result.gamma_star.gamma[0] < 1.0
        assert result.gamma_star.gamma[1] == 0.0
        assert result.sum_rate == pytest.approx(0.5 * math.log2(3.0), abs=1e-14)

    def test_feasibility_at_convergence(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        assert result.residual <= SolverConfig().residual_tol
        assert abs(
            primary_rate(k2_reference, result.gamma_star)
            - baseline_primary_rate(k2_reference)
        ) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_stationarity_at_optimum(self, seed):
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 2)
        result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        gamma = result.gamma_star.gamma
        lam = result.lambda_star
        s_p = ch.h_p**2 * ch.p_p
        x = ch.primary_amplitude + float(np.sum(ch.g * gamma * np.sqrt(ch.p)))
        for k in range(2):
            deriv = (
                -2.0 * ch.h[k] ** 2 * ch.p[k] * gamma[k]
                + 2.0 * lam * ch.sigma_p2 * x * ch.g[k] * math.sqrt(ch.p[k])
                + 2.0 * lam * s_p * ch.g[k] ** 2 * ch.p[k] * gamma[k]
            )
            scale = 2.0 * ch.h[k] ** 2 * ch.p[k]
            if gamma[k] < 1.0 - 1e-9:
                assert abs(deriv) <= 1e-6 * scale
            else:
                assert deriv >= -1e-6 * scale


class TestSweepTrajectory:
    def test_columns(self, k2_reference):
        traj = sweep_trajectory(k2_reference, 0.1, 5)
        assert traj.lam.tolist() == np.linspace(0.0, 0.1, 5).tolist()
        assert traj.x.shape == traj.phi.shape == (5,)
        assert traj.gamma.shape == traj.saturated.shape == (5, 2)
        assert traj.saturated.dtype == bool
        assert not traj.gamma.flags.writeable

    def test_origin_row(self, k2_reference):
        traj = sweep_trajectory(k2_reference, 0.1, 5)
        assert traj.lam[0] == 0.0
        assert traj.x[0] == pytest.approx(math.sqrt(10.0), abs=1e-14)
        assert np.all(traj.gamma[0] == 0.0)

    def test_single_sign_change(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        traj = sweep_trajectory(k2_reference, 1.5 * result.lambda_star, 301)
        assert np.count_nonzero(np.diff(traj.phi >= 0)) == 1

    def test_phi_matches_channel_formula(self, k2_reference):
        traj = sweep_trajectory(k2_reference, 0.1, 11)
        for gamma, phi in zip(traj.gamma, traj.phi):
            assert phi == feasibility_residual(k2_reference, PowerSplit(gamma.copy()))

    def test_monotone_within_active_set_runs(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        traj = sweep_trajectory(k2_reference, 1.5 * result.lambda_star, 301)
        same = np.all(traj.saturated[1:] == traj.saturated[:-1], axis=1)
        assert np.all(
            traj.x[1:][same] >= traj.x[:-1][same] - 1e-12 * np.maximum(1.0, np.abs(traj.x[:-1][same]))
        )
        assert np.all(traj.gamma[1:][same] >= traj.gamma[:-1][same] - 1e-12)

    def test_saturated_users_are_pinned_and_stay(self):
        ch = instance_suite(1, 90)[50]  # three users, three saturation events by 0.15
        traj = sweep_trajectory(ch, 0.15, 201)
        assert np.all(traj.gamma[traj.saturated] == 1.0)
        assert np.all(traj.saturated[1:] >= traj.saturated[:-1])
        assert traj.saturated[-1].all() and not traj.saturated[0].any()

    def test_closed_form_consistency_along_sweep(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        traj = sweep_trajectory(k2_reference, 1.2 * result.lambda_star, 101)
        ch = k2_reference
        recomputed = ch.primary_amplitude + np.sum(ch.g * traj.gamma * np.sqrt(ch.p), axis=1)
        np.testing.assert_allclose(traj.x, recomputed, rtol=1e-10)
