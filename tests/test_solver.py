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
    primary_rate,
    relative_residual,
    single_user_closed_form,
    solve_max_sum_rate,
    sum_rate,
    sweep_trajectory,
)
from cogmac.solver import (
    ActiveSetSingularityError,
    SaturationRequiredError,
    gamma_of_lambda,
    initial_state,
    update_active_set,
    x_closed_form,
)
from conftest import bisect_root
from test_channel import make_instance


class TestXClosedForm:
    def test_zero_lambda_all_interior(self, k2_reference):
        state = initial_state(k2_reference)
        assert x_closed_form(k2_reference, 0.0, state) == pytest.approx(
            math.sqrt(10.0), abs=1e-14
        )

    def test_all_saturated(self, k2_reference):
        state = initial_state(k2_reference)
        state = update_active_set(k2_reference, 0.0, state)
        from dataclasses import replace

        all_sat = replace(state, interior=(), saturated=(0, 1))
        expected = math.sqrt(10.0) + 0.6 * math.sqrt(5.0)
        assert x_closed_form(k2_reference, 0.05, all_sat) == pytest.approx(
            expected, abs=1e-13
        )

    def test_hand_evaluated_single_user(self, unit_k1):
        state = initial_state(unit_k1)
        assert x_closed_form(unit_k1, 0.2, state) == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_singularity_past_pole(self, unit_k1):
        # pole at lambda = beta^2 / (h_p^2 P_p) = 1
        state = initial_state(unit_k1)
        with pytest.raises(ActiveSetSingularityError):
            x_closed_form(unit_k1, 1.5, state)


class TestGammaOfLambda:
    def test_zero_lambda_gives_zero(self, k2_reference):
        state = initial_state(k2_reference)
        x = x_closed_form(k2_reference, 0.0, state)
        gamma = gamma_of_lambda(k2_reference, 0.0, x, state)
        assert np.all(gamma.gamma == 0.0)

    def test_saturated_branch_is_one(self, unit_k1):
        from dataclasses import replace

        state = replace(initial_state(unit_k1), interior=(), saturated=(0,))
        gamma = gamma_of_lambda(unit_k1, 0.1, 2.0, state)
        assert gamma.gamma[0] == 1.0

    def test_hand_evaluated_single_user(self, unit_k1):
        state = initial_state(unit_k1)
        gamma = gamma_of_lambda(unit_k1, 0.2, 4.0 / 3.0, state)
        assert gamma.gamma[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        # consistency with the aggregate-amplitude definition
        assert 1.0 + gamma.gamma[0] == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_overflow_reported(self, unit_k1):
        state = initial_state(unit_k1)
        with pytest.raises(SaturationRequiredError) as err:
            gamma_of_lambda(unit_k1, 0.5, 3.0, state)
        assert err.value.users == (0,)


class TestUpdateActiveSet:
    def test_zero_lambda_no_changes(self, k2_reference):
        state = update_active_set(k2_reference, 0.0, initial_state(k2_reference))
        assert state.interior == (0, 1)
        assert state.saturated == ()
        assert np.all(state.gamma.gamma == 0.0)

    def test_one_user_saturates_past_threshold(self):
        ch = ChannelInstance(
            h=[0.5, 1.5], g=[1.0, 0.5], p=[2.0, 2.0], h_p=1.0, p_p=1.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )

        def raw_gamma_minus_one(lam):
            state = initial_state(ch)
            try:
                x = x_closed_form(ch, lam, state)
                gamma = gamma_of_lambda(ch, lam, x, state)
            except (ActiveSetSingularityError, SaturationRequiredError):
                return 1.0
            return float(gamma.gamma.max()) - 1.0

        # saturation threshold of the first user to hit 1, by root-finding
        threshold = bisect_root(raw_gamma_minus_one, 0.0, 0.2)
        state = update_active_set(ch, threshold * 1.001, initial_state(ch))
        assert len(state.saturated) == 1

    def test_all_saturated_fixed_point(self, k2_reference):
        from dataclasses import replace

        state = replace(
            initial_state(k2_reference),
            interior=(),
            saturated=(0, 1),
            gamma=PowerSplit.ones(2),
        )
        out = update_active_set(k2_reference, 0.3, state)
        assert out.saturated == (0, 1)
        assert np.all(out.gamma.gamma == 1.0)


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

    def test_max_iters_exceeded(self, unit_k1):
        cfg = SolverConfig(max_outer_iters=2)
        result = solve_max_sum_rate(unit_k1, cfg)
        assert result.status is SolverStatus.MAX_ITERS_EXCEEDED

    def test_converges_far_below_the_lambda_step(self):
        # instance 9 of the seed-7 wide-range suite (benchmarks/workloads.py):
        # lambda* ~ 1.3e-11 against a default step ~ 165, so bisection must run
        # to the residual tolerance rather than to a width tied to the step
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
    def test_origin_row(self, k2_reference):
        rows = sweep_trajectory(k2_reference, 0.1, 5)
        assert rows[0].lam == 0.0
        assert rows[0].x_value == pytest.approx(math.sqrt(10.0), abs=1e-14)
        assert np.all(rows[0].gamma.gamma == 0.0)

    def test_single_sign_change(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        rows = sweep_trajectory(k2_reference, 1.5 * result.lambda_star, 301)
        signs = [row.phi >= 0 for row in rows]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1

    def test_monotone_within_active_set_runs(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        rows = sweep_trajectory(k2_reference, 1.5 * result.lambda_star, 301)
        for prev, cur in zip(rows, rows[1:]):
            if prev.saturated != cur.saturated:
                continue
            assert cur.x_value >= prev.x_value - 1e-12 * max(1.0, abs(prev.x_value))
            assert np.all(cur.gamma.gamma >= prev.gamma.gamma - 1e-12)

    def test_closed_form_consistency_along_sweep(self, k2_reference):
        result = solve_max_sum_rate(k2_reference)
        rows = sweep_trajectory(k2_reference, 1.2 * result.lambda_star, 101)
        ch = k2_reference
        for row in rows:
            recomputed = ch.primary_amplitude + float(
                np.sum(ch.g * row.gamma.gamma * np.sqrt(ch.p))
            )
            assert row.x_value == pytest.approx(recomputed, rel=1e-10)
