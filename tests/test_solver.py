import dataclasses
import math
import sys
import warnings

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
from cogmac.channel import _phi
from cogmac import solver
from cogmac.cli import load_scenario
from cogmac.oracle import instance_suite, random_instance
from cogmac.solver import _ArrayFill, _finish, _WaterFill
from conftest import SUITE_SEED, bisect_root, extreme_fuzz, limit_fuzz
from test_channel import make_instance
from test_golden import GOLDEN, SCENARIOS


def _saturation_points(ch):
    """Each saturation event of the path, to float resolution: per k, the
    least multiplier at which k users are saturated, by bisecting the batch
    state over all k at once between 0 and twice the last pole, where every
    user is saturated."""
    path = _WaterFill(ch)
    users = path.users.size

    def counts(lam):
        return path.states(lam)[2].sum(axis=1)

    k = np.arange(1, users + 1)
    lo = np.zeros(users)
    hi = np.where(k <= counts(np.zeros(1))[0], 0.0, 2.0 * path.last)
    while True:
        mid = 0.5 * (lo + hi)
        moved = (mid > lo) & (mid < hi)
        if not moved.any():
            return np.unique(hi)
        on = counts(mid) >= k
        hi = np.where(moved & on, mid, hi)
        lo = np.where(moved & ~on, mid, lo)


SEEDED = {
    "k1-3": instance_suite(1, 90),
    "k10-200": instance_suite(0, 20, sizes=(10, 20, 50, 100, 200)),
}


def _saturation_grid(ch):
    """0, each saturation event and its neighbours 1e-12 either side, and
    the midpoints between events."""
    events = _saturation_points(ch)
    mids = 0.5 * (events[1:] + events[:-1])
    near = np.concatenate([events * (1.0 - 1e-12), events, events * (1.0 + 1e-12)])
    return np.unique(np.concatenate([[0.0], near, mids]))


@pytest.fixture(scope="session")
def grid():
    """`_saturation_grid`, bisected once per instance in the session."""
    grids = {}  # id -> (instance, grid); holding the instance keeps its id

    def of(ch):
        if id(ch) not in grids:
            grids[id(ch)] = (ch, _saturation_grid(ch))
        return grids[id(ch)][1]

    return of


class TestXClosedForm:
    def test_zero_lambda_all_interior(self, k2_reference):
        x, _, _ = _WaterFill(k2_reference).split(0.0)
        assert x == pytest.approx(math.sqrt(10.0), abs=1e-14)

    def test_all_saturated(self, k2_reference):
        # past both poles beta_k^2 / (h_p^2 P_p) = 0.625 and 1.6
        x, _, saturated = _WaterFill(k2_reference).split(2.0)
        assert saturated.all()
        expected = math.sqrt(10.0) + 0.6 * math.sqrt(5.0)
        assert x == pytest.approx(expected, abs=1e-13)

    def test_hand_evaluated_single_user(self, unit_k1):
        x, _, _ = _WaterFill(unit_k1).split(0.2)
        assert x == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_singularity_past_pole(self, unit_k1):
        # gamma = lambda / (1 - 2 lambda) reaches 1 at lambda = 1/3, before
        # D = 0 at 1/2 and the pole beta^2 / (h_p^2 P_p) = 1.  The float
        # 1/3 lies 1.9e-17 below the event, so it is bracketed by 1e-12
        path = _WaterFill(unit_k1)
        assert not path.split(1.0 / 3.0 * (1.0 - 1e-12))[2].any()
        assert path.split(1.0 / 3.0 * (1.0 + 1e-12))[2].all()
        assert path.split(1.0 / 3.0)[1][0] == pytest.approx(1.0, abs=1e-15)
        assert _saturation_points(unit_k1)[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


class TestGammaOfLambda:
    def test_zero_lambda_gives_zero(self, k2_reference):
        _, gamma, _ = _WaterFill(k2_reference).split(0.0)
        assert np.all(gamma == 0.0)

    def test_saturated_branch_is_one(self, unit_k1):
        _, gamma, saturated = _WaterFill(unit_k1).split(0.4)
        assert saturated[0] and gamma[0] == 1.0

    def test_hand_evaluated_single_user(self, unit_k1):
        x, gamma, _ = _WaterFill(unit_k1).split(0.2)
        assert gamma[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        # consistency with the aggregate-amplitude definition
        assert 1.0 + gamma[0] == pytest.approx(x, abs=1e-14)

    def test_overflow_reported(self, unit_k1):
        # between the event and the pole the raw ratio lambda / (1 - 2 lambda)
        # exceeds 1; the user is reported saturated, with gamma = 1
        _, gamma, saturated = _WaterFill(unit_k1).split(0.45)
        assert np.flatnonzero(saturated).tolist() == [0]
        assert gamma.tolist() == [1.0]


class TestUpdateActiveSet:
    def test_zero_lambda_no_changes(self, k2_reference):
        path = _WaterFill(k2_reference)
        assert path.users.tolist() == [0, 1]
        assert not path.split(0.0)[2].any()

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
        event = _saturation_points(ch)[0]
        assert event == pytest.approx(threshold, rel=1e-12)
        first = int(np.argmax(raw_gamma(threshold * (1.0 - 1e-9))))
        path = _WaterFill(ch)
        assert not path.split(event * (1.0 - 1e-12))[2].any()
        assert np.flatnonzero(path.split(event)[2]).tolist() == [first]

    def test_all_saturated_fixed_point(self, k2_reference):
        _, gamma, saturated = _WaterFill(k2_reference).split(2.0)
        assert saturated.all()
        assert np.all(gamma == 1.0)


def _grid_phis(ch, lam):
    """(scalar phi, channel phi at the batch gamma, magnitude of phi's
    terms) at each multiplier of lam."""
    path = _WaterFill(ch)
    x, gamma, _ = path.states(lam)
    total = ch.h_p**2 * ch.p_p * (ch.sigma_p2 + float(np.sum(ch.g**2 * ch.p)))
    magnitude = ch.sigma_p2 * x**2 + total
    path_phi = [path.phi(t)[0] for t in lam.tolist()]
    return zip(path_phi, _phi(ch, gamma).tolist(), magnitude.tolist())


class TestPathResidual:
    """phi from the interior users alone equals the channel's phi(gamma).

    Worst differences measured on these grids: 3.7e-14 of residual_scale
    on the first suite, 5.8e-14 on the second, and on the wide suite
    1.1e-15 of sigma_p2 X^2 + s_p (sigma_p2 + sum g_k^2 P_k).
    """

    @pytest.mark.parametrize("suite", SEEDED.values(), ids=SEEDED.keys())
    def test_seeded_suites(self, suite, grid):
        for ch in suite:
            bound = 1e-11 * ch.residual_scale
            for path_phi, channel_phi, _ in _grid_phis(ch, grid(ch)):
                assert abs(path_phi - channel_phi) <= bound
                assert (path_phi >= 0.0) == (channel_phi >= 0.0)

    def test_wide_suite(self, wide_suite, grid):
        for ch in wide_suite:
            for path_phi, channel_phi, magnitude in _grid_phis(ch, grid(ch)):
                assert abs(path_phi - channel_phi) <= 1e-7 * magnitude
                assert (path_phi >= 0.0) == (channel_phi >= 0.0)


class TestScalarBatchAgreement:
    """The scalar state (`split`, which `phi` shares) and the batch state
    (`states`, behind `sweep_trajectory`) saturate the same users and give
    the same X, on an even grid past lambda* and on `_saturation_grid`."""

    @staticmethod
    def _check(ch, saturation_grid):
        lam_star = solve_max_sum_rate(ch).lambda_star
        lam = np.concatenate([np.linspace(0.0, 1.5 * lam_star, 16), saturation_grid])
        path = _WaterFill(ch)
        x, _, saturated = path.states(lam)
        for t, x_t, flags in zip(lam.tolist(), x, saturated):
            x_s, _, flags_s = path.split(t)
            assert flags_s.tolist() == flags.tolist(), t
            assert abs(x_s - x_t) <= 1e-13 * abs(x_t), t

    @pytest.mark.parametrize("suite", SEEDED.values(), ids=SEEDED.keys())
    def test_seeded_suites(self, suite, grid):
        for ch in suite:
            self._check(ch, grid(ch))

    def test_wide_suite(self, wide_suite, grid):
        for ch in wide_suite:
            self._check(ch, grid(ch))


def _fixed_point_by_resumming(path, lam):
    """The relayed amplitude S and the number m of saturated users at lam by
    the prefix rule, re-summing Q_m over the interior users at every step:
    the reference for `_WaterFill._fixed_point`'s suffix sums."""
    r, amp = lam * path.sigma_p2, path.amp
    path._fixed_point(lam)  # leaves the columns in their order at lam
    wa, a = (np.asarray(v).tolist() for v in (path.wa, path.a))
    ls = lam * path.s_p
    c = [w - ls * a_k for w, a_k in zip(wa, a)]
    z = sum(1 for c_k in c if c_k <= 0.0)
    ratio = [a_k / c_k for a_k, c_k in zip(a[z:], c[z:])]
    m, s_m, q_m = z, sum(a[:z]), sum(reversed(ratio))
    while m < len(c) and r * (amp + s_m) >= c[m] * (1.0 - r * q_m):
        s_m += a[m]
        m += 1
        q_m = sum(reversed(ratio[m - z :]))
    return (s_m + amp * r * q_m) / (1.0 - r * q_m), m


# each form of the multiplier path, built directly
FORMS = _WaterFill, _ArrayFill


class TestLargeKFixedPoint:
    """At K = 1000, where lambda* saturates 26 users, each form's suffix
    sums give the re-summed S and m, and `split` and `phi` give the
    `states` row, bit for bit."""

    @pytest.fixture(scope="class")
    def case(self):
        ch = random_instance(np.random.default_rng(3), 1000)
        return ch, solve_max_sum_rate(ch).lambda_star

    def test_suffix_sums_match_resumming(self, case):
        ch, lam_star = case
        for form in FORMS:
            path = form(ch)
            for lam in (lam_star, 0.5 * lam_star, 2.0 * lam_star):
                relayed, m, *_ = path._fixed_point(lam)
                assert (relayed, m) == _fixed_point_by_resumming(form(ch), lam), form
            assert path._fixed_point(lam_star)[1] >= 20

    def test_scalar_matches_states_row(self, case):
        ch, lam_star = case
        for form in FORMS:
            path = form(ch)
            x, gamma, saturated = path.states(np.array([lam_star]))
            x_s, gamma_s, saturated_s = path.split(lam_star)
            assert saturated_s.sum() >= 20
            assert x_s == x[0]
            assert gamma_s.tobytes() == gamma[0].tobytes()
            assert saturated_s.tolist() == saturated[0].tolist()
            phi = path.phi(lam_star)[0]
            assert phi == form(ch).phi(lam_star)[0]  # from either column order
            assert abs(phi - _phi(ch, gamma[0])) <= 1e-11 * ch.residual_scale


class TestArrayForm:
    """The array form is the list form bit for bit: the same lambda*,
    gamma*, sum rate, residual, status and path evaluations on every suite,
    from seeded to the limit of the float range."""

    @staticmethod
    def _results(monkeypatch, form, suite):
        monkeypatch.setattr(solver, "_water_fill", form)
        with np.errstate(all="ignore"):  # the limit fuzz still overflows (ROADMAP item 8)
            results = [solve_max_sum_rate(ch) for ch in suite]
        # hex, so that a NaN residual equals itself
        return [
            (r.lambda_star.hex(), r.gamma_star.gamma.tobytes(), r.sum_rate.hex(),
             r.residual.hex(), r.status, r.outer_iterations)
            for r in results
        ]

    @pytest.mark.parametrize("suite", [
        pytest.param(lambda: instance_suite(1, 450), id="seeded-k1-3"),
        pytest.param(lambda: instance_suite(0, 60, sizes=(10, 20, 50, 100, 200)), id="seeded-k10-200"),
        pytest.param(lambda: extreme_fuzz(), id="extreme"),
        pytest.param(lambda: limit_fuzz(), id="limit"),
        pytest.param(lambda: [random_instance(np.random.default_rng(3), 1000)], id="k1000"),
    ])
    def test_suites(self, monkeypatch, suite):
        suite = suite()
        assert self._results(monkeypatch, _ArrayFill, suite) == self._results(monkeypatch, _WaterFill, suite)

    def test_wide_suite(self, monkeypatch, wide_suite):
        assert (self._results(monkeypatch, _ArrayFill, wide_suite)
                == self._results(monkeypatch, _WaterFill, wide_suite))

    def test_nan_key_keeps_the_list_order(self):
        # user 0's w_0 / a_0 overflows, so at lambda = 1e300 c_0 = inf - inf;
        # Timsort leaves [NaN, -inf] as it is, where argsort puts NaN last
        ch = ChannelInstance(
            h=[1e150, 1.0], g=[1e-10, 1.0], p=[1.0, 1.0], h_p=1e10, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0,
        )
        lists, arrays = _WaterFill(ch), _ArrayFill(ch)
        for path in (lists, arrays):
            path._fixed_point(1e300)
        assert np.asarray(arrays.ids).tolist() == lists.ids == [0, 1]

    def test_form_by_k(self):
        rng = np.random.default_rng(3)
        for k, form in ((solver._ARRAY_USERS - 1, _WaterFill), (solver._ARRAY_USERS, _ArrayFill)):
            assert type(solver._water_fill(random_instance(rng, k))) is form


class TestFinishOrder:
    """`_finish` tries the users with g_k > 0 interior first, then
    saturated, each group by steepest d phi / d gamma_k, written out here as
    a_k (sigma_p2 X + s_p a_k gamma_k), ties in index order; here every
    candidate fails to land, so each is tried once."""

    @staticmethod
    def _tried(monkeypatch, ch, lam):
        tried = []

        def never_lands(ch, k, gamma, slack):
            tried.append(k)
            return False, gamma[k]

        monkeypatch.setattr(solver, "_coordinate_roots", never_lands)
        path = _WaterFill(ch)
        signal, gamma, saturated = path.split(lam)
        _finish(ch, signal, gamma, saturated, path.users)
        a = ch.g * np.sqrt(ch.p)
        x = ch.h_p * math.sqrt(ch.p_p) + float(a @ gamma)
        slope = (a * (ch.sigma_p2 * x + ch.h_p**2 * ch.p_p * a * gamma)).tolist()
        flags = saturated.tolist()
        users = [k for k in range(ch.num_users) if ch.g[k] > 0]
        expected = sorted(users, key=lambda k: (flags[k], -slope[k], k))
        return tried, expected, saturated, slope

    def test_tied_slopes_in_index_order(self, monkeypatch):
        # users 0, 2 and 3 are the same user, so their slopes tie exactly;
        # user 1 has g = 0 and is no candidate
        ch = ChannelInstance(
            h=[1.0, 0.7, 1.0, 1.0, 0.3], g=[0.4, 0.0, 0.4, 0.4, 0.9], p=[2.0, 1.0, 2.0, 2.0, 3.0],
            h_p=1.0, p_p=4.0, sigma_p2=1.0, sigma_c2=1.0,
        )
        lam = solve_max_sum_rate(ch).lambda_star
        tried, expected, _, slope = self._tried(monkeypatch, ch, lam)
        assert slope[0] == slope[2] == slope[3]
        assert tried == expected
        assert tried.index(0) < tried.index(2) < tried.index(3)
        assert 1 not in tried

    def test_interior_before_saturated(self, monkeypatch):
        for ch in instance_suite(SUITE_SEED, 30, sizes=(3, 5, 8)):
            lam = solve_max_sum_rate(ch).lambda_star
            tried, expected, saturated, _ = self._tried(monkeypatch, ch, lam)
            assert tried == expected
            flags = [bool(saturated[k]) for k in tried]
            assert flags == sorted(flags)

    def test_all_saturated(self, monkeypatch, k2_reference):
        tried, expected, saturated, slope = self._tried(monkeypatch, k2_reference, 2.0)
        assert saturated.all()
        assert tried == expected
        assert slope[tried[0]] >= slope[tried[1]]

    def test_one_user(self, monkeypatch, unit_k1):
        tried, expected, _, _ = self._tried(monkeypatch, unit_k1, 0.2)
        assert tried == expected == [0]

    def test_root_clipped_into_range_does_not_end_the_walk(self, extreme_suite):
        # extreme-fuzz draw 121 (K = 5): at lambda* the first candidate's root
        # lies just below 0, inside the grid's 1e-12 slack, and clipped to 0
        # it does not land; the next candidate's root, about 1e-20, lands
        ch = extreme_suite[121]
        result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        assert result.residual == 0.0
        assert result.outer_iterations == 26


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
        assert result.status is SolverStatus.CONVERGED
        assert result.lambda_star == 0.0
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

    @pytest.mark.parametrize("name, most", [("k10-200", 10), ("k1-3", 8)])
    def test_median_evaluations(self, name, most):
        # a count, so the same on every machine: one root find per solve.
        # Walking every saturation event first took a median of 72 and 20,
        # a doubling bracket and Brent's method 13 and 13
        counts = [solve_max_sum_rate(ch).outer_iterations for ch in SEEDED[name]]
        assert np.median(counts) <= most

    def test_mean_evaluations_uniform(self):
        # 13.8 with a doubling bracket and Brent's method
        counts = [solve_max_sum_rate(ch).outer_iterations for ch in instance_suite(1, 450)]
        assert np.mean(counts) <= 10

    def test_tail_evaluations_wide_suite(self, wide_suite):
        # the draw at rank 290 of 300, which the benchmark's op_tail_ms
        # reads: 80 with a doubling bracket and Brent's method
        counts = sorted(solve_max_sum_rate(ch).outer_iterations for ch in wide_suite)
        assert counts[289] <= 40

    def test_mean_evaluations_extreme_fuzz(self, extreme_suite):
        # 117.1 with a doubling bracket and Brent's method, 17.7 with an
        # arithmetic halving wherever Newton's moves stopped halving
        counts = [solve_max_sum_rate(ch).outer_iterations for ch in extreme_suite]
        assert np.mean(counts) <= 11

    def test_most_evaluations_extreme_fuzz(self, extreme_suite):
        # 752 with Brent's method, 60 with a halving that cut short any run
        # of Newton steps whose moves stopped halving
        assert max(solve_max_sum_rate(ch).outer_iterations for ch in extreme_suite) <= 60

    def test_most_evaluations_limit_fuzz(self):
        # 73 with that halving
        with np.errstate(all="ignore"):  # overflow warnings remain (ROADMAP item 8)
            counts = [solve_max_sum_rate(ch).outer_iterations for ch in limit_fuzz()]
        assert max(counts) <= 73

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

    @pytest.mark.parametrize(
        "h, g, p",
        [
            ([0.0, 0.0], [0.5, 0.3], [2.0, 1.0]),
            ([0.0, 0.0, 1.0], [0.5, 0.3, 0.2], [2.0, 1.0, 1.0]),
        ],
        ids=["k2", "k3"],
    )
    def test_silent_relays_land(self, h, g, p):
        # relays with h_k = 0 saturate at lambda = 0 and overshoot phi = 0
        # together; neither can land alone, so the first one is released to 0
        # and the next lands
        ch = ChannelInstance(h=h, g=g, p=p, h_p=1.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0)
        result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        assert kkt_check(ch, result).passed

    def test_zero_gain_fuzz_converges_and_passes_kkt(self):
        # each h_k zeroed with probability 1/2: relays that cost no rate
        rng = np.random.default_rng(5)
        failed = []
        for i in range(300):
            k = int(rng.integers(1, 6))
            h = rng.uniform(0.1, 2.0, k)
            h[rng.random(k) < 0.5] = 0.0
            ch = ChannelInstance(
                h=h,
                g=rng.uniform(0.1, 2.0, k),
                p=rng.uniform(0.5, 10.0, k),
                h_p=rng.uniform(0.1, 2.0),
                p_p=rng.uniform(0.5, 10.0),
                sigma_p2=rng.uniform(0.5, 2.0),
                sigma_c2=rng.uniform(0.5, 2.0),
            )
            result = solve_max_sum_rate(ch)
            if result.status is not SolverStatus.CONVERGED or not kkt_check(ch, result).passed:
                failed.append((i, result.status.value, result.residual))
        assert not failed

    def test_no_interference_fuzz_stops_at_zero_multiplier(self):
        # every g_k = 0: phi is 0 at lambda = 0 up to rounding and no user can
        # change it, so the general path stops there after phi and gamma.
        # h log-uniform over 1e-60..1e60, the rest over 1e-20..1e20, and a
        # silent primary on every seventh draw
        rng = np.random.default_rng(12)
        failed = []
        for i in range(1000):
            k = int(rng.integers(1, 6))
            h, p = 10.0 ** rng.uniform(-60, 60, k), 10.0 ** rng.uniform(-20, 20, k)
            h_p, p_p, sigma_p2, sigma_c2 = 10.0 ** rng.uniform(-20, 20, 4)
            ch = ChannelInstance(
                h=h, g=np.zeros(k), p=p, h_p=0.0 if i % 7 == 0 else h_p, p_p=p_p,
                sigma_p2=sigma_p2, sigma_c2=sigma_c2,
            )
            result = solve_max_sum_rate(ch)
            if not (
                result.status is SolverStatus.CONVERGED
                and result.lambda_star == 0.0
                and np.all(result.gamma_star.gamma == 0.0)
                and result.outer_iterations == 2
            ):
                failed.append((i, result.status.value, result.outer_iterations))
        assert not failed

    def test_silent_primary_relays_nothing(self):
        # h_p = 0: gamma = 0 preserves the primary rate, and each relay with
        # h_k = 0, saturated at lambda = 0, is released to 0
        ch = ChannelInstance(
            h=[0.0, 1.0, 0.0], g=[0.5, 0.3, 0.2], p=[2.0, 1.0, 1.0], h_p=0.0, p_p=1.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )
        result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        assert np.all(result.gamma_star.gamma == 0.0)
        assert result.outer_iterations == 2  # phi and gamma at 0
        assert kkt_check(ch, result).passed

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


class TestWholeFloatRange:
    """Valid instances near the ends of the float range (ROADMAP item 8)."""

    def test_limit_fuzz_draw_solves(self):
        # K = 1: beta^2 underflows to 0, and the projection's slope was
        # sigma_p2 times too large, so it overflowed into a NaN gamma
        ch = limit_fuzz()[5]
        assert ch.num_users == 1
        assert isinstance(solve_max_sum_rate(ch), solver.SolverResult)

    def test_limit_fuzz_solves_without_exception(self):
        # 10 draws raised ZeroDivisionError where (h_k / g_k)^2 overflowed
        with np.errstate(all="ignore"):  # overflow warnings remain (ROADMAP item 8)
            results = [solve_max_sum_rate(ch) for ch in limit_fuzz()]
        assert all(isinstance(r, solver.SolverResult) for r in results)

    def test_faint_interference_solves(self, k2_reference):
        # (h_k / g_k)^2 = 1e320 overflowed, and the first bracket divided by 0
        ch = dataclasses.replace(k2_reference, g=[1e-160, 1e-160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED
        assert kkt_check(ch, result).passed

    def test_extreme_fuzz_converges_without_new_kkt_failures(self, extreme_suite):
        # 24 of the 400 fail kkt_check, 19 of them false alarms (ROADMAP item
        # 1); stopping on a step that crosses a saturation made it 33
        results = [(ch, solve_max_sum_rate(ch)) for ch in extreme_suite]
        assert all(r.status is SolverStatus.CONVERGED for _, r in results)
        assert sum(not kkt_check(ch, r).passed for ch, r in results) <= 24

    def test_step_across_a_saturation_does_not_stop(self, extreme_suite):
        # extreme draw 114 (K = 3): phi is flat up to user 1's pole near
        # 1.03e-74, where Newton's step is below an ulp, but user 1
        # saturates within that ulp and lambda* lies near 2.34e-53
        ch = extreme_suite[114]
        result = solve_max_sum_rate(ch)
        assert result.lambda_star == pytest.approx(2.3421565923e-53, rel=1e-9)
        assert kkt_check(ch, result).passed

    def test_huge_primary_noise_does_not_overflow(self, k2_reference):
        ch = dataclasses.replace(k2_reference, sigma_p2=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_max_sum_rate(ch)
        assert result.status is SolverStatus.CONVERGED

    def test_sweep_range_skips_the_fallback_it_does_not_take(self, k2_reference):
        # the range is user 1's pole, and max(s_p, sigma_p2) / sigma_p2^2
        # would overflow
        ch = dataclasses.replace(k2_reference, sigma_p2=1e308)
        with np.errstate(all="ignore"):  # `_phi` still overflows (ROADMAP item 8)
            traj = sweep_trajectory(ch, None, 5)
        assert _sweep_range(ch, SolverConfig()) == (traj.lam[-1], "pole")

    def test_huge_primary_noise_states_do_not_warn(self, k2_reference):
        # r (A + s_j) and r Q_j overflowed in the prefix test
        ch = dataclasses.replace(k2_reference, sigma_p2=1e308)
        grid = np.linspace(0.0, _sweep_range(ch, SolverConfig())[0], 21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, gamma, _ = _WaterFill(ch).states(grid)
        assert np.isfinite(gamma).all()

    def test_sweep_pole_past_the_float_range(self):
        # with no evaluation to spare, the range is the pole, (h / g)^2 / s_p
        # = 1e320, which overflowed into lambda_max = inf; w / a / a / s_p
        # overflows too, and is capped at the largest float
        ch = ChannelInstance(h=[1e150], g=[1e-10], p=[1.0], h_p=1.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0)
        traj = sweep_trajectory(ch, None, 5, SolverConfig(max_outer_iters=1))
        assert traj.lam[-1] == sys.float_info.max
        assert _sweep_range(ch, SolverConfig(max_outer_iters=1)) == (traj.lam[-1], "pole")

    @pytest.mark.parametrize("sigma_p2", [1e-300, 1e-200, 1e200, 1e300])
    def test_sweep_fallback_range_is_finite(self, k2_no_interference, sigma_p2):
        # no interference, so lambda* = 0 and no pole: max(s_p, sigma_p2) /
        # sigma_p2^2 by way of sigma_p2^2 overflowed or divided by zero
        ch = dataclasses.replace(k2_no_interference, sigma_p2=sigma_p2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = sweep_trajectory(ch, None, 5)
        assert 0.0 < traj.lam[-1] < math.inf
        assert _sweep_range(ch, SolverConfig()) == (traj.lam[-1], "fallback")

    @pytest.mark.parametrize("draw", [98, 365])
    def test_split_holds_no_negative_zero(self, extreme_suite, draw):
        # the draws whose projection clips a root of -0 to 0
        gamma = solve_max_sum_rate(extreme_suite[draw]).gamma_star.gamma
        assert 0.0 in gamma
        assert not np.signbit(gamma).any()


def _sweep_range(ch, cfg):
    """The sweep's default range, with its branch, from a whole solve and the
    pole written out: 1.25 lambda*, else the least pole (h_k / g_k)^2 / s_p >
    0, as h_k^2 P_k / a_k / a_k / s_p over the users with a_k = g_k sqrt(P_k)
    > 0, else max(s_p, sigma_p2) / sigma_p2^2 as max(s_p / sigma_p2, 1) /
    sigma_p2; either at most the largest float."""
    lam = solve_max_sum_rate(ch, cfg).lambda_star
    if lam > 0:
        return 1.25 * lam, "lambda*"
    users = ch.a > 0
    if ch.s_p > 0 and users.any():
        with np.errstate(over="ignore"):
            poles = ch.h[users] ** 2 * ch.p[users] / ch.a[users] / ch.a[users] / ch.s_p
        if (poles > 0).any():
            return min(float(np.min(poles[poles > 0])), sys.float_info.max), "pole"
    return min(max(ch.s_p / ch.sigma_p2, 1.0) / ch.sigma_p2, sys.float_info.max), "fallback"


class TestSweepTrajectory:
    @pytest.mark.parametrize("iters", [200_000, 2, 8])
    def test_default_range(self, iters):
        names = ["k1_unit", "k2_reference", "k2_no_interference"]
        golden = ["k3_two_events", "k2_silent_relays", "k1_extreme_draw29", "k2_relay_and_user"]
        paths = [SCENARIOS / f"{n}.json" for n in names] + [GOLDEN / f"{n}.json" for n in golden]
        cases = [load_scenario(str(p))[0] for p in paths] + instance_suite(1, 90)
        cfg, branches = SolverConfig(max_outer_iters=iters), set()
        for ch in cases:
            lambda_max, branch = _sweep_range(ch, cfg)
            branches.add(branch)
            expected = sweep_trajectory(ch, lambda_max, 21)
            traj = sweep_trajectory(ch, None, 21, cfg)
            for name in (f.name for f in dataclasses.fields(traj)):
                np.testing.assert_array_equal(getattr(traj, name), getattr(expected, name))
        assert branches == ({"lambda*", "pole", "fallback"} if iters > 2 else {"pole", "fallback"})

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
