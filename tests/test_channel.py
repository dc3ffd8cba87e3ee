import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogmac import (
    ChannelInstance,
    DimensionMismatchError,
    PowerSplit,
    baseline_primary_rate,
    feasibility_residual,
    primary_rate,
    relative_residual,
    sum_rate,
)
from cogmac.channel import _coordinate_roots, _primary_terms
from conftest import bisect_root


def coordinate_root(ch, k, gamma, slack=1e-12):
    """`_coordinate_roots` for gamma_k on one split (K,), in floats, or on
    n splits (n, K), in columns, with S' and L at gamma_k = 0 summed from
    the split; its column k is ignored."""
    rest = np.array(gamma, dtype=float)
    rest[..., k] = 0.0
    return _coordinate_roots(ch, k, *_primary_terms(ch, rest), slack)


def make_instance(rng, k):
    return ChannelInstance(
        h=rng.uniform(0.1, 2.0, k),
        g=rng.uniform(0.1, 2.0, k),
        p=rng.uniform(0.5, 10.0, k),
        h_p=rng.uniform(0.1, 2.0),
        p_p=rng.uniform(0.5, 10.0),
        sigma_p2=rng.uniform(0.5, 2.0),
        sigma_c2=rng.uniform(0.5, 2.0),
    )


class TestValidation:
    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            ChannelInstance(h=[1], g=[1], p=[-1], h_p=1, p_p=1, sigma_p2=1, sigma_c2=1)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            ChannelInstance(h=[1], g=[1], p=[1], h_p=1, p_p=1, sigma_p2=0, sigma_c2=1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ChannelInstance(h=[1, 1], g=[1], p=[1, 1], h_p=1, p_p=1, sigma_p2=1, sigma_c2=1)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            PowerSplit(np.array([1.2]))
        with pytest.raises(ValueError):
            PowerSplit(np.array([-0.1]))

    def test_split_leaves_callers_array_alone(self):
        gamma = np.array([-0.0, 0.5])
        split = PowerSplit(gamma)
        assert gamma.flags.writeable and np.signbit(gamma[0])
        assert not split.gamma.flags.writeable and split.gamma.base is None
        assert not np.signbit(split.gamma).any()


class TestDerivedTerms:
    """The constant terms an instance derives once: read-only, not fields,
    and bitwise equal to the expressions the kernels evaluated in their
    place."""

    NAMES = ("s_p", "primary_amplitude", "a", "a2", "t", "h2", "residual_scale")

    @staticmethod
    def _expected(ch):
        s_p = ch.h_p**2 * ch.p_p
        a = ch.g * np.sqrt(ch.p)
        return {
            "s_p": s_p,
            "primary_amplitude": ch.h_p * math.sqrt(ch.p_p),
            "a": a,
            "a2": a * a,
            "t": s_p / ch.sigma_p2,
            "h2": ch.h**2,
            "residual_scale": max(s_p * float(np.sum(a * a)), ch.sigma_p2 * s_p),
        }

    @staticmethod
    def _bits(value):
        return np.asarray(value, dtype=float).tobytes()

    def test_bitwise_equal_to_the_expressions(self):
        rng = np.random.default_rng(5)
        suite = [make_instance(rng, k) for k in (1, 2, 3, 50)]
        suite.append(ChannelInstance(  # many decades apart, and zeros
            h=[3.8e33, 0.0, 1e-12], g=[3.5e-10, 2e5, 0.0], p=[2.1e-15, 7e19, 1.0],
            h_p=4.2e15, p_p=6.6e7, sigma_p2=1135.05, sigma_c2=1.9e7,
        ))
        for ch in suite:
            for name, value in self._expected(ch).items():
                assert self._bits(getattr(ch, name)) == self._bits(value), name

    def test_read_only(self, k2_reference):
        for name in self.NAMES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(k2_reference, name, 0.0)
        for name in ("a", "a2", "h2"):
            with pytest.raises(ValueError):
                getattr(k2_reference, name)[0] = 0.0

    def test_replace_derives_them_again(self, k2_reference):
        ch = dataclasses.replace(k2_reference, h=[0.5, 2.0], g=[0.1, 0.3], p=[3.0, 7.0], p_p=2.5)
        for name, value in self._expected(ch).items():
            assert self._bits(getattr(ch, name)) == self._bits(value), name
        assert ch.s_p != k2_reference.s_p

    def test_not_fields(self, k2_reference):
        fields = {f.name for f in dataclasses.fields(ChannelInstance)}
        assert fields == {"h", "g", "p", "h_p", "p_p", "sigma_p2", "sigma_c2", "f"}
        text = repr(k2_reference)
        assert not any(f"{name}=" in text for name in self.NAMES)

    def test_scenario_echo_unchanged(self, k2_reference):
        from cogmac.cli import scenario_echo

        assert scenario_echo(k2_reference, "ref") == {
            "h": [1.0, 0.8], "g": [0.4, 0.2], "p": [5.0, 5.0], "h_p": 1.0, "p_p": 10.0,
            "sigma_p2": 1.0, "sigma_c2": 1.0, "f": 0.0, "name": "ref",
        }


class TestBaselinePrimaryRate:
    def test_zero_gain_primary(self):
        ch = ChannelInstance(h=[1], g=[1], p=[1], h_p=0.0, p_p=1.0, sigma_p2=1.0, sigma_c2=1.0)
        assert baseline_primary_rate(ch) == 0.0

    def test_direct_evaluation(self):
        ch = ChannelInstance(h=[1], g=[1], p=[1], h_p=1.0, p_p=10.0, sigma_p2=1.0, sigma_c2=1.0)
        assert baseline_primary_rate(ch) == pytest.approx(0.5 * math.log2(11.0), abs=1e-12)

    def test_snr_exactly_one(self):
        ch = ChannelInstance(h=[1], g=[1], p=[1], h_p=2.0, p_p=1.0, sigma_p2=4.0, sigma_c2=1.0)
        assert baseline_primary_rate(ch) == pytest.approx(0.5, abs=1e-15)


class TestPrimaryRate:
    def test_no_interference_path_equals_baseline(self):
        ch = ChannelInstance(h=[1, 1], g=[0, 0], p=[1, 2], h_p=1.0, p_p=3.0, sigma_p2=1.0, sigma_c2=1.0)
        for gamma in ([0.0, 0.0], [0.5, 0.9], [1.0, 1.0]):
            assert primary_rate(ch, PowerSplit(np.array(gamma))) == pytest.approx(
                baseline_primary_rate(ch), abs=1e-14
            )

    def test_single_user_no_cooperation(self, unit_k1):
        rate = primary_rate(unit_k1, PowerSplit(np.array([0.0])))
        assert rate == pytest.approx(0.5 * math.log2(1.5), abs=1e-12)

    def test_single_user_full_cooperation(self, unit_k1):
        rate = primary_rate(unit_k1, PowerSplit(np.array([1.0])))
        assert rate == pytest.approx(0.5 * math.log2(5.0), abs=1e-12)

    def test_dimension_mismatch(self, unit_k1):
        with pytest.raises(DimensionMismatchError):
            primary_rate(unit_k1, PowerSplit(np.array([0.0, 0.0])))


class TestFeasibilityResidual:
    def setup_method(self):
        self.ch = ChannelInstance(
            h=[1.0, 1.0], g=[0.4, 0.2], p=[5.0, 5.0], h_p=1.0, p_p=10.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )

    def test_zero_split_identity(self):
        phi = feasibility_residual(self.ch, PowerSplit.zeros(2))
        assert phi == pytest.approx(-10.0, abs=1e-12)

    def test_all_ones(self):
        phi = feasibility_residual(self.ch, PowerSplit.ones(2))
        expected = (math.sqrt(10.0) + 0.6 * math.sqrt(5.0)) ** 2 - 10.0
        assert phi == pytest.approx(expected, abs=1e-10)
        assert phi == pytest.approx(10.285, abs=1e-3)

    def test_no_interference_always_zero(self, k2_no_interference):
        for gamma in ([0.0, 0.3], [1.0, 0.7]):
            phi = feasibility_residual(k2_no_interference, PowerSplit(np.array(gamma)))
            assert phi == 0.0


class TestSumRate:
    def test_all_ones_is_zero(self, k2_reference):
        assert sum_rate(k2_reference, PowerSplit.ones(2)) == 0.0

    def test_direct_evaluation(self, k2_reference):
        rate = sum_rate(k2_reference, PowerSplit.zeros(2))
        assert rate == pytest.approx(0.5 * math.log2(9.2), abs=1e-12)

    def test_single_user_optimum_value(self, unit_k1):
        gamma = (math.sqrt(3.0) - 1.0) / 2.0
        rate = sum_rate(unit_k1, PowerSplit(np.array([gamma])))
        assert rate == pytest.approx(0.5 * math.log2(2.0 - gamma**2), abs=1e-12)
        assert rate == pytest.approx(0.4500, abs=1e-4)


class TestSolveFeasibleCoordinate:
    """`_coordinate_roots`, the projection of one coordinate of a full split
    onto phi = 0: for one split it returns (ok, root) as floats, and for n
    splits as columns that agree with them row by row."""

    def test_single_user_closed_root(self, unit_k1):
        ok, root = coordinate_root(unit_k1, 0, np.zeros(1))
        assert ok
        assert root == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, abs=1e-12)
        split = PowerSplit(np.array([root]))
        assert primary_rate(unit_k1, split) == pytest.approx(
            baseline_primary_rate(unit_k1), abs=1e-12
        )

    def test_zero_residual_returns_zero(self):
        ch = ChannelInstance(
            h=[1.0, 1.0], g=[1.0, 1.0], p=[1.0, 1.0], h_p=1.0, p_p=1.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )
        # put the other coordinate exactly on the constraint with gamma_0 = 0
        ok, other = coordinate_root(ch, 1, np.zeros(2))
        assert ok
        ok, root = coordinate_root(ch, 0, np.array([0.0, other]))
        assert ok
        assert root == pytest.approx(0.0, abs=1e-9)

    def test_silent_primary_with_nothing_relayed(self):
        # h_p = 0: phi = sigma_p2 (x gamma_0 + S')^2, with the double root
        # -S' / x.  For S' = 0 the rationalised root's denominator vanishes
        ch = ChannelInstance(
            h=[1.0, 1.0], g=[1.0, 1.0], p=[1.0, 1.0], h_p=0.0, p_p=1.0,
            sigma_p2=1.0, sigma_c2=1.0,
        )
        with np.errstate(all="raise"):
            assert coordinate_root(ch, 0, np.zeros(2)) == (True, 0.0)
            assert not coordinate_root(ch, 0, np.array([0.0, 0.5]))[0]

    @staticmethod
    def _agrees_with_bisection(ch, splits):
        """gamma_0 solved on every row of splits (n, K) by one batch call
        agrees with the call on that row alone and, where phi changes sign
        on [0, 1], with plain bisection."""
        mask, roots = coordinate_root(ch, 0, splits)
        for split, ok, batch_root in zip(splits, mask, roots):
            alone = coordinate_root(ch, 0, split)
            assert alone == (ok, batch_root)
            root = float(batch_root) if ok else None
            rest = split[1:]
            phi = lambda g0, rest=rest: feasibility_residual(
                ch, PowerSplit(np.array([g0, *rest]))
            )
            if phi(0.0) * phi(1.0) > 0:
                assert root is None or min(abs(phi(root)), 1) <= 1e-9
                continue
            expected = bisect_root(phi, 0.0, 1.0)
            assert root == pytest.approx(expected, abs=1e-9, rel=1e-9)
            assert relative_residual(ch, PowerSplit(np.array([root, *rest]))) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_bisection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 2)
        # row 0 is the single projection; the batch adds 15 more on the same
        # seed.  The kernel ignores column 0, so it holds ones
        rest = np.vstack([rng.uniform(0.0, 1.0, 1), rng.uniform(0.0, 1.0, (15, 1))])
        self._agrees_with_bisection(ch, np.hstack([np.ones_like(rest), rest]))

    @pytest.mark.parametrize("h_p", [0.0, 1e-300, 1e-8])
    def test_agrees_with_bisection_oracle_faint_primary(self, h_p):
        # three users and a primary that is silent, underflows when squared,
        # or is faint: phi has a root only where the others relay little, and
        # the "-" root of the quadratic is never the one in [0, 1]
        rng = np.random.default_rng(9)
        ch = dataclasses.replace(make_instance(rng, 3), h_p=h_p)
        splits = rng.uniform(0.0, 1.0, (16, 3)) * np.logspace(-15, 0, 16)[:, None]
        splits[0] = 0.0
        self._agrees_with_bisection(ch, splits)


class TestInvariants:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_residual_iff_rate_preserved(self, seed):
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 2)
        gamma = PowerSplit(rng.uniform(0.0, 1.0, 2))
        res = relative_residual(ch, gamma)
        gap = abs(primary_rate(ch, gamma) - baseline_primary_rate(ch))
        if res <= 1e-12:
            assert gap <= 1e-7
        if gap <= 1e-13:
            assert res <= 1e-9
        # and on a point projected onto the constraint both hold at once
        ok, root = coordinate_root(ch, 0, gamma.gamma)
        if ok:
            feasible = PowerSplit(np.array([root, gamma.gamma[1]]))
            assert relative_residual(ch, feasible) <= 1e-9
            assert abs(
                primary_rate(ch, feasible) - baseline_primary_rate(ch)
            ) <= 1e-8

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sum_rate_strictly_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 3)
        gamma = rng.uniform(0.05, 0.95, 3)
        base = sum_rate(ch, PowerSplit(gamma))
        eps = 1e-6
        for k in range(3):
            bumped = gamma.copy()
            bumped[k] += eps
            assert sum_rate(ch, PowerSplit(bumped)) < base

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_zero_split_residual_identity(self, seed):
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 3)
        phi = feasibility_residual(ch, PowerSplit.zeros(3))
        expected = -(ch.h_p**2) * ch.p_p * float(np.sum(ch.g**2 * ch.p))
        assert phi == pytest.approx(expected, rel=1e-13)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_full_split_residual_positive(self, seed):
        rng = np.random.default_rng(seed)
        ch = make_instance(rng, 2)
        assert feasibility_residual(ch, PowerSplit.ones(2)) > 0
