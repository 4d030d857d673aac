"""Channel and distillation formula tests.

Derived expectations are computed here by direct substitution (exact
Fraction arithmetic where possible), independently of the library code.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetperc.quantum import (ALPHA_STAR, RANGE_MODES, ChannelModel, DistillationParams,
                              ModelParams, bbpssw_fidelity, bbpssw_success, channel_p,
                              fidelity_of_p, nested_distill, swap_p)

CH = ChannelModel(d0_km=100.0, epsilon=0.01)


def model(distill: DistillationParams, channel: ChannelModel = CH, **kw) -> ModelParams:
    return ModelParams(channel=channel, distill=distill, **kw)


def success_oracle(f: Fraction) -> Fraction:
    return f * f + 2 * f * (1 - f) / 3 + 5 * ((1 - f) / 3) ** 2


def fidelity_oracle(f: Fraction) -> Fraction:
    num = f * f + (1 - f) ** 2 / 9
    return num / success_oracle(f)


class TestChannel:
    def test_zero_distance(self):
        assert channel_p(0.0, CH) == 1.0

    def test_decoherence_distance(self):
        assert channel_p(100.0, CH) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_separability_boundary(self):
        # at d = d0*ln(3) the weight is 1/3, i.e. fidelity exactly 0.5
        d = CH.beta_km
        assert channel_p(d, CH) == pytest.approx(1 / 3, rel=1e-12)
        assert fidelity_of_p(channel_p(d, CH)) == pytest.approx(0.5, rel=1e-12)

    def test_unreachable_gives_zero(self):
        assert channel_p(math.inf, CH) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            channel_p(-1.0, CH)

    def test_fidelity_endpoints(self):
        assert fidelity_of_p(1.0) == 1.0
        assert fidelity_of_p(0.0) == 0.25
        assert fidelity_of_p(1 / 3) == pytest.approx(0.5, rel=1e-15)

    def test_fidelity_domain(self):
        with pytest.raises(ValueError):
            fidelity_of_p(1.2)
        with pytest.raises(ValueError):
            fidelity_of_p(-0.1)

    def test_beta_recomputed(self):
        assert CH.beta_km == 100.0 * math.log(3.0)


class TestBBPSSW:
    def test_success_worst_case(self):
        # headline worst-case success probability at F = 0.75
        assert bbpssw_success(0.75) == pytest.approx(0.7222, abs=1e-4)

    def test_success_perfect(self):
        assert bbpssw_success(1.0) == 1.0

    def test_success_maximally_mixed(self):
        expected = success_oracle(Fraction(1, 4))  # = 1/2
        assert expected == Fraction(1, 2)
        assert bbpssw_success(0.25) == pytest.approx(float(expected), rel=1e-15)

    def test_fidelity_fixed_points(self):
        assert bbpssw_fidelity(1.0) == 1.0
        assert bbpssw_fidelity(0.25) == pytest.approx(0.25, rel=1e-14)
        assert bbpssw_fidelity(0.5) == pytest.approx(0.5, rel=1e-14)

    def test_fidelity_at_09(self):
        expected = fidelity_oracle(Fraction(9, 10))
        assert expected == Fraction(365, 394)
        assert bbpssw_fidelity(0.9) == pytest.approx(float(expected), rel=1e-12)

    def test_fidelity_improves_above_half(self):
        # fixed points at 0.25, 0.5 and 1; improvement strictly between 0.5 and 1
        for f in np.linspace(0.25, 1.0, 121):
            out = bbpssw_fidelity(float(f))
            if 0.5 < f < 1.0 and not math.isclose(f, 0.5):
                assert out > f
            elif 0.25 < f < 0.5:
                assert out < f

    def test_asymptotic_gain(self):
        # 1 - F' = (2/3) delta + O(delta^2), coefficient bounded by 5 delta^2
        for delta in (1e-3, 5e-4, 1e-4, 1e-5):
            f = 1.0 - delta
            gap = 1.0 - bbpssw_fidelity(f)
            assert abs(gap - (2 / 3) * delta) <= 5 * delta * delta

    def test_domain(self):
        for bad in (0.2, 1.01, -1.0):
            with pytest.raises(ValueError):
                bbpssw_success(bad)
            with pytest.raises(ValueError):
                bbpssw_fidelity(bad)


class TestNestedDistill:
    def test_single_pair_is_identity(self):
        assert nested_distill(0.8, 1, mode="exact") == 0.8
        assert nested_distill(0.8, 1, mode="asymptotic") == pytest.approx(0.8)

    def test_two_pairs_is_one_step(self):
        assert nested_distill(0.8, 2, mode="exact") == bbpssw_fidelity(0.8)

    def test_asymptotic_four_pairs(self):
        # 1 - (2/3)^2 * (1 - 0.99) = 1 - (4/9)*0.01
        expected = 1 - Fraction(4, 9) * Fraction(1, 100)
        assert nested_distill(0.99, 4, mode="asymptotic") == pytest.approx(
            float(expected), rel=1e-12)

    def test_non_power_of_two_floors(self):
        # 5 pairs run floor(log2 5) = 2 rounds, same as 4 pairs
        assert nested_distill(0.9, 5, mode="exact") == nested_distill(0.9, 4, mode="exact")

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            nested_distill(0.9, 0)
        with pytest.raises(ValueError):
            nested_distill(0.9, 4, mode="sideways")


class TestRanges:
    def test_no_memory_constant(self):
        # m=1: r0/d0 = (4/3)*0.01 = 0.013333, which rounds to the headline 0.013
        d = DistillationParams(m=1, alpha=0.585)
        r = model(d).base_range_km()
        assert r / CH.d0_km == pytest.approx(4 / 3 * 0.01, rel=1e-12)
        assert float(f"{r / CH.d0_km:.2g}") == 0.013

    def test_point_to_point_constant(self):
        # m=102, alpha=0.585: r0/d0 = (4/3)*0.01*102^0.585 = 0.1995 ~ 0.2
        d = DistillationParams(m=102, alpha=0.585)
        r = model(d).base_range_km()
        assert r / CH.d0_km == pytest.approx(0.2, rel=0.01)
        assert r / CH.d0_km == pytest.approx(4 / 3 * 0.01 * 102 ** 0.585, rel=1e-12)

    def test_cap_saturation(self):
        # big epsilon pushes the exact formula past the separability boundary
        ch = ChannelModel(d0_km=100.0, epsilon=0.5)
        d = DistillationParams(m=4, alpha=0.585)
        assert (4 / 3) * 0.5 * 4 ** 0.585 >= 1.0
        assert model(d, ch, range_mode="exact").base_range_km() == ch.beta_km
        assert model(d, ch, range_mode="exact", beta_cap=False).base_range_km() == math.inf

    @pytest.mark.parametrize("mode", RANGE_MODES)
    def test_an_overflowing_power_is_infinite(self, mode):
        # 102 ** 200 is past the largest float, so the range is the formula's
        # limit: beta with the cap, inf without
        d = DistillationParams(m=102, alpha=200.0)
        with pytest.raises(OverflowError):
            102 ** d.effective_exponent
        assert model(d, range_mode=mode).base_range_km() == CH.beta_km
        assert model(d, range_mode=mode, beta_cap=False).base_range_km() == math.inf

    def test_component_range_reduces_to_base(self):
        p = model(DistillationParams(m=7, alpha=0.7))
        assert p.component_range_km(1) == p.base_range_km()

    def test_component_range_doubling(self):
        d = DistillationParams(m=3, alpha=0.585, eta=0.9)
        e = d.effective_exponent
        p = model(d)
        for s in (1, 2, 5, 17):
            ratio = p.component_range_km(2 * s) / p.component_range_km(s)
            assert ratio == pytest.approx(2 ** e, rel=1e-12)

    def test_component_range_example(self):
        # s=4, m=102, alpha=0.585, eps=0.01: (4/3)*0.01*408^0.585 * d0
        d = DistillationParams(m=102, alpha=0.585)
        r = model(d, beta_cap=False).component_range_km(4)
        assert r / CH.d0_km == pytest.approx(4 / 3 * 0.01 * 408 ** 0.585, rel=1e-12)
        assert r / CH.d0_km == pytest.approx(0.44893, abs=5e-5)

    def test_exact_vs_asymptotic_agreement(self):
        # -ln(1-x) <= x/(1-x), so within 12% relative while x <= 0.2
        for eps in (0.001, 0.01, 0.05):
            for m in (1, 2, 8, 64):
                d = DistillationParams(m=m, alpha=0.585)
                x = (4 / 3) * eps * m ** d.effective_exponent
                if x > 0.2:
                    continue
                ch = ChannelModel(d0_km=100.0, epsilon=eps)
                exact = model(d, ch, range_mode="exact", beta_cap=False).base_range_km()
                asym = model(d, ch, beta_cap=False).base_range_km()
                assert abs(exact - asym) / asym <= 0.12

    def test_size_growth_off_freezes_range(self):
        p = model(DistillationParams(m=9, alpha=0.585), size_growth=False)
        assert p.component_range_km(50) == p.base_range_km()

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            model(DistillationParams(m=1)).component_range_km(0)


class TestSwap:
    def test_trivial_legs(self):
        assert swap_p(1.0, 0.7) == 0.7
        assert swap_p(0.0, 0.7) == 0.0

    def test_exponent_algebra(self):
        assert swap_p(math.exp(-2), math.exp(-3)) == pytest.approx(
            math.exp(-5), rel=1e-14)

    @given(st.floats(0.0, 500.0), st.floats(0.0, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_additive_in_distance(self, d1, d2):
        lhs = swap_p(channel_p(d1, CH), channel_p(d2, CH))
        rhs = channel_p(d1 + d2, CH)
        assert abs(lhs - rhs) <= 16 * np.spacing(max(lhs, rhs))

    def test_domain(self):
        with pytest.raises(ValueError):
            swap_p(1.2, 0.5)


class TestContractionIdentity:
    @given(st.integers(1, 400), st.integers(1, 400),
           st.floats(0.1, 1.5), st.integers(1, 50))
    @settings(max_examples=300, deadline=None)
    def test_folding_ranges_matches_pooled_size(self, sa, sb, alpha, m):
        import mpmath
        mpmath.mp.dps = 50
        p = model(DistillationParams(m=m, alpha=alpha), beta_cap=False)
        e = p.distill.effective_exponent
        ra, rb, merged = map(p.component_range_km, (sa, sb, sa + sb))
        inv = mpmath.mpf(1) / e
        folded = float((mpmath.mpf(ra) ** inv + mpmath.mpf(rb) ** inv) ** mpmath.mpf(e))
        assert abs(folded - merged) <= 8 * np.spacing(merged)


class TestParamValidation:
    def test_channel_model(self):
        for d0 in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ChannelModel(d0_km=d0, epsilon=0.01)
        with pytest.raises(ValueError):
            ChannelModel(d0_km=10.0, epsilon=1.0)

    def test_distill_params(self):
        with pytest.raises(ValueError):
            DistillationParams(m=0)
        for alpha in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                DistillationParams(m=1, alpha=alpha)
        with pytest.raises(ValueError):
            DistillationParams(m=1, eta=0.0)

    def test_alpha_star_value(self):
        assert ALPHA_STAR == pytest.approx(0.5849625007211562, rel=1e-15)

    def test_model_params_mode(self):
        with pytest.raises(ValueError):
            ModelParams(channel=CH, distill=DistillationParams(m=1),
                        range_mode="linear")
