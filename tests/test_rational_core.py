"""Periodicity and one-tap multiplier constructions."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from zflim.errors import PrecisionExhausted
from zflim.rational_core import (
    MONOTONE,
    ODD,
    FirMultiplier,
    RationalFrequency,
    _bound_fraction,
    _phase_fraction,
    construct_tight_multiplier,
    irrational_approx_multiplier,
    period,
)
from zflim.phase_limits import coprime_pairs, phase_bound


class TestRationalFrequency:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            RationalFrequency(2, 4)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            RationalFrequency(3, 2)

    def test_omega(self):
        assert RationalFrequency(1, 2).omega == pytest.approx(math.pi / 2)


class TestPeriod:
    @pytest.mark.parametrize(
        "alpha,beta,expected", [(1, 2, 4), (2, 3, 3), (1, 1, 2), (4, 7, 7), (3, 7, 14)]
    )
    def test_known_values(self, alpha, beta, expected):
        assert period(RationalFrequency(alpha, beta)) == expected

    def test_minimality_and_periodicity(self):
        # float periodicity plus exact minimality over every divisor
        for beta in range(1, 201):
            for alpha in range(1, beta + 1):
                if math.gcd(alpha, beta) != 1:
                    continue
                rf = RationalFrequency(alpha, beta)
                t = period(rf)
                i = np.arange(t)
                seq = np.exp(-1j * rf.omega * i)
                shifted = np.exp(-1j * rf.omega * (i + t))
                assert np.max(np.abs(seq - shifted)) < 1e-12
                for d in range(1, t):
                    if t % d == 0:
                        # e^{-j*omega*d} != 1 exactly iff alpha*d not divisible by 2*beta
                        assert (alpha * d) % (2 * beta) != 0


class TestFirMultiplier:
    def test_rejects_center_tap(self):
        with pytest.raises(ValueError):
            FirMultiplier({0: 0.5}, MONOTONE)

    def test_rejects_excess_norm(self):
        with pytest.raises(ValueError):
            FirMultiplier({1: 0.7, -1: 0.7}, ODD)

    def test_monotone_rejects_negative_taps(self):
        with pytest.raises(ValueError):
            FirMultiplier({1: -0.5}, MONOTONE)

    def test_response(self):
        m = FirMultiplier({1: 1.0}, MONOTONE)  # 1 - z^{-1}
        w = 2 * math.pi / 3
        assert abs(m.response(w) - (1.0 - cmath.exp(-1j * w))) < 1e-15


class TestConstructTight:
    def test_worked_example_4_7_odd(self):
        rf = RationalFrequency(4, 7)
        m = construct_tight_multiplier(rf, ODD, +1)
        assert m.phase_at(rf.omega) == pytest.approx(3 * math.pi / 7, abs=1e-12)
        assert m.taps in ({-5: -1.0}, {5: -1.0})
        m_neg = construct_tight_multiplier(rf, ODD, -1)
        assert m_neg.phase_at(rf.omega) == pytest.approx(-3 * math.pi / 7, abs=1e-12)

    def test_2_3_monotone(self):
        rf = RationalFrequency(2, 3)
        for sign in (+1, -1):
            m = construct_tight_multiplier(rf, MONOTONE, sign)
            # oracle: phase of 1 - e^{j*theta} is (theta - pi)/2
            assert m.phase_at(rf.omega) == pytest.approx(sign * math.pi / 6, abs=1e-12)
            assert all(v > 0 for v in m.taps.values())

    def test_1_2_odd(self):
        rf = RationalFrequency(1, 2)
        for sign in (+1, -1):
            m = construct_tight_multiplier(rf, ODD, sign)
            assert m.phase_at(rf.omega) == pytest.approx(sign * math.pi / 4, abs=1e-12)

    def test_valid_class_members_up_to_50(self):
        for rf in coprime_pairs(50):
            for cls in (MONOTONE, ODD):
                for sign in (+1, -1):
                    m = construct_tight_multiplier(rf, cls, sign)
                    assert m.class_tag == cls
                    assert abs(m.l1_norm - 1.0) < 1e-15
                    got = m.phase_at(rf.omega)
                    assert abs(got - sign * phase_bound(rf, cls)) < 1e-12


    def test_tap_meets_the_bound_exactly_up_to_200(self):
        for rf in coprime_pairs(200):
            for cls in (MONOTONE, ODD):
                for sign in (+1, -1):
                    (index, tap), = construct_tight_multiplier(rf, cls, sign).taps.items()
                    # M = 1 - tap * z^{-index}
                    got = _phase_fraction(int(tap), -index, rf)
                    assert got == sign * _bound_fraction(rf, cls), (rf, cls, sign)
                    assert abs(index) < 2 * rf.beta
                    assert cls == ODD or tap > 0.0


class TestIrrationalApprox:
    def test_inverse_sqrt2(self):
        gamma = 1.0 / math.sqrt(2.0)
        m = irrational_approx_multiplier(gamma, 0.05)
        assert m.class_tag == MONOTONE
        assert abs(m.phase_at(gamma * math.pi)) > math.pi / 2 - 0.05

    def test_rational_input_with_loose_epsilon(self):
        m = irrational_approx_multiplier(0.5, 0.8)
        assert abs(m.phase_at(math.pi / 2)) > math.pi / 2 - 0.8

    def test_float_near_one_third_needs_deep_tree(self):
        gamma = 0.3333333333
        m = irrational_approx_multiplier(gamma, 0.01)
        (index, tap), = m.taps.items()
        assert tap == 1.0
        assert abs(index) >= 158  # pi/(2q) < 0.01 demands q >= 158
        # exact-phase oracle at the float's true rational value
        gfrac = Fraction(*gamma.as_integer_ratio())
        f = (-index * gfrac) % 2  # exponent of the tap in 1 - z^{e} form is -index
        phase = float((f - 1) / 2) * math.pi
        assert abs(phase) > math.pi / 2 - 0.01

    def test_precision_exhausted_for_tiny_epsilon_on_rational(self):
        with pytest.raises(PrecisionExhausted):
            irrational_approx_multiplier(0.5, 1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            irrational_approx_multiplier(1.5, 0.1)
        with pytest.raises(ValueError):
            irrational_approx_multiplier(0.5, 0.0)
