"""Phase caps, single-frequency certificates and the slope-bound scan."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import KNOWN_SINGLE_FREQ
from zflim import phase_limits
from zflim.errors import NotStable
from zflim.lti_core import TransferFunction, evaluate, shift_by_inverse_gain
from zflim.phase_limits import (
    _cone_slopes,
    coprime_pairs,
    phase_bound,
    scan_upper_bound,
    single_freq_certificate,
    single_freq_upper_bound,
)
from zflim.rational_core import (
    MONOTONE,
    ODD,
    RationalFrequency,
    _bound_fraction,
    _cone_denominator,
    construct_tight_multiplier,
)


def constant(value):
    return TransferFunction([value], [1.0])


class TestPhaseBound:
    @pytest.mark.parametrize(
        "alpha,beta,cls,expected",
        [
            (1, 2, MONOTONE, math.pi / 4),
            (2, 3, MONOTONE, math.pi / 6),
            (1, 1, ODD, 0.0),
            (1, 1, MONOTONE, 0.0),
            (2, 3, ODD, math.pi / 3),
            (4, 7, ODD, 3 * math.pi / 7),
            (4, 7, MONOTONE, (math.pi / 2) * (1 - 2 / 7)),
        ],
    )
    def test_known_values(self, alpha, beta, cls, expected):
        assert phase_bound(RationalFrequency(alpha, beta), cls) == pytest.approx(
            expected, abs=1e-15
        )

    def test_monotone_never_exceeds_odd(self):
        for rf in coprime_pairs(40):
            assert phase_bound(rf, MONOTONE) <= phase_bound(rf, ODD) + 1e-15
            if rf.alpha % 2 == 1:
                assert phase_bound(rf, MONOTONE) == phase_bound(rf, ODD)

    def test_cone_half_angle_complements_the_bound(self):
        # the half-angle pi/_cone_denominator, for integers and arrays alike, is
        # pi times the exact 1/2 - _bound_fraction, whose numerator is always 1
        pairs = coprime_pairs(60)
        alpha = np.array([rf.alpha for rf in pairs])
        beta = np.array([rf.beta for rf in pairs])
        for cls in (MONOTONE, ODD):
            halves = [Fraction(1, 2) - _bound_fraction(rf, cls) for rf in pairs]
            assert all(h.numerator == 1 for h in halves)
            exact = [math.pi * h.numerator / h.denominator for h in halves]
            dens = [_cone_denominator(rf.alpha, rf.beta, cls) for rf in pairs]
            assert all(type(d) is int for d in dens)
            assert [math.pi / d for d in dens] == exact
            assert (math.pi / _cone_denominator(alpha, beta, cls)).tolist() == exact

    @pytest.mark.parametrize("beta_max", [-3, 0, 1, 2, 7, 50])
    def test_coprime_pairs_match_a_gcd_loop(self, beta_max):
        expected = [(1, 1)] + [(a, b) for b in range(2, beta_max + 1)
                               for a in range(1, b) if math.gcd(a, b) == 1]
        pairs = coprime_pairs(beta_max)
        assert [(rf.alpha, rf.beta) for rf in pairs] == expected
        assert all(type(rf.alpha) is int and type(rf.beta) is int for rf in pairs)


class TestSingleFreqCertificate:
    def test_negative_constant_always_certified(self):
        g = constant(-1.0)
        for rf in (RationalFrequency(1, 2), RationalFrequency(2, 5), RationalFrequency(1, 1)):
            assert single_freq_certificate(g, rf, MONOTONE)
            assert single_freq_certificate(g, rf, ODD)

    def test_positive_constant_never_certified(self):
        g = constant(1.0)
        for rf in (RationalFrequency(1, 2), RationalFrequency(2, 5)):
            assert not single_freq_certificate(g, rf, MONOTONE)
            assert not single_freq_certificate(g, rf, ODD)

    def test_ex1_boundary_gain(self, plants):
        shifted = shift_by_inverse_gain(plants["ex1"], 13.028374)
        rf = RationalFrequency(2, 7)
        assert single_freq_certificate(shifted, rf, MONOTONE, tol=1e-5)

    def test_requires_stability(self):
        unstable = TransferFunction([1.0], [-1.0, 1.0])
        with pytest.raises(NotStable):
            single_freq_certificate(unstable, RationalFrequency(1, 2), MONOTONE)


class TestConeSlopes:
    def test_negative_real_axis(self):
        # R = -1, I = 0: the slope is -1/R = 1 at every half-angle, pi/2 included
        got = _cone_slopes(-1.0, math.pi / np.array([2, 3, 4, 5, 8]))
        assert got == pytest.approx(np.ones(5), abs=1e-12)

    def test_ex2_quarter_turn(self, plants):
        got = float(_cone_slopes(evaluate(plants["ex2"], math.pi / 2), math.pi / 4))
        assert got == pytest.approx(3.824040, abs=1e-5)

    def test_real_negative_reduces_to_inverse(self, plants):
        g = evaluate(plants["ex1"], math.pi)
        for d in (2, 3, 5, 8):
            got = float(_cone_slopes(g, math.pi / d))
            assert got == pytest.approx(-1.0 / g.real, rel=1e-9)

    def test_degenerate_cone_is_nan(self):
        # g = 0: R tan(a) + I = 0 below pi/2, and -1/R is infinite at pi/2
        got = _cone_slopes(0.0, math.pi / np.array([2, 4]))
        assert np.isnan(got).all()


class TestSingleFreqUpperBound:
    def test_ex1_monotone_witness(self, plants):
        got = single_freq_upper_bound(plants["ex1"], RationalFrequency(2, 7), MONOTONE)
        assert got == pytest.approx(13.028374, abs=1e-5)

    def test_ex1_odd_witness(self, plants):
        got = single_freq_upper_bound(plants["ex1"], RationalFrequency(1, 3), ODD)
        assert got == pytest.approx(13.575410, abs=1e-5)

    def test_passive_plant_none(self):
        for rf in (RationalFrequency(1, 2), RationalFrequency(1, 1)):
            assert single_freq_upper_bound(constant(1.0), rf, MONOTONE) is None


class TestScanUpperBound:
    def test_ex2_monotone(self, plants):
        res = scan_upper_bound(plants["ex2"], MONOTONE, beta_max=10)
        assert res.k_upper == pytest.approx(3.824040, abs=1e-5)
        assert (res.witness_freq.alpha, res.witness_freq.beta) == (1, 2)

    def test_ex4_monotone(self, plants):
        res = scan_upper_bound(plants["ex4"], MONOTONE, beta_max=10)
        assert res.k_upper == pytest.approx(0.846657, abs=1e-5)
        assert (res.witness_freq.alpha, res.witness_freq.beta) == (2, 3)

    def test_passive_plant_unbounded(self):
        res = scan_upper_bound(constant(1.0), MONOTONE, beta_max=12)
        assert math.isinf(res.k_upper)
        assert res.witness_freq is None

    def test_non_increasing_in_beta_max(self, plants):
        for cls in (MONOTONE, ODD):
            previous = math.inf
            for beta_max in (5, 10, 20, 40):
                k = scan_upper_bound(plants["ex3"], cls, beta_max).k_upper
                assert k <= previous + 1e-12
                previous = k


    @pytest.mark.parametrize("name, cls", sorted(KNOWN_SINGLE_FREQ))
    def test_equals_min_of_single_frequency_bounds(self, plants, name, cls):
        tf = plants[name]
        bounds = [(single_freq_upper_bound(tf, rf, cls), rf) for rf in coprime_pairs(50)]
        k, rf = min(((k, rf) for k, rf in bounds if k is not None), key=lambda kr: kr[0])
        res = scan_upper_bound(tf, cls, 50)
        assert res.k_upper == k
        assert res.witness_freq == rf

    def test_matches_the_single_frequency_loop(self, plants):
        # bit for bit, witness included: the first strict minimum in
        # coprime_pairs order, as the scan's closed-form grid must reproduce;
        # the constant -1 ties every frequency at k = 1, so (1, 1) must win
        for tf in [*plants.values(), constant(-1.0)]:
            for cls in (MONOTONE, ODD):
                for beta_max in (2, 3, 50, 97):
                    k, witness = math.inf, None
                    for rf in coprime_pairs(beta_max):
                        bound = single_freq_upper_bound(tf, rf, cls)
                        if bound is not None and bound < k:
                            k, witness = bound, rf
                    res = scan_upper_bound(tf, cls, beta_max)
                    assert (res.k_upper, res.witness_freq) == (k, witness), (cls, beta_max)

    def test_second_scan_does_no_fraction_work(self, plants, monkeypatch):
        def exact(*args):
            raise AssertionError("exact fraction arithmetic in the scan")

        monkeypatch.setattr(phase_limits, "_bound_fraction", exact)
        first = scan_upper_bound(plants["ex1"], MONOTONE, 37)
        assert scan_upper_bound(plants["ex1"], MONOTONE, 37) == first


class TestConsistencyInvariants:
    def test_certificate_holds_at_bound_and_fails_below(self, plants):
        for name, tf in plants.items():
            for cls in (MONOTONE, ODD):
                for rf in coprime_pairs(7):
                    k = single_freq_upper_bound(tf, rf, cls)
                    if k is None:
                        continue
                    at_bound = shift_by_inverse_gain(tf, k)
                    assert single_freq_certificate(at_bound, rf, cls, tol=1e-6), (name, cls, rf)
                    below = shift_by_inverse_gain(tf, k * (1.0 - 1e-3))
                    assert not single_freq_certificate(below, rf, cls), (name, cls, rf)

    def test_no_one_tap_candidate_beats_the_bound(self):
        for rf in coprime_pairs(50):
            w = rf.omega
            n = np.arange(1, 4 * rf.beta + 1)
            for cls in (MONOTONE, ODD):
                bound = phase_bound(rf, cls)
                tight = construct_tight_multiplier(rf, cls, +1)
                assert abs(abs(tight.phase_at(w)) - bound) < 1e-12
                # exhaustive candidates: 1 -+ z^{+-n}
                values = [1.0 - np.exp(-1j * w * n), 1.0 - np.exp(1j * w * n)]
                if cls == ODD:
                    values += [1.0 + np.exp(-1j * w * n), 1.0 + np.exp(1j * w * n)]
                for arr in values:
                    keep = np.abs(arr) > 1e-9
                    phases = np.abs(np.angle(arr[keep]))
                    assert np.all(phases <= bound + 1e-12), (rf, cls)

    def test_certified_plants_defeat_random_multipliers(self, plants):
        # sampled soundness: no class member restores positivity once certified
        rng = np.random.default_rng(2024)
        tf = plants["ex4"]
        rf = RationalFrequency(2, 3)
        k = single_freq_upper_bound(tf, rf, MONOTONE)
        shifted = shift_by_inverse_gain(tf, k * 1.001)
        assert single_freq_certificate(shifted, rf, MONOTONE)
        g = evaluate(shifted, rf.omega)
        for _ in range(1000):
            support = rng.choice(np.arange(1, 41), size=rng.integers(1, 12), replace=False)
            support = [int(s) * (1 if rng.random() < 0.5 else -1) for s in support]
            raw = rng.dirichlet(np.ones(len(support))) * rng.uniform(0.0, 1.0)
            m_val = 1.0 - sum(
                h * np.exp(-1j * rf.omega * i) for i, h in zip(support, raw)
            )
            assert (m_val * g).real <= 1e-9
