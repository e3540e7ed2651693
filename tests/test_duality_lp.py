"""Certificate vectors, LP certificates and the slope bisection."""

import cmath
import math

import numpy as np
import pytest

from zflim.duality_lp import (
    bisect_upper_bound,
    build_vectors,
    certificate_residual,
    lp_certificate,
)
from zflim.errors import BracketInvalid
from zflim.lti_core import (
    TransferFunction,
    affine_combine,
    evaluate,
    frequency_response,
    shift_by_inverse_gain,
)
from zflim.phase_limits import single_freq_certificate
from zflim.rational_core import MONOTONE, ODD, RationalFrequency
from zflim.zf_search import SearchConfig, find_multiplier
from conftest import KNOWN_SINGLE_FREQ


def constant(value):
    return TransferFunction([value], [1.0])


def nonconvexity_plant(plants):
    return affine_combine(
        [
            (0.2, shift_by_inverse_gain(plants["ex1"], 12.9)),
            (0.8, shift_by_inverse_gain(plants["ex2"], 3.8)),
        ]
    )


class TestBuildVectors:
    def test_zero_difference_row(self, plants):
        vec = build_vectors(shift_by_inverse_gain(plants["ex1"], 10.0), beta=6)
        assert np.max(np.abs(vec.v_minus[0])) == 0.0

    def test_sum_row_is_twice_real_part(self, plants):
        g = shift_by_inverse_gain(plants["ex1"], 10.0)
        vec = build_vectors(g, beta=6)
        omega = np.arange(1, 6) * math.pi / 6
        expected = 2.0 * frequency_response(g, omega).real
        assert np.allclose(vec.v_plus[0], expected, atol=1e-13)

    def test_beta_two_hand_substitution(self, plants):
        g = shift_by_inverse_gain(plants["ex2"], 3.0)
        vec = build_vectors(g, beta=2)
        val = evaluate(g, math.pi / 2)
        expected = ((1.0 - cmath.exp(-1j * math.pi / 2)) * val).real
        assert vec.v_minus[1, 0] == pytest.approx(expected, abs=1e-12)

    def test_row_periodicity(self, plants):
        g = shift_by_inverse_gain(plants["ex3"], 1.0)
        beta = 5
        vec = build_vectors(g, beta)
        omega = np.arange(1, beta) * math.pi / beta
        gv = frequency_response(g, omega)
        for i in (0, 3, 7):
            ph = np.exp(-1j * omega * (i + 2 * beta))
            extended = ((1.0 - ph) * gv).real
            assert np.allclose(extended, vec.v_minus[i], atol=1e-12)


class TestLpCertificate:
    def test_negative_constant_certified(self):
        for cls in (MONOTONE, ODD):
            cert = lp_certificate(constant(-1.0), beta=6, class_tag=cls)
            assert cert is not None
            assert cert.margin >= -1e-9
            assert np.all(cert.lambdas >= 0.0)
            assert np.sum(cert.lambdas) == pytest.approx(1.0, abs=1e-12)

    def test_positive_constant_not_certified(self):
        for cls in (MONOTONE, ODD):
            assert lp_certificate(constant(1.0), beta=6, class_tag=cls) is None

    def test_nonconvexity_witness(self, plants):
        mix = nonconvexity_plant(plants)
        certified = [
            cls for cls in (MONOTONE, ODD)
            if lp_certificate(mix, beta=40, class_tag=cls) is not None
        ]
        assert certified  # the mid-segment plant admits no suitable multiplier

    def test_residual_reverification(self, plants):
        mix = nonconvexity_plant(plants)
        cert = lp_certificate(mix, beta=40, class_tag=MONOTONE)
        assert cert is not None
        assert certificate_residual(mix, cert) <= 1e-9

    def test_extended_rows_add_nothing(self, plants):
        g = shift_by_inverse_gain(plants["ex4"], 0.9)
        beta = 8
        cert = lp_certificate(g, beta=beta, class_tag=MONOTONE)
        assert cert is not None
        omega = np.arange(1, beta) * math.pi / beta
        gv = frequency_response(g, omega)
        i = np.arange(10 * beta)[:, None]
        rows = ((1.0 - np.exp(-1j * omega[None, :] * i)) * gv[None, :]).real
        long_max = float(np.max(rows @ cert.lambdas))
        short_max = float(np.max(rows[: 2 * beta] @ cert.lambdas))
        assert long_max == pytest.approx(short_max, abs=1e-12)

    def test_single_frequency_subsumption(self, plants):
        for (name, cls), (k, (alpha, beta_w)) in KNOWN_SINGLE_FREQ.items():
            shifted = shift_by_inverse_gain(plants[name], k * 1.0001)
            rf = RationalFrequency(alpha, beta_w)
            assert single_freq_certificate(shifted, rf, cls, tol=1e-9)
            cert = lp_certificate(shifted, beta=2 * beta_w, class_tag=cls)
            assert cert is not None, (name, cls)

    def test_certificate_implies_primal_infeasible(self, plants):
        k, _ = KNOWN_SINGLE_FREQ[("ex2", MONOTONE)]
        shifted = shift_by_inverse_gain(plants["ex2"], k * 1.001)
        assert lp_certificate(shifted, beta=8, class_tag=MONOTONE) is not None
        config = SearchConfig(n_z=5, grid_size=800)
        assert find_multiplier(shifted, config, MONOTONE) is None

    def test_scaling_invariance(self, plants):
        g = shift_by_inverse_gain(plants["ex4"], 0.9)
        for c in (1e-3, 1e3):
            scaled = TransferFunction(g.num.scale(c), g.den)
            base = lp_certificate(g, beta=8, class_tag=MONOTONE) is not None
            got = lp_certificate(scaled, beta=8, class_tag=MONOTONE) is not None
            assert got == base


class TestBisectUpperBound:
    def test_ex2_monotone_beta40(self, plants):
        k = bisect_upper_bound(
            plants["ex2"], beta=40, class_tag=MONOTONE, k_lo=3.80, k_hi=3.90, tol_k=1e-4
        )
        assert 3.824040 - 2e-3 <= k <= 3.824040 + 1e-3
        # certificate existence is monotone in k: weights certifying k also
        # certify every larger slope, which is what the bisection relies on
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            k_probe = k + frac * (3.90 - k)
            shifted = shift_by_inverse_gain(plants["ex2"], k_probe)
            assert lp_certificate(shifted, 40, MONOTONE) is not None, k_probe

    def test_always_certified_plant_rejects_bracket(self):
        with pytest.raises(BracketInvalid):
            bisect_upper_bound(
                constant(-2.0), beta=6, class_tag=MONOTONE, k_lo=0.5, k_hi=2.0, tol_k=1e-3
            )

    def test_no_certificate_at_hi_rejects_bracket(self):
        with pytest.raises(BracketInvalid):
            bisect_upper_bound(
                constant(1.0), beta=6, class_tag=MONOTONE, k_lo=0.5, k_hi=2.0, tol_k=1e-3
            )
