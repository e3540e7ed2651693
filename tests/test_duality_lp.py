"""Certificate rows, LP certificates and the slope bisection."""

import cmath
import itertools
import math

import numpy as np
import pytest

from zflim import duality_lp
from zflim.duality_lp import (
    bisect_upper_bound,
    certificate_residual,
    lp_certificate,
)
from zflim.errors import BracketInvalid
from zflim.lti_core import (
    TransferFunction,
    _bisect,
    affine_combine,
    evaluate,
    frequency_response,
    is_stable,
    shift_by_inverse_gain,
)
from zflim.phase_limits import single_freq_certificate
from zflim.plants import BUILTIN
from zflim.rational_core import MONOTONE, ODD, RationalFrequency
from zflim.simplex import generate_rows, simplex_max_leq
from zflim.zf_search import SearchConfig, find_multiplier
from conftest import KNOWN_LOWER, KNOWN_SINGLE_FREQ, dense_rows


def constant(value):
    return TransferFunction([value], [1.0])


def nonconvexity_plant(plants):
    return affine_combine(
        [
            (0.2, shift_by_inverse_gain(plants["ex1"], 12.9)),
            (0.8, shift_by_inverse_gain(plants["ex2"], 3.8)),
        ]
    )


def all_rows(g, class_tag):
    """Every row index of `duality_lp._entries` for the class, i = 0 included."""
    return np.arange((2 if class_tag == MONOTONE else 4) * (g.size + 1))


def certificate_rows(tf, beta, class_tag):
    """Every constraint row, as `duality_lp._entries` builds rows on demand."""
    g = frequency_response(tf, np.arange(1, beta) * math.pi / beta)
    return duality_lp._entries(g, all_rows(g, class_tag), np.arange(beta - 1))[0]


class TestBuildVectors:
    def test_zero_difference_row(self, plants):
        rows = certificate_rows(shift_by_inverse_gain(plants["ex1"], 10.0), 6, MONOTONE)
        assert np.max(np.abs(rows[0])) == 0.0

    def test_sum_row_is_twice_real_part(self, plants):
        g = shift_by_inverse_gain(plants["ex1"], 10.0)
        rows = certificate_rows(g, 6, ODD)
        omega = np.arange(1, 6) * math.pi / 6
        expected = 2.0 * frequency_response(g, omega).real
        assert np.allclose(rows[2 * 6], expected, atol=1e-13)

    def test_beta_two_hand_substitution(self, plants):
        g = shift_by_inverse_gain(plants["ex2"], 3.0)
        rows = certificate_rows(g, 2, MONOTONE)
        val = evaluate(g, math.pi / 2)
        expected = ((1.0 - cmath.exp(-1j * math.pi / 2)) * val).real
        assert rows[1, 0] == pytest.approx(expected, abs=1e-12)

    def test_row_periodicity(self, plants):
        g = shift_by_inverse_gain(plants["ex3"], 1.0)
        beta = 5
        rows = certificate_rows(g, beta, MONOTONE)
        omega = np.arange(1, beta) * math.pi / beta
        gv = frequency_response(g, omega)
        for i in (0, 3, 7):
            ph = np.exp(-1j * omega * (i + 2 * beta))
            extended = ((1.0 - ph) * gv).real
            assert np.allclose(extended, rows[i], atol=1e-12)

    def test_odd_rows_start_with_the_monotone_rows(self, plants):
        g = shift_by_inverse_gain(plants["ex4"], 0.9)
        beta = 7
        odd = certificate_rows(g, beta, ODD)
        assert odd.shape == (4 * beta, beta - 1)
        assert np.array_equal(odd[: 2 * beta], certificate_rows(g, beta, MONOTONE))

    def test_rows_of_the_constant_are_one_minus_plus_cos(self, plants):
        # `_entries` builds the shift's rows D as 1 -+ cos along with G's rows
        # A; they are the rows of g = 1, bit for bit, and both are the rows of
        # one full cos/sin table, bit for bit
        for beta in (7, 60, 210):
            g = duality_lp._grid_samples(plants["ex3"], beta)
            ones = np.ones(beta - 1)
            theta = np.arange(2 * beta)[:, None] * duality_lp._grid(beta)[None, :]
            cos = np.cos(theta)
            for cls, D_ref in [(MONOTONE, 1.0 - cos), (ODD, np.vstack([1.0 - cos, 1.0 + cos]))]:
                A, D = duality_lp._entries(g, all_rows(g, cls), np.arange(beta - 1))
                assert np.array_equal(D, D_ref)
                assert np.array_equal(D, duality_lp._entries(ones, all_rows(g, cls),
                                                             np.arange(beta - 1))[0])
                assert np.array_equal(A, dense_rows(g, beta, cls))

    @pytest.mark.parametrize("beta", [2, 3, 7, 60, 160, 630])
    @pytest.mark.parametrize("cls", [MONOTONE, ODD])
    def test_products_and_prices_match_the_dense_rows(self, plants, beta, cls):
        # W @ x on every row (i = 0 and i = beta included) and W^T y on every
        # column, each by one FFT, against the dense rows, within 1e-12 of the
        # scale sum|x| max|g| (sum|y| max|g|); also on a sparse x, as the
        # certificate LP holds a few columns
        rng = np.random.default_rng(beta)
        for name in sorted(plants):
            g = duality_lp._grid_samples(plants[name], beta)
            W = dense_rows(g, beta, cls)
            for x in (rng.random(beta - 1), np.where(rng.random(beta - 1) < 0.1, 1.0, 0.0)):
                scale = np.sum(x) * np.max(np.abs(g))
                got = duality_lp._products(g, x, cls)
                assert np.max(np.abs(got - W @ x)) <= 1e-12 * scale, (name, beta)
                assert abs(got[0]) <= 1e-12 * scale
                assert abs(got[beta] - W[beta] @ x) <= 1e-12 * scale
            y = np.zeros(4 * beta)
            y[: W.shape[0]] = rng.random(W.shape[0]) * (rng.random(W.shape[0]) < 0.2)
            y[0] = y[beta] = 1.0
            scale = np.sum(y) * np.max(np.abs(g))
            got = duality_lp._prices(g, y)
            assert np.max(np.abs(got - W.T @ y[: W.shape[0]])) <= 1e-12 * scale, (name, beta)


class TestLpCertificate:
    def test_negative_constant_certified(self):
        # beta 2 and 3 hold fewer than 8 frequencies and 64 rows
        for beta, cls in itertools.product((2, 3, 6), (MONOTONE, ODD)):
            cert = lp_certificate(constant(-1.0), beta=beta, class_tag=cls)
            assert cert is not None, (beta, cls)
            assert cert.margin >= -1e-9
            assert np.all(cert.lambdas >= 0.0)
            assert np.sum(cert.lambdas) == pytest.approx(1.0, abs=1e-12)

    def test_positive_constant_not_certified(self):
        for beta, cls in itertools.product((2, 3, 6), (MONOTONE, ODD)):
            assert lp_certificate(constant(1.0), beta=beta, class_tag=cls) is None, (beta, cls)

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

    @pytest.mark.parametrize("name, k, beta", [
        ("ex1", 13.56, 160), ("ex3", None, 60), ("ex4", None, 60), ("ex6", None, 60),
    ])
    @pytest.mark.parametrize("cls", [MONOTONE, ODD])
    def test_residual_is_the_acceptance_gate(self, plants, name, k, beta, cls):
        # certificate_residual checks the rows the acceptance gate checked, all but
        # the i = 0 row that is zero for any weights, so it is -margin exactly
        shifted = shift_by_inverse_gain(plants[name], k or 1.02 * KNOWN_SINGLE_FREQ[(name, cls)][0])
        cert = lp_certificate(shifted, beta, cls)
        assert cert is not None and cert.margin > 0.0
        assert certificate_residual(shifted, cert) == -cert.margin

    def test_zero_residual_is_a_positive_zero_margin(self, plants):
        # ex2/monotone at k 3.9, beta 60: the worst row is exactly 0
        shifted = shift_by_inverse_gain(plants["ex2"], 3.9)
        cert = lp_certificate(shifted, 60, MONOTONE)
        assert cert is not None and cert.margin == 0.0
        assert math.copysign(1.0, cert.margin) == 1.0
        assert certificate_residual(shifted, cert) == -cert.margin

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
        config = SearchConfig(n_z=5)
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

    @pytest.mark.parametrize("k_hi, tol_k, error", [
        (3.9, 0.0, ValueError),
        (3.9, -1.0, ValueError),
        (3.9, math.nan, ValueError),
        (3.9, 1e-17, ValueError),  # below the spacing of floats at k_hi
        (math.inf, 1e-4, BracketInvalid),
    ])
    def test_unclosable_bracket_rejected_before_any_lp(
        self, plants, monkeypatch, k_hi, tol_k, error
    ):
        def evaluated(*args):
            raise AssertionError("a slope was evaluated")

        monkeypatch.setattr(duality_lp, "generate_rows", evaluated)
        with pytest.raises(error):
            bisect_upper_bound(plants["ex2"], 40, MONOTONE, 3.80, k_hi, tol_k)

    def test_stability_checked_once(self, plants, monkeypatch):
        calls = []

        def counting(tf):
            calls.append(tf)
            return is_stable(tf)

        monkeypatch.setattr(duality_lp, "is_stable", counting)
        bisect_upper_bound(plants["ex2"], 40, MONOTONE, 3.80, 3.90, 1e-3)
        assert calls == [plants["ex2"]]

    def test_bracket_agrees_with_public_certificate(self, plants):
        # the bisection shifts sampled values; the public path shifts the plant
        for name, cls, k_lo, k_hi in [("ex2", MONOTONE, 3.80, 3.90), ("ex4", ODD, 0.5, 1.2)]:
            k = bisect_upper_bound(plants[name], 20, cls, k_lo, k_hi, 1e-4)
            shifted = shift_by_inverse_gain(plants[name], k)
            assert lp_certificate(shifted, 20, cls) is not None, (name, cls)

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


def certificate_at(g, beta, cls):
    """The certificate LP on the rows of the samples g, as `lp_certificate` builds them."""
    return duality_lp._certificate(g, math.inf, cls)


def full_lp_certificate(g, beta, cls, by_rows=False):
    """The certificate LP on the full dense game, every row and every column,
    with the exact shift 1 - min W, and accepted as `_certificate` accepts
    it: weights at rounding level dropped, residual <= TOL_LP.  Solved
    directly, or with ``by_rows`` by row generation on the dense rows, every
    column held (a direct solve takes ~17 s at beta 630)."""
    W = dense_rows(g, beta, cls)[1:]
    A, b = W + (1.0 - float(W.min())), np.ones(W.shape[0])
    if by_rows:
        held = np.zeros(b.size, dtype=bool)
        held[:: b.size // 64] = held[-1] = True

        def more(x):
            violations = np.where(held, -np.inf, A @ x - b)
            worst = np.argsort(violations)[-24:]
            worst = worst[violations[worst] > 1e-14]
            held[worst] = True
            return A[worst], b[worst]

        sol, _, _ = generate_rows(np.ones(beta - 1), A[held], b[held], more, feas=1e-14)
    else:
        sol = simplex_max_leq(np.ones(beta - 1), A, b)
    x = np.maximum(sol.x, 0.0)
    x[x <= 1e-12 * x.max()] = 0.0
    lambdas = x / np.sum(x)
    return lambdas if np.max(W @ lambdas) <= duality_lp.TOL_LP else None


def fft_products(g, lambdas, cls):
    """A lambda and D lambda by FFT, as `bisect_upper_bound` takes k(lambda)."""
    return tuple(duality_lp._products(h, lambdas, cls) for h in (g, np.ones_like(g)))


def dense_slope(g, beta, cls, lambdas):
    """k(lambda) from the dense rows of G and of the constant 1."""
    A, D = dense_rows(g, beta, cls), dense_rows(np.ones_like(g), beta, cls)
    return duality_lp._certified_slope(A @ lambdas, D @ lambdas)


def reference_upper_bound(G, beta, cls, k_lo, k_hi, tol_k):
    """The bisection with a fresh certificate LP at every midpoint; its final k_hi."""
    g = duality_lp._grid_samples(G, beta)

    def certify(k):
        return certificate_at(g + 1.0 / k, beta, cls)

    assert certify(k_hi) is not None and certify(k_lo) is None
    return _bisect(lambda k: (certify(k), k), k_lo, k_hi, tol_k)[1]


def known_bracket(name, cls):
    return KNOWN_LOWER[(name, cls)][0] * (1 - 1e-4), KNOWN_SINGLE_FREQ[(name, cls)][0] * 1.01


class TestCertifiedSlope:
    """k(lambda), the exact slope a certificate's weights prove."""

    @pytest.mark.parametrize("name, cls", [("ex1", ODD), ("ex2", MONOTONE), ("ex4", ODD)])
    def test_rows_vanish_at_the_certified_slope(self, plants, name, cls):
        # k(lambda) by FFT, checked on the dense rows
        beta = 60
        g = duality_lp._grid_samples(plants[name], beta)
        A, D = dense_rows(g, beta, cls), dense_rows(np.ones_like(g), beta, cls)
        k_scan = KNOWN_SINGLE_FREQ[(name, cls)][0]
        for factor in (1.0005, 1.01, 1.2):
            cert = certificate_at(g + 1.0 / (factor * k_scan), beta, cls)
            assert cert is not None
            k = duality_lp._certified_slope(*fft_products(g, cert.lambdas, cls))
            assert abs(float(np.max((A + D / k) @ cert.lambdas))) <= 1e-14
            assert float(np.max((A + D / (k * (1 - 1e-6))) @ cert.lambdas)) > 0.0

    def test_no_slope_when_a_row_never_falls(self):
        A = np.array([[0.0, 0.0], [-1.0, 1.0]])
        D = np.array([[0.0, 0.0], [1.0, 1.0]])
        for lambdas, k in [(np.array([0.5, 0.5]), math.inf), (np.array([1.0, 0.0]), 1.0)]:
            assert duality_lp._certified_slope(A @ lambdas, D @ lambdas) == k

    @pytest.mark.parametrize("beta", [60, 160, 630])
    def test_odd_support_leaves_the_sum_row_out(self, plants, beta):
        # weights on odd r only: the second block's row i = beta has D lambda =
        # sum lambda_r (1 + cos(r pi)) = 0 exactly on the dense rows, but only
        # to rounding by FFT; it must not count as a row that depends on k
        rng = np.random.default_rng(beta)
        odd = np.arange(0, beta - 1, 2)  # column c holds r = c + 1
        D = dense_rows(np.ones(beta - 1), beta, ODD)
        for name in sorted(plants):
            g = duality_lp._grid_samples(plants[name], beta)
            A = dense_rows(g, beta, ODD)
            for _ in range(5):
                lambdas = np.zeros(beta - 1)
                lambdas[rng.choice(odd, size=5, replace=False)] = rng.random(5)
                lambdas /= lambdas.sum()
                assert D[3 * beta] @ lambdas == 0.0
                k = duality_lp._certified_slope(*fft_products(g, lambdas, ODD))
                k_dense = duality_lp._certified_slope(A @ lambdas, D @ lambdas)
                assert k == k_dense or abs(k - k_dense) <= 1e-9 * k_dense, (name, k, k_dense)

    def test_bisection_returns_a_certified_slope(self, plants):
        for name, cls in sorted(KNOWN_SINGLE_FREQ):
            k_lo, k_hi = known_bracket(name, cls)
            got = bisect_upper_bound(plants[name], 60, cls, k_lo, k_hi, 1e-4)
            ref = reference_upper_bound(plants[name], 60, cls, k_lo, k_hi, 1e-4)
            assert abs(got - ref) <= 1e-4, (name, cls, got, ref)
            shifted = shift_by_inverse_gain(plants[name], got)
            assert lp_certificate(shifted, 60, cls) is not None, (name, cls)

    @pytest.mark.parametrize("name, cls", [("ex1", ODD), ("ex2", MONOTONE), ("ex4", ODD)])
    def test_bound_is_certified_and_tight(self, plants, name, cls):
        # a certificate at the bound, and none tol_k below it (or at k_lo)
        k_lo, k_hi = known_bracket(name, cls)
        got = bisect_upper_bound(plants[name], 60, cls, k_lo, k_hi, 1e-4)
        assert lp_certificate(shift_by_inverse_gain(plants[name], got), 60, cls) is not None
        below = max(got - 1e-4, k_lo)
        assert lp_certificate(shift_by_inverse_gain(plants[name], below), 60, cls) is None

    def test_deep_grid_bracket_lp_count(self, plants, monkeypatch):
        # criterion 3's bracket: each LP lowers the bound by tol_k or more, or ends
        lps = []
        certificate = duality_lp._certificate

        def counting(*args):
            lps.append(args)
            return certificate(*args)

        monkeypatch.setattr(duality_lp, "_certificate", counting)
        k = bisect_upper_bound(plants["ex1"], 250, ODD, 13.0, 14.0, 1e-4)
        assert abs(k - 13.5117) <= 5e-4
        assert len(lps) <= 7


class TestRowGeneration:
    """The certificate LP by row generation against a direct solve on all rows."""

    @pytest.mark.parametrize("beta", [60, 160])
    def test_verdicts_match_the_full_lp(self, plants, beta):
        # k at 0.995-1.005x each scan bound and the two certify-deep slopes:
        # the same verdict and weights, and the same k(lambda) within tol_k
        cases = [(name, cls, f * k) for (name, cls), (k, _) in sorted(KNOWN_SINGLE_FREQ.items())
                 for f in (0.995, 0.999, 1.0, 1.001, 1.005)]
        cases += [("ex1", ODD, 13.46), ("ex1", ODD, 13.56)]
        certified = 0
        for name, cls, k in cases:
            certified += self.check_against_the_full_lp(plants, name, cls, beta, k)
        assert 0 < certified < len(cases)

    @staticmethod
    def check_against_the_full_lp(plants, name, cls, beta, k):
        """Generated and full-LP verdicts agree, and so do the weights (within
        1e-9) and k(lambda) (within tol_k) of a certificate; True if certified."""
        g = duality_lp._grid_samples(plants[name], beta)
        generated = certificate_at(g + 1.0 / k, beta, cls)
        dense = full_lp_certificate(g + 1.0 / k, beta, cls)
        assert (generated is None) == (dense is None), (name, cls, k)
        if dense is None:
            return False
        assert np.max(np.abs(generated.lambdas - dense)) <= 1e-9, (name, cls, k)
        k_gen = dense_slope(g, beta, cls, generated.lambdas)
        k_dense = dense_slope(g, beta, cls, dense)
        assert k_gen == k_dense or abs(k_gen - k_dense) <= 1e-4, (name, cls, k)
        return True

    @pytest.mark.parametrize("name, cls, beta, factor", [
        ("ex6", ODD, 160, 1.005), ("ex2", ODD, 630, 1.001),
        ("ex2", MONOTONE, 630, 0.999), ("ex3", ODD, 630, 1.0),
    ])
    def test_drifted_warm_resolves_keep_the_verdict(self, plants, name, cls, beta, factor):
        # a warm re-solve after added columns can return an x that breaks a
        # held row (by 4.7e-5 on ex2, monotone class, beta 630 at 0.999x the
        # scan bound, and 4.7e-6 on ex3, odd class, at 1x), which turned
        # verdicts when the rhs clamp hid it; such a re-solve restarts cold
        k = factor * KNOWN_SINGLE_FREQ[(name, cls)][0]
        g = duality_lp._grid_samples(shift_by_inverse_gain(plants[name], k), beta)
        dense = full_lp_certificate(g, beta, cls, by_rows=True)
        assert (certificate_at(g, beta, cls) is None) == (dense is None), (name, cls, beta, factor)

    def test_rounding_level_weights_are_dropped(self, plants):
        # ex2, odd class, beta 60, at 1.01x the scan bound: weights of ~1e-15
        # on rows that need a larger slope made k(lambda) 1.06x the slope of
        # the LP, so the certificate settled no bisection midpoint
        beta, k = 60, 1.01 * KNOWN_SINGLE_FREQ[("ex2", ODD)][0]
        g = duality_lp._grid_samples(plants["ex2"], beta)
        cert = certificate_at(g + 1.0 / k, beta, ODD)
        weights = cert.lambdas[cert.lambdas > 0.0]
        assert np.min(weights) > 1e-12 * np.max(weights)
        A, D = dense_rows(g, beta, ODD), dense_rows(np.ones_like(g), beta, ODD)
        assert duality_lp._certified_slope(A @ cert.lambdas, D @ cert.lambdas) < k
        assert float(np.max((A + D / k) @ cert.lambdas)) == 0.0
