"""Transfer-function arithmetic, pole analysis and the linear gain limit."""

import cmath
import math

import numpy as np
import pytest

from zflim import lti_core
from zflim.errors import InvalidGain, NotStable, PoleOnUnitCircle, RootFindingFailed
from zflim.lti_core import (
    NEWTON_STEPS,
    POLE_RESIDUAL_TOL,
    Polynomial,
    TransferFunction,
    _bisect,
    _companion_roots,
    affine_combine,
    evaluate,
    frequency_response,
    is_stable,
    nyquist_value,
    poles,
    shift_by_inverse_gain,
)
from conftest import KNOWN_NYQUIST


def unit(value=1.0):
    return TransferFunction([value], [1.0])


def reference_poles(tf):
    """`poles` one root at a time: the scalar Newton loop the array form replaces."""
    c = tf.den.coeffs
    scale = float(np.max(np.abs(c)))
    dden = tf.den.derivative()
    polished = []
    for r in _companion_roots(c):
        best, best_res = r, abs(tf.den(r))
        x = r
        for _ in range(NEWTON_STEPS):
            dp = dden(x)
            if abs(dp) == 0.0:
                break
            x = x - tf.den(x) / dp
            res = abs(tf.den(x))
            if res < best_res:
                best, best_res = x, res
        polished.append(best)
        if best_res > POLE_RESIDUAL_TOL * scale:
            raise RootFindingFailed(
                f"residual {best_res:.3e} above {POLE_RESIDUAL_TOL * scale:.3e} at root {best}"
            )
    return polished


def seeded_denominators(seed, count):
    """Degree 1-12 denominators: random, clustered roots, double roots, and
    coefficients spread over six decades (on which root polishing can fail)."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        deg = int(rng.integers(1, 13))
        kind = trial % 4
        if kind == 0:
            yield rng.normal(size=deg + 1)
        elif kind == 1:
            yield np.poly(0.5 + 1e-4 * rng.normal(size=deg))[::-1]
        elif kind == 2:
            yield np.poly(np.repeat(rng.uniform(-0.9, 0.9, (deg + 1) // 2), 2)[:deg])[::-1]
        else:
            yield rng.normal(size=deg + 1) * 10.0 ** rng.integers(-3, 4, size=deg + 1)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.coeffs.tolist() == [1.0, 2.0]
        assert p.degree == 1

    def test_zero_polynomial(self):
        assert Polynomial([0.0, 0.0]).is_zero()

    def test_horner_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=6)
        p = Polynomial(c)
        z = 0.3 + 0.7j
        direct = sum(ck * z**k for k, ck in enumerate(c))
        assert abs(p(z) - direct) < 1e-12

    def test_mul_add(self):
        a = Polynomial([1.0, 1.0])
        b = Polynomial([-1.0, 1.0])
        assert (a * b).coeffs.tolist() == [-1.0, 0.0, 1.0]
        assert (a + b).coeffs.tolist() == [0.0, 2.0]


class TestTransferFunction:
    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            TransferFunction([1.0], [0.0])

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            TransferFunction([0.0, 0.0, 1.0], [1.0, 1.0])

    def test_zero_numerator_always_proper(self):
        TransferFunction([0.0], [1.0])


class TestEvaluate:
    def test_constant_function(self):
        assert evaluate(unit(), 0.7) == 1.0 + 0.0j

    def test_ex1_at_pi_matches_hand_value(self, plants):
        # numerator 0.1*z at z=-1 over (-1)^2 - 1.8*(-1) + 0.81
        expected = (0.1 * -1.0) / (1.0 + 1.8 + 0.81)
        got = evaluate(plants["ex1"], math.pi)
        assert abs(got - expected) < 1e-12
        assert abs(expected - (-0.0277008)) < 1e-7

    def test_unit_delay(self):
        delay = TransferFunction([1.0], [0.0, 1.0])
        assert abs(evaluate(delay, math.pi / 2) - (-1j)) < 1e-15

    def test_pole_on_unit_circle_raises(self):
        tf = TransferFunction([1.0], [-1.0, 1.0])  # z - 1
        with pytest.raises(PoleOnUnitCircle):
            evaluate(tf, 0.0)

    def test_frequency_response_matches_pointwise(self, plants):
        w = np.linspace(0.1, 3.0, 37)
        vec = frequency_response(plants["ex2"], w)
        for wi, vi in zip(w, vec):
            assert abs(vi - evaluate(plants["ex2"], wi)) < 1e-13


class TestBisect:
    def test_threshold_predicate(self):
        threshold = math.e
        calls = []

        def above(k):
            calls.append(k)
            return ("above", k) if k >= threshold else None, k

        k_lo, k_hi, value = _bisect(above, 1.0, 5.0, 1e-3, "at k_hi")
        assert k_lo < threshold <= k_hi
        assert k_hi - k_lo <= 1e-3
        assert len(calls) == math.ceil(math.log2((5.0 - 1.0) / 1e-3))
        assert value == ("above", k_hi)

    def test_no_truthy_midpoint_keeps_initial_value(self):
        k_lo, k_hi, value = _bisect(lambda k: (k >= 5.0, k), 1.0, 5.0, 1e-3, "at k_hi")
        assert k_hi == 5.0 and 5.0 - k_lo <= 1e-3
        assert value == "at k_hi"

    def test_ends_move_past_the_midpoint_to_the_witness(self):
        # a witness proves more than its midpoint: a hit at k holds from
        # 0.5 (k + e) down, a miss up to 0.5 (k + e) from below
        threshold = math.e
        calls = []

        def witness(k):
            calls.append(k)
            end = 0.5 * (k + threshold)
            return ("above", end) if k >= threshold else None, end

        k_lo, k_hi, value = _bisect(witness, 1.0, 5.0, 1e-3)
        assert k_lo <= threshold <= k_hi and k_hi - k_lo <= 1e-3
        # the hit at 3 moved k_hi to 0.5 (3 + e), so the next midpoint is below 2
        assert calls[:2] == [3.0, 0.5 * (1.0 + 0.5 * (3.0 + threshold))]
        assert value == ("above", k_hi)
        assert len(calls) < math.ceil(math.log2((5.0 - 1.0) / 1e-3))


class TestPoles:
    def test_double_pole(self):
        tf = TransferFunction([1.0], [0.81, -1.8, 1.0])  # (z - 0.9)^2
        got = sorted(poles(tf), key=lambda p: p.real)
        assert len(got) == 2
        for p in got:
            assert abs(p - 0.9) < 1e-6

    def test_ex6_roots_against_quadratic_formula(self, plants):
        # oracle: quadratic formula for z^2 + 1.415 z + 0.5523
        b, c = 1.415, 0.5523
        disc = cmath.sqrt(b * b - 4.0 * c)
        expected = sorted([(-b + disc) / 2.0, (-b - disc) / 2.0], key=lambda p: p.imag)
        got = sorted(poles(plants["ex6"]), key=lambda p: p.imag)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-10
        den = plants["ex6"].den
        for g in got:
            assert abs(den(g)) <= 1e-10 * max(abs(den.coeffs))

    def test_constant_denominator_has_no_poles(self):
        assert poles(unit()) == []

    def test_roundtrip_random_stable_pole_sets(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            chosen = []
            while len(chosen) < n:
                if rng.random() < 0.5 or n - len(chosen) == 1:
                    chosen.append(complex(rng.uniform(-0.9, 0.9)))
                else:
                    re, im = rng.uniform(-0.7, 0.7), rng.uniform(0.05, 0.6)
                    chosen += [complex(re, im), complex(re, -im)]
            chosen = chosen[:n]
            if len({round(p.real, 2) for p in chosen}) < len(chosen):
                continue  # keep roots well separated
            den = np.array([1.0])
            for p in chosen:
                den = np.convolve(den, np.array([-p, 1.0]))
            assert np.max(np.abs(den.imag)) < 1e-9
            tf = TransferFunction([1.0], den.real)
            got = sorted(poles(tf), key=lambda p: (round(p.real, 6), p.imag))
            want = sorted(chosen, key=lambda p: (round(p.real, 6), p.imag))
            for g, e in zip(got, want):
                assert abs(g - e) < 1e-8


class TestPolesArrayForm:
    def test_same_roots_and_failures_as_scalar_loop(self):
        # every root bit for bit, and RootFindingFailed with the same message
        # on the same inputs; this seed has double roots on which residuals
        # rounded by np.abs, not as abs() of one complex scalar, keep other
        # iterates
        failed = 0
        for den in seeded_denominators(15, 600):
            tf = TransferFunction([1.0], den)
            try:
                want = reference_poles(tf)
            except RootFindingFailed as exc:
                failed += 1
                with pytest.raises(RootFindingFailed) as got:
                    poles(tf)
                assert str(got.value) == str(exc)
                continue
            got = poles(tf)
            assert len(got) == len(want)
            assert all(g == w for g, w in zip(got, want)), den
        assert 0 < failed < 600

    def test_zero_derivative_stops_that_root_only(self):
        # the companion roots of z^3 are exactly 0, where den' vanishes, so
        # no correction is tried; z^3 + z^2 has such a double root beside a
        # simple root at -1 that keeps its corrections
        for den in ([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]):
            tf = TransferFunction([1.0], den)
            assert poles(tf) == reference_poles(tf)


class TestStability:
    def test_ex1_stable(self, plants):
        assert is_stable(plants["ex1"])

    def test_unit_circle_pole_not_stable(self):
        assert not is_stable(TransferFunction([1.0], [-1.0, 1.0]))

    def test_all_bundled_plants_stable(self, plants):
        for tf in plants.values():
            assert is_stable(tf)

    def test_verdict_kept_on_the_plant(self, monkeypatch):
        # both verdicts are stored on first use; a fresh plant with the same
        # coefficients computes its own
        calls = []

        def counting(tf):
            calls.append(tf)
            return poles(tf)

        monkeypatch.setattr(lti_core, "poles", counting)
        stable, unstable = unit(0.5), TransferFunction([1.0], [-1.0, 1.0])
        assert [is_stable(tf) for tf in (stable, unstable, stable, unstable)] == [
            True, False, True, False
        ]
        assert calls == [stable, unstable]
        assert is_stable(unit(0.5)) and len(calls) == 3

    def test_root_finding_failure_not_kept(self):
        # a denominator on which root polishing fails raises on every call
        for den in seeded_denominators(15, 600):
            tf = TransferFunction([1.0], den)
            try:
                poles(tf)
            except RootFindingFailed:
                break
        else:
            pytest.fail("no seeded denominator fails root finding")
        for _ in range(2):
            with pytest.raises(RootFindingFailed):
                is_stable(tf)


class TestShiftByInverseGain:
    def test_zero_plant(self):
        shifted = shift_by_inverse_gain(TransferFunction([0.0], [1.0]), 2.0)
        assert abs(evaluate(shifted, 1.1) - 0.5) < 1e-15

    def test_ex1_critical_gain_cancels_at_pi(self, plants):
        shifted = shift_by_inverse_gain(plants["ex1"], 36.1)
        assert abs(evaluate(shifted, math.pi)) < 1e-6

    def test_pointwise_identity_random_frequencies(self, plants):
        rng = np.random.default_rng(5)
        tf = plants["ex3"]
        k = 2.75
        shifted = shift_by_inverse_gain(tf, k)
        for w in rng.uniform(0.0, math.pi, size=100):
            lhs = evaluate(shifted, w)
            rhs = evaluate(tf, w) + 1.0 / k
            assert abs(lhs - rhs) < 1e-12

    def test_rejects_nonpositive_gain(self, plants):
        with pytest.raises(InvalidGain):
            shift_by_inverse_gain(plants["ex1"], 0.0)

    def test_rejects_infinite_gain(self, plants):
        # inf would pass a positivity test and turn the coefficients into inf/nan
        with pytest.raises(InvalidGain, match="finite"):
            shift_by_inverse_gain(plants["ex1"], math.inf)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1e308, 5e-324], ids=["overflowing-coefficients", "infinite-1/k"])
    def test_rejects_gain_whose_shift_is_not_finite(self, plants, k):
        # k num + den overflows at 1e308, and 1/k does at 5e-324, both without a warning
        with pytest.raises(InvalidGain, match="not finite"):
            shift_by_inverse_gain(plants["ex1"], k)

    def test_shift_keeps_the_stability_verdict(self, monkeypatch):
        # (k num + den)/(k den) has the plant's poles: a known verdict carries
        # over without a poles call, an unknown one stays unknown
        stable, unstable = unit(0.5), TransferFunction([1.0], [-1.0, 1.0])
        for tf in (stable, unstable):
            is_stable(tf)
        calls = []

        def counting(tf):
            calls.append(tf)
            return poles(tf)

        monkeypatch.setattr(lti_core, "poles", counting)
        assert is_stable(shift_by_inverse_gain(stable, 2.0))
        with pytest.raises(NotStable):
            nyquist_value(shift_by_inverse_gain(unstable, 2.0))
        assert calls == []
        fresh = shift_by_inverse_gain(unit(0.5), 2.0)
        assert is_stable(fresh) and calls == [fresh]


class TestAffineCombine:
    def test_identity(self, plants):
        combined = affine_combine([(1.0, plants["ex1"])])
        for w in (0.3, 1.7, 3.0):
            assert abs(evaluate(combined, w) - evaluate(plants["ex1"], w)) < 1e-12

    def test_two_halves(self, plants):
        combined = affine_combine([(0.5, plants["ex2"]), (0.5, plants["ex2"])])
        for w in (0.3, 1.7, 3.0):
            assert abs(evaluate(combined, w) - evaluate(plants["ex2"], w)) < 1e-10

    def test_weighted_mix_matches_pointwise_sum(self, plants):
        g1 = shift_by_inverse_gain(plants["ex1"], 12.9)
        g2 = shift_by_inverse_gain(plants["ex2"], 3.8)
        combined = affine_combine([(0.2, g1), (0.8, g2)])
        w = math.pi / 2
        expected = 0.2 * evaluate(g1, w) + 0.8 * evaluate(g2, w)
        assert abs(evaluate(combined, w) - expected) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            affine_combine([])


class TestNyquistValue:
    def test_ex1(self, plants):
        k = nyquist_value(plants["ex1"])
        assert abs(k - 36.100) < 1e-3

    def test_ex5(self, plants):
        k = nyquist_value(plants["ex5"])
        assert abs(k - 0.51373) < 1e-4

    def test_unit_delay(self):
        tf = TransferFunction([1.0], [0.0, 1.0])
        assert abs(nyquist_value(tf) - 1.0) < 1e-9

    def test_passive_plant_unbounded(self):
        assert math.isinf(nyquist_value(unit()))

    def test_requires_stability(self):
        with pytest.raises(NotStable):
            nyquist_value(TransferFunction([1.0], [-1.0, 1.0]))

    def test_all_bundled_plants(self, plants):
        for name, tf in plants.items():
            k = nyquist_value(tf)
            assert abs(k - KNOWN_NYQUIST[name]) / KNOWN_NYQUIST[name] < 1e-3

    def test_constant_plant(self):
        assert nyquist_value(unit(-0.5)) == 2.0

    def test_tangential_touch_of_minus_one(self):
        # G(z) = -0.95 - 0.1 z^-1 + 0.1125 z^-2 - 0.0625 z^-3 + 0.0125 z^-4 has
        # Im G = -0.1 sin(w) (cos(w) - 1/2)^2 (cos(w) - 3/2): the curve touches
        # -1 at w = pi/3 without crossing the real axis, while the endpoints
        # give only -0.987 and -0.662, so the value is exactly 1
        tf = TransferFunction([0.0125, -0.0625, 0.1125, -0.1, -0.95], [0.0, 0.0, 0.0, 0.0, 1.0])
        assert abs(evaluate(tf, math.pi / 3) + 1.0) < 1e-15
        assert abs(nyquist_value(tf) - 1.0) < 1e-7


class TestInvariants:
    def test_conjugate_symmetry(self, plants):
        rng = np.random.default_rng(99)
        for name in ("ex1", "ex4"):
            tf = plants[name]
            for w in rng.uniform(0.0, math.pi, size=1000):
                v = evaluate(tf, w)
                assert abs(v.conjugate() - evaluate(tf, -w)) < 1e-12

    def test_nyquist_against_brute_force_grid(self, plants):
        # oracle: dense grid restricted to near-real responses, plus the grid
        # points next to a sign change of Im (steep crossings can step over
        # the near-real band)
        cases = dict(plants)
        rng = np.random.default_rng(11)
        for j in range(8):
            order = int(rng.integers(2, 7))
            ps = list(rng.uniform(-0.9, 0.9, order % 2))
            for _ in range(order // 2):
                p = rng.uniform(0.0, 0.9) * cmath.exp(1j * rng.uniform(0.0, math.pi))
                ps += [p, p.conjugate()]
            den = np.poly(ps).real[::-1]
            num = rng.normal(size=int(rng.integers(1, order + 2)))
            cases[f"random{j}"] = TransferFunction(num, den)
        for name, tf in cases.items():
            w = np.linspace(0.0, math.pi, 10**6)
            g = frequency_response(tf, w)
            near_real = np.abs(g.imag) < 1e-6
            near_real[:-1] |= np.sign(g.imag[:-1]) * np.sign(g.imag[1:]) < 0.0
            real_parts = g.real[near_real]
            neg = real_parts[real_parts < 0.0]
            oracle = np.min(-1.0 / neg) if neg.size else math.inf
            got = nyquist_value(tf)
            if math.isinf(oracle):
                assert math.isinf(got), name
            else:
                assert abs(got - oracle) / oracle < 1e-3, name

    def test_closed_loop_stability_below_nyquist_gain(self, plants):
        for name, tf in plants.items():
            k_n = nyquist_value(tf)
            for frac in (0.25, 0.5, 0.9):
                k = frac * k_n
                closed = TransferFunction(
                    tf.num, tf.num.scale(k) + tf.den
                )
                assert is_stable(closed), (name, frac)
