"""Transfer-function arithmetic, stability and the linear gain limit."""

import cmath
import math

import numpy as np
import pytest

from zflim.errors import InvalidGain, NotStable, PoleOnUnitCircle
from zflim.lti_core import (
    STABILITY_MARGIN,
    Polynomial,
    TransferFunction,
    _bisect,
    affine_combine,
    evaluate,
    frequency_response,
    is_stable,
    nyquist_value,
    shift_by_inverse_gain,
)
from conftest import KNOWN_NYQUIST


def unit(value=1.0):
    return TransferFunction([value], [1.0])


def seeded_denominators(seed, count):
    """Degree 1-12 denominators: random, clustered roots, double roots, and
    coefficients spread over six decades."""
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

    @pytest.mark.parametrize("num, den", [
        ([1.0], [math.nan, 1.0]), ([1.0], [0.5, math.nan, 1.0]), ([1.0], [0.1, 0.2, 1.0, math.nan]),
        ([1.0], [1.0, math.inf]), ([1.0], [-math.inf, 0.5, 1.0]),
        ([math.nan], [1.0, 0.5]), ([0.5, math.inf], [1.0, 0.5]),
    ])
    def test_rejects_non_finite_coefficients(self, num, den):
        # NaN or inf in num or den is refused when its polynomial is built, so
        # no such plant reaches a stability check (the recursion divides by an
        # infinite leading coefficient and called [1, inf] stable)
        with pytest.raises(ValueError, match="finite"):
            TransferFunction(num, den)


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


def conjugate_pole_sets(seed, count):
    """Degree 1-8 real denominators with real poles and conjugate pairs at radii 0-1.2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        chosen = []
        while len(chosen) < n:
            radius = rng.uniform(0.0, 1.2)
            if n - len(chosen) == 1 or rng.random() < 0.3:
                chosen.append(radius * rng.choice([-1.0, 1.0]))
            else:
                p = radius * cmath.exp(1j * rng.uniform(0.0, math.pi))
                chosen += [p, p.conjugate()]
        yield np.poly(chosen).real[::-1]


def pair(radius, angle=1.0):
    """Ascending den of a conjugate pole pair at radius * exp(+-j angle)."""
    return [radius * radius, -2.0 * radius * math.cos(angle), 1.0]


class TestStability:
    def test_ex1_stable(self, plants):
        assert is_stable(plants["ex1"])

    def test_unit_circle_pole_not_stable(self):
        assert not is_stable(TransferFunction([1.0], [-1.0, 1.0]))

    def test_all_bundled_plants_stable(self, plants):
        for tf in plants.values():
            assert is_stable(tf)

    def test_double_pole(self):
        assert is_stable(TransferFunction([1.0], [0.81, -1.8, 1.0]))  # (z - 0.9)^2
        assert not is_stable(TransferFunction([1.0], [1.0, 2.0, 1.0]))  # (z + 1)^2

    def test_constant_and_pure_delay_denominators(self):
        assert is_stable(unit())
        for n in range(1, 6):
            assert is_stable(TransferFunction([1.0], [0.0] * n + [2.0]))

    def test_roundtrip_random_pole_sets(self):
        # well separated poles scaled so the largest modulus is the radius:
        # stable below 1 - STABILITY_MARGIN, not stable from there up
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
            chosen = np.array(chosen[:n])
            if len({round(p.real, 2) for p in chosen}) < len(chosen):
                continue  # keep roots well separated
            for radius, stable in ((0.5, True), (1.0 - 1e-7, True), (1.0 - 1e-10, False),
                                   (1.0 + 1e-7, False), (1.2, False)):
                den = np.poly(chosen * radius / np.max(np.abs(chosen))).real[::-1]
                assert is_stable(TransferFunction([1.0], den)) == stable, (chosen, radius)

    @pytest.mark.parametrize("den", [[-(1.0 - 2e-9), 1.0], pair(1.0 - 2e-9), pair(1.0 - 2e-9, 3.0)])
    def test_roots_inside_the_margin_stable(self, den):
        assert is_stable(TransferFunction([1.0], den))

    @pytest.mark.parametrize("radius", [1.0 - 5e-10, 1.0, 1.0 + 1e-9])
    def test_roots_on_the_margin_and_beyond_not_stable(self, radius):
        for den in ([-radius, 1.0], [radius, 1.0], pair(radius), pair(radius, 3.0)):
            assert not is_stable(TransferFunction([1.0], den)), (radius, den)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_coefficients(self, scale):
        stable = np.poly([0.5, -0.3, 0.2 + 0.6j, 0.2 - 0.6j]).real[::-1]
        assert is_stable(TransferFunction([1.0], stable * scale))
        assert not is_stable(TransferFunction([1.0], np.array(pair(1.0 + 1e-9)) * scale))
        # roots near -1e200 and -1e-200, or on the unit circle
        assert not is_stable(TransferFunction([1.0], [1.0, scale, 1.0]))

    def test_against_exact_roots(self):
        # the verdict on every denominator against 60-digit roots of its float
        # coefficients: all inside the float 1 - STABILITY_MARGIN.  Durand-Kerner
        # starts from numpy's roots, moved off the real axis so that it can
        # reach a complex pair that numpy rounds to two real roots
        mpmath = pytest.importorskip("mpmath")
        radius = mpmath.mpf(1.0 - STABILITY_MARGIN)
        dens = [den for seed in range(5) for den in seeded_denominators(seed, 60)]
        dens += list(conjugate_pole_sets(0, 600))
        mismatches = []
        with mpmath.workdps(60):
            for den in dens:
                c = np.trim_zeros(den, "b")[::-1]
                start = np.roots(c) + 1e-3 * (0.4 + 0.9j) ** np.arange(1, c.size)
                roots = mpmath.polyroots(c.tolist(), maxsteps=500, extraprec=300,
                                         roots_init=start.tolist())
                if is_stable(TransferFunction([1.0], den)) != all(abs(z) < radius for z in roots):
                    mismatches.append(den.tolist())
        assert mismatches == []


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

    def test_shift_keeps_the_plant_stability(self):
        # (k num + den)/(k den) has the plant's poles
        assert is_stable(shift_by_inverse_gain(unit(0.5), 2.0))
        with pytest.raises(NotStable):
            nyquist_value(shift_by_inverse_gain(TransferFunction([1.0], [-1.0, 1.0]), 2.0))


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
