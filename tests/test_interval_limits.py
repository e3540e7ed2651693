"""Interval slope limits and the legacy bisection method."""

import math

import numpy as np
import pytest

from zflim import interval_limits
from zflim.errors import BracketInvalid, InvalidInterval
from zflim.interval_limits import interval_slope_bound, legacy_upper_bound
from zflim.lti_core import TransferFunction, _bisect, frequency_response
from zflim.phase_limits import scan_upper_bound
from zflim.rational_core import MONOTONE, ODD

# frequency pairs at which the comparison method peaked for the bundled plants
COMPARISON_PAIRS = [(0.8966, 0.8986), (1.0455, 1.0489), (1.5674, 1.5742)]

# first-computed values, frozen as regression anchors
ANCHORS = {
    (0.8966, 0.8986, MONOTONE): 2.076521753805652,
    (0.8966, 0.8986, ODD): 4.381283489582777,
    (1.0455, 1.0489, MONOTONE): 1.7320442414429957,
    (1.0455, 1.0489, ODD): 1.7320539285772616,
    (1.5674, 1.5742, MONOTONE): 0.9999944001502498,
    (1.5674, 1.5742, ODD): 1.0000017465321362,
}


# Reference implementations: the per-point, per-start and fixed-block loops
# the vectorised code replaced.  Same arithmetic, so results must be equal.


def reference_slope_bound(a, b, class_tag, n_search):
    width = b - a
    best = 0.0
    start = 1
    while start <= n_search:
        stop = min(n_search, start + 20000 - 1)
        n = np.arange(start, stop + 1, dtype=float)
        psi_d = (np.cos(a * n) - np.cos(b * n)) / n
        phi_d = (np.sin(a * n) - np.sin(b * n)) / n
        den = width + phi_d if class_tag == MONOTONE else width - np.abs(phi_d)
        ok = den > 1e-12
        if np.any(ok):
            best = max(best, float(np.max(np.abs(psi_d[ok]) / den[ok])))
        start = stop + 1
        if width > 2.0 / start:
            envelope = (2.0 / start) / (width - 2.0 / start)
            if envelope < best:
                break
    return best


def reference_runs(g, selected):
    n = selected.size
    i = 0
    while i < n:
        if not selected[i]:
            i += 1
            continue
        j = i
        side = 1 if g.imag[i] >= 0.0 else -1
        while j < n and selected[j] and (1 if g.imag[j] >= 0.0 else -1) == side:
            j += 1
        yield np.arange(i, j), side
        i = j


def reference_screen(g, w, class_tag, terms):
    """(i, j, least requirement over i..j) of each pair, in order, that passes
    the per-slope screen of the first `terms` series terms."""
    cheap_n = np.arange(1, terms + 1, dtype=float)[:, None]
    for run, _ in reference_runs(g, g.real <= 0.0):
        if run.size < 2:
            continue
        wr = w[run]
        required = np.tan(np.maximum(np.abs(np.angle(g[run])) - math.pi / 2.0, 0.0))
        cosm = np.cos(cheap_n * wr[None, :])
        sinm = np.sin(cheap_n * wr[None, :])
        for ia in range(run.size - 1):
            req_min = np.minimum.accumulate(required[ia:])[1:]
            feasible = req_min > 0.0
            if not np.any(feasible):
                continue
            widths = wr[ia + 1 :] - wr[ia]
            psi_d = (cosm[:, ia : ia + 1] - cosm[:, ia + 1 :]) / cheap_n
            phi_d = (sinm[:, ia : ia + 1] - sinm[:, ia + 1 :]) / cheap_n
            if class_tag == MONOTONE:
                den = widths[None, :] + phi_d
            else:
                den = widths[None, :] - np.abs(phi_d)
            ratio = np.abs(psi_d) / np.where(den > 1e-12, den, np.inf)
            cheap = ratio.max(axis=0)
            for off in np.nonzero(feasible & (cheap <= req_min))[0]:
                yield int(run[ia]), int(run[ia + 1 + off]), req_min[off]


def reference_find_obstruction(g, w, class_tag):
    for i, j, req_min in reference_screen(g, w, class_tag, 32):
        a_w, b_w = float(w[i]), float(w[j])
        if req_min >= reference_slope_bound(a_w, b_w, class_tag, 100000):
            return (a_w, b_w)
    return None


def reference_legacy(G, class_tag, resolution, k_lo, k_hi, tol_k):
    w = np.arange(0.0, math.pi + resolution / 2.0, resolution)
    w[-1] = min(w[-1], math.pi)
    g_base = frequency_response(G, w)

    def obstruction(k):
        return reference_find_obstruction(g_base + 1.0 / k, w, class_tag)

    assert obstruction(k_lo) is None
    witness = obstruction(k_hi)
    if witness is None:
        return k_hi, None
    _, k_hi, witness = _bisect(lambda k: (obstruction(k), k), k_lo, k_hi, tol_k, witness)
    return k_hi, witness


def first_term(a, b, class_tag):
    """Term n = 1 of the series `interval_slope_bound` maximises."""
    psi_d, phi_d = math.cos(a) - math.cos(b), math.sin(a) - math.sin(b)
    return abs(psi_d) / ((b - a) + phi_d if class_tag == MONOTONE else (b - a) - abs(phi_d))


def random_stable_plant(rng):
    """Stable plant of order 2..5, poles inside radius 0.9, random zeros."""
    order = int(rng.integers(2, 6))
    radius = rng.uniform(0.2, 0.9, order // 2)
    angle = rng.uniform(0.05, math.pi - 0.05, order // 2)
    poles = list(radius * np.exp(1j * angle)) + list(radius * np.exp(-1j * angle))
    if order % 2:
        poles.append(rng.uniform(-0.9, 0.9))
    den = np.poly(poles).real
    num = np.poly(rng.uniform(-1.2, 1.2, order - 1)).real
    return TransferFunction(num[::-1], den[::-1])


def assert_matches_reference(tf, cls, resolution, k_lo, k_hi, tol_k):
    res = legacy_upper_bound(tf, cls, resolution, k_lo, k_hi, tol_k)
    k_ref, witness_ref = reference_legacy(tf, cls, resolution, k_lo, k_hi, tol_k)
    assert (float.hex(res.k_upper), res.witness) == (float.hex(k_ref), witness_ref)


def bundled_cases(plants):
    """`legacy_upper_bound` arguments of the 12 bundled pairs at `screen` settings."""
    for tf in plants.values():
        for cls in (MONOTONE, ODD):
            k = scan_upper_bound(tf, cls, 50).k_upper
            yield tf, cls, 1e-2, 0.5 * k, 1.5 * k, 1e-3 * k


def random_cases(resolution):
    """Six seeded random plants with a finite scan bound, classes alternating."""
    rng = np.random.default_rng(4631)
    cases = []
    while len(cases) < 6:
        tf = random_stable_plant(rng)
        cls = (MONOTONE, ODD)[len(cases) % 2]
        k = scan_upper_bound(tf, cls, 50).k_upper
        if math.isfinite(k):
            cases.append((tf, cls, resolution, 0.5 * k, 1.5 * k, 1e-3 * k))
    return cases


class TestIntervalSlopeBound:
    def test_full_interval_closed_form(self):
        # a=0, b=pi: numerator (1-(-1)^n)/n, zero phase term; max at n=1 is 2/pi
        got = interval_slope_bound(0.0, math.pi, MONOTONE)
        assert got == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_single_term_is_first_ratio(self):
        a, b = 0.7, 1.1
        for cls in (MONOTONE, ODD):
            got = interval_limits._term_ratios(a, b, np.array([1.0]), cls)
            assert got[0] == pytest.approx(first_term(a, b, cls))

    def test_regression_anchors(self):
        for (a, b, cls), expected in ANCHORS.items():
            assert interval_slope_bound(a, b, cls) == pytest.approx(expected, rel=1e-12)

    def test_bundle_and_first_term_lower_bound(self):
        for a, b in COMPARISON_PAIRS:
            for cls in (MONOTONE, ODD):
                rho = interval_slope_bound(a, b, cls)
                assert math.isfinite(rho) and rho >= first_term(a, b, cls)

    def test_tail_terms_become_negligible(self):
        for a, b in COMPARISON_PAIRS:
            for cls in (MONOTONE, ODD):
                rho = interval_slope_bound(a, b, cls)
                n = 100000.0
                psi_d = (math.cos(a * n) - math.cos(b * n)) / n
                phi_d = (math.sin(a * n) - math.sin(b * n)) / n
                den = (b - a) + phi_d if cls == MONOTONE else (b - a) - abs(phi_d)
                if den > 1e-12:
                    assert abs(psi_d) / den < 0.01 * rho

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            interval_slope_bound(1.0, 0.5, MONOTONE)

    def test_matches_fixed_block_loop(self):
        rng = np.random.default_rng(2018)
        draws = []
        for _ in range(60):
            width = float(np.exp(rng.uniform(math.log(3e-4), math.log(2.0))))
            draws.append((float(rng.uniform(0.0, math.pi - width)), width))
        # [0, width] with a tiny width: the first 64 denominators are at most
        # 1e-12, so those terms are all 0 and no cutoff applies
        for _ in range(10):
            width = float(rng.uniform(2e-6, 1e-5))
            for cls in (MONOTONE, ODD):
                assert reference_slope_bound(0.0, width, cls, 64) == 0.0, (width, cls)
            draws.append((0.0, width))
        # cutoffs that land on the 64th and the 65th term
        landed = {64: 0, 65: 0}
        while min(landed.values()) < 5:
            a, width = float(rng.uniform(0.0, 2.5)), float(rng.uniform(0.03, 0.12))
            for cls in (MONOTONE, ODD):
                m = reference_slope_bound(a, a + width, cls, 64)
                cutoff = math.ceil(2.0 * (1.0 + m) / (width * m))
                if landed.get(cutoff, 5) < 5:
                    landed[cutoff] += 1
                    draws.append((a, width))
        for a, width in draws:
            for cls in (MONOTONE, ODD):
                got = interval_slope_bound(a, a + width, cls)
                assert got == reference_slope_bound(a, a + width, cls, 100000), (a, width, cls)


class TestRuns:
    def test_matches_per_point_loop(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            g = rng.choice([-1.0, -0.0, 0.0, 1.0], size) + 1j * rng.choice([-1.0, -0.0, 0.0, 1.0], size)
            selected = g.real <= 0.0
            got = interval_limits._runs_with_consistent_side(g, selected)
            want = [(int(r[0]), int(r[-1]) + 1) for r, _ in reference_runs(g, selected)]
            assert got == want


class TestObstructionSearch:
    def test_bundled_pairs_match_reference(self, plants):
        for case in bundled_cases(plants):
            assert_matches_reference(*case)

    @pytest.mark.parametrize("resolution", [1e-2, 3e-3])
    def test_random_plants_match_reference(self, resolution):
        for case in random_cases(resolution):
            assert_matches_reference(*case)

    def test_held_pairs_hold_every_screened_pair(self, plants, monkeypatch):
        # runs nest and requirements rise with k, so the pairs held at k_hi
        # include every pair the per-slope screen passes at a tested slope
        build, find = interval_limits._held_pairs, interval_limits._find_obstruction
        held, slopes = set(), []

        def recorded_build(g, w, class_tag):
            blocks = build(g, w, class_tag)
            held.update((int(i), int(j)) for b in blocks for i, j in zip(b[0], b[1]))
            return blocks

        def recorded_find(g, *args):
            slopes.append(g)
            return find(g, *args)

        monkeypatch.setattr(interval_limits, "_held_pairs", recorded_build)
        monkeypatch.setattr(interval_limits, "_find_obstruction", recorded_find)
        cases = [*bundled_cases(plants), *random_cases(1e-2), *random_cases(3e-3)]
        for tf, cls, resolution, k_lo, k_hi, tol_k in cases:
            held.clear()
            slopes.clear()
            legacy_upper_bound(tf, cls, resolution, k_lo, k_hi, tol_k)
            w = np.arange(0.0, math.pi + resolution / 2.0, resolution)
            w[-1] = min(w[-1], math.pi)
            assert len(slopes) >= 2
            for g in slopes:
                screened = reference_screen(g, w, cls, interval_limits._CHEAP_N)
                assert {(i, j) for i, j, _ in screened} <= held

    def test_screen_runs_in_one_build_per_call(self, plants, monkeypatch):
        build, screen = interval_limits._held_pairs, interval_limits._screen_ratios
        calls = []

        def counted_build(*args):
            calls.append("build")
            held = build(*args)
            calls.append("built")
            return held

        def counted_screen(*args):
            calls.append("screen")
            return screen(*args)

        monkeypatch.setattr(interval_limits, "_held_pairs", counted_build)
        monkeypatch.setattr(interval_limits, "_screen_ratios", counted_screen)
        for case in bundled_cases(plants):
            calls.clear()
            legacy_upper_bound(*case)
            assert calls == ["build"] + ["screen"] * (len(calls) - 2) + ["built"]

    def test_signed_zero_on_the_negative_real_axis(self):
        # den(1) < 0 < num(1): the response at omega = 0 is real, negative and
        # has Im = -0.0, which demands the phase slope that Im = +0.0 does
        tf = TransferFunction([0.3, -0.2, 1.0], [-0.4, 0.0, -1.0])
        g0 = frequency_response(tf, np.array([0.0]))
        assert g0.real[0] < 0.0 and math.copysign(1.0, g0.imag[0]) == -1.0
        requirement = interval_limits._requirement
        assert requirement(g0) == requirement(g0.real + 0j) == np.tan(math.pi / 2.0)
        # a run that starts on the negative real axis finds the same first pair
        w = 0.5 + 1e-2 * np.arange(40)
        g = -1.0 + 1j * np.linspace(0.0, 0.4, 40)
        twin = g.copy()
        twin[0] = complex(-1.0, -0.0)
        for cls in (MONOTONE, ODD):
            found = [interval_limits._find_obstruction(
                x, w, interval_limits._held_pairs(x, w, cls), {}, cls) for x in (g, twin)]
            assert found == [(0.5, 0.51)] * 2

    def test_long_runs_match_reference(self, plants):
        # runs of several row blocks, screened once at k_hi
        k = scan_upper_bound(plants["ex1"], ODD, 50).k_upper
        assert_matches_reference(plants["ex1"], ODD, 3e-3, 0.5 * k, 1.5 * k, 1e-3 * k)

    @pytest.mark.parametrize("cheap_n", [1, 32])
    def test_screen_terms_change_no_result(self, plants, monkeypatch, cheap_n):
        # the screen never exceeds the full bound and pairs are visited in the
        # same order, so its term count only changes how many full bounds run
        cases = list(bundled_cases(plants))
        rng, k = np.random.default_rng(4631), math.inf
        while not math.isfinite(k):
            tf = random_stable_plant(rng)
            k = scan_upper_bound(tf, ODD, 50).k_upper
        cases.append((tf, ODD, 3e-3, 0.5 * k, 1.5 * k, 1e-3 * k))

        def results():
            return [(r.k_upper.hex(), r.witness)
                    for r in (legacy_upper_bound(*case) for case in cases)]

        want = results()
        monkeypatch.setattr(interval_limits, "_CHEAP_N", cheap_n)
        assert results() == want


class TestLegacyUpperBound:
    def test_positive_real_plant_returns_hi(self):
        passive = TransferFunction([1.0], [1.0])
        res = legacy_upper_bound(passive, MONOTONE, 1e-3, 1.0, 5.0, 1e-2)
        assert res.k_upper == 5.0
        assert res.witness is None

    def test_obstruction_at_lo_rejects_bracket(self):
        negative = TransferFunction([-1.0], [1.0])
        with pytest.raises(BracketInvalid):
            legacy_upper_bound(negative, MONOTONE, 1e-3, 2.0, 8.0, 1e-2)

    @pytest.mark.parametrize("k_hi, tol_k, resolution, error", [
        (36.0, 0.0, 1e-2, ValueError),
        (36.0, -1.0, 1e-2, ValueError),
        (36.0, math.nan, 1e-2, ValueError),
        (math.inf, 1e-3, 1e-2, BracketInvalid),
        (36.0, 1e-3, math.inf, ValueError),
    ])
    def test_unclosable_bracket_rejected_before_any_test(
        self, plants, monkeypatch, k_hi, tol_k, resolution, error
    ):
        def evaluated(*args):
            raise AssertionError("a slope was evaluated")

        monkeypatch.setattr(interval_limits, "_held_pairs", evaluated)
        monkeypatch.setattr(interval_limits, "_find_obstruction", evaluated)
        with pytest.raises(error):
            legacy_upper_bound(plants["ex1"], MONOTONE, resolution, 10.0, k_hi, tol_k)

    def test_ex1_monotone_not_tighter_than_cone_bound(self, plants):
        res = legacy_upper_bound(plants["ex1"], MONOTONE, 1e-3, 10.0, 36.0, 1e-3)
        assert res.witness is not None
        assert res.k_upper >= 13.028374 - 1e-6
        a, b = res.witness
        assert 0.0 <= a < b <= math.pi
