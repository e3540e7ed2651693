"""Multiplier search by the exchange method, its warm-started rounds and the slope bisection."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import KNOWN_SINGLE_FREQ
from zflim import simplex, zf_search
from zflim.cli import main
from zflim.errors import BracketInvalid, LpNumericalFailure
from zflim.lti_core import (
    Polynomial,
    TransferFunction,
    _bisect,
    _companion_roots,
    frequency_response,
    is_stable,
    nyquist_value,
    shift_by_inverse_gain,
)
from zflim.phase_limits import scan_upper_bound
from zflim.rational_core import MONOTONE, ODD, FirMultiplier
from zflim.zf_search import SearchConfig, bisect_lower_bound, find_multiplier


def constant(value):
    return TransferFunction([value], [1.0])


class TestSearchConfig:
    def test_validation(self):
        for n_z in (0, -1):
            with pytest.raises(ValueError, match="n_z >= 1"):
                SearchConfig(n_z=n_z)


class TestFindMultiplier:
    def test_passive_plant_trivial_multiplier(self):
        m = find_multiplier(constant(1.0), SearchConfig(n_z=4), MONOTONE)
        assert m is not None
        assert m.taps == {}

    def test_negative_plant_has_none(self):
        for cls in (MONOTONE, ODD):
            assert find_multiplier(constant(-1.0), SearchConfig(n_z=4), cls) is None

    def test_ex2_below_limit_finds_multiplier(self, plants):
        shifted = shift_by_inverse_gain(plants["ex2"], 3.80)
        m = find_multiplier(shifted, SearchConfig(n_z=5), MONOTONE)
        assert m is not None
        assert m.class_tag == MONOTONE
        assert all(v >= 0.0 for v in m.taps.values())
        assert m.l1_norm <= 1.0 - 1e-6 + 1e-12

    def test_returned_multiplier_is_grid_positive(self, plants):
        shifted = shift_by_inverse_gain(plants["ex6"], 12.0)
        config = SearchConfig(n_z=8)
        m = find_multiplier(shifted, config, MONOTONE)
        assert m is not None
        w = np.linspace(0.0, math.pi, 12000)
        vals = (m.response(w) * frequency_response(shifted, w)).real
        assert float(np.min(vals)) >= 0.0

    def test_odd_class_allows_signed_taps(self, plants):
        shifted = shift_by_inverse_gain(plants["ex3"], 1.05)
        m = find_multiplier(shifted, SearchConfig(n_z=2), ODD)
        assert m is not None
        assert m.class_tag == ODD
        assert m.l1_norm <= 1.0 - 1e-6 + 1e-12
        # oddness is required here: the monotone class cannot reach this slope
        assert find_multiplier(shifted, SearchConfig(n_z=8), MONOTONE) is None


class TestBisectLowerBound:
    def test_ex2_monotone(self, plants):
        k = bisect_lower_bound(
            plants["ex2"], SearchConfig(n_z=5), MONOTONE, k_lo=1.9, k_hi=3.824040, tol_k=5e-3
        )
        assert k == pytest.approx(3.824, abs=0.01)

    def test_ex5_odd(self, plants):
        k = bisect_lower_bound(
            plants["ex5"], SearchConfig(n_z=8), ODD, k_lo=0.19, k_hi=0.374491, tol_k=5e-4
        )
        assert k == pytest.approx(0.3745, abs=0.002)

    def test_passive_plant_rejects_bracket(self):
        with pytest.raises(BracketInvalid):
            bisect_lower_bound(
                constant(1.0), SearchConfig(n_z=3), MONOTONE,
                k_lo=1.0, k_hi=10.0, tol_k=1e-2,
            )

    @pytest.mark.parametrize("k_hi, tol_k, error", [
        (3.9, 0.0, ValueError),
        (3.9, -1.0, ValueError),
        (3.9, math.nan, ValueError),
        (3.9, 1e-17, ValueError),  # below the spacing of floats at k_hi
        (math.inf, 1e-3, BracketInvalid),
    ])
    def test_unclosable_bracket_rejected_before_any_search(
        self, plants, monkeypatch, k_hi, tol_k, error
    ):
        def evaluated(*args):
            raise AssertionError("a slope was evaluated")

        monkeypatch.setattr(zf_search, "generate_rows", evaluated)
        with pytest.raises(error):
            bisect_lower_bound(plants["ex2"], SearchConfig(n_z=5), MONOTONE, 1.9, k_hi, tol_k)

    def test_stability_checked_once(self, plants, monkeypatch):
        calls = []

        def counting(tf):
            calls.append(tf)
            return is_stable(tf)

        monkeypatch.setattr(zf_search, "is_stable", counting)
        bisect_lower_bound(plants["ex2"], SearchConfig(n_z=5), MONOTONE, 1.9, 3.824040, 5e-2)
        assert calls == [plants["ex2"]]

    def test_bracket_agrees_with_public_search(self, plants):
        # the bisection shifts sampled values; the public path shifts the plant
        for name, cls, n_z, k_lo, k_hi in [
            ("ex2", MONOTONE, 5, 1.9, 3.824040),
            ("ex5", ODD, 8, 0.19, 0.374491),
        ]:
            config = SearchConfig(n_z=n_z)
            k = bisect_lower_bound(plants[name], config, cls, k_lo, k_hi, 1e-3 * k_hi)
            shifted = shift_by_inverse_gain(plants[name], k)
            assert find_multiplier(shifted, config, cls) is not None, (name, cls)

    def test_sandwiched_by_dual_bounds(self, plants):
        from zflim.duality_lp import bisect_upper_bound
        from zflim.phase_limits import scan_upper_bound

        cases = [("ex2", MONOTONE, 5), ("ex4", ODD, 2), ("ex3", MONOTONE, 5)]
        for name, cls, n_z in cases:
            tf = plants[name]
            scan_k = scan_upper_bound(tf, cls, beta_max=50).k_upper
            lower = bisect_lower_bound(
                tf, SearchConfig(n_z=n_z), cls,
                k_lo=0.5 * scan_k, k_hi=scan_k, tol_k=0.002 * scan_k,
            )
            upper = bisect_upper_bound(
                tf, beta=40, class_tag=cls,
                k_lo=0.5 * scan_k, k_hi=scan_k * 1.0001, tol_k=0.002 * scan_k,
            )
            assert lower <= scan_k + 1e-6, (name, cls)
            assert lower <= upper + 1e-6, (name, cls)

    def test_monotone_in_tap_count(self, plants):
        results = []
        for n_z in (2, 5, 8):
            k = bisect_lower_bound(
                plants["ex3"], SearchConfig(n_z=n_z), MONOTONE,
                k_lo=0.4, k_hi=0.802745, tol_k=2e-3,
            )
            results.append(k)
        assert results[0] <= results[1] + 2e-3
        assert results[1] <= results[2] + 2e-3


class TestWarmStartedRounds:
    @pytest.mark.parametrize("name, cls", sorted(KNOWN_SINGLE_FREQ))
    def test_final_margin_matches_cold_solve(self, plants, monkeypatch, name, cls):
        # each exchange round appends rows to the solved tableau; the margin
        # every LP of a bisection ends with must be the optimum of a cold solve
        # on its final rows, some of which can have a negative rhs (the LPs of
        # ex4/monotone need no row beyond the seed, so there the check is of
        # the seed solves alone)
        cold_solve, add_rows, solve = (
            simplex.simplex_max_leq, simplex.Tableau.add_rows, simplex.Tableau.solve)
        lps = {}  # tableau -> [c, A, b, latest solution]

        def recording(c, A, b, maxiter=100000):
            sol = cold_solve(c, A, b, maxiter)
            lps[sol.tableau] = [c, A, b, sol]
            return sol

        def appending(self, A, b):
            lp = lps[self]
            lp[1], lp[2] = np.vstack([lp[1], A]), np.concatenate([lp[2], b])
            add_rows(self, A, b)

        def resolving(self, maxiter=100000, feas=simplex._TOL):
            sol = solve(self, maxiter, feas)
            if self in lps:  # the first solve runs before `recording` sees it
                lps[self][3] = sol
            return sol

        monkeypatch.setattr(simplex, "simplex_max_leq", recording)
        monkeypatch.setattr(simplex.Tableau, "add_rows", appending)
        monkeypatch.setattr(simplex.Tableau, "solve", resolving)
        bisect_lower_bound(plants[name], SearchConfig(n_z=8), cls,
                           *analyze_bracket(plants[name], cls), 1e-4)
        assert lps
        for c, A, b, warm in lps.values():
            cold = cold_solve(c, A, b)
            assert warm.status == cold.status
            if warm.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_cold_restarts_give_the_same_results(self, plants, monkeypatch):
        # every warm re-solve forced to restart cold: the same verdicts and
        # margins, and k_lower from each bisection within tol_k and proven by
        # its last taps (taps need not match: ex6/monotone's margin has a
        # degenerate optimum, the two paths end on different vertices of it,
        # and k_lower is the reach of those taps)
        def margins():
            out = []
            for (name, cls), (k_scan, _) in sorted(KNOWN_SINGLE_FREQ.items()):
                for factor in (0.5, 0.98, 0.999, 1.0):
                    step, _ = zf_search._search(plants[name], SearchConfig(n_z=8), cls)
                    out.append((step(1.0 / (factor * k_scan)) is None, margin[-1]))
                del steps[:]
                k = bisect_lower_bound(plants[name], SearchConfig(n_z=8), cls,
                                       *analyze_bracket(plants[name], cls), 1e-4)
                last = [mult for _, mult in steps if mult is not None][-1]
                assert proven_at(plants[name], last, 8, k), (name, cls)
                out.append(k)
            return out

        margin, restarts = [], []
        generate_rows, add_rows = zf_search.generate_rows, simplex.Tableau.add_rows

        def recording(*args):
            sol, A, b = generate_rows(*args)
            margin.append(sol.objective)
            return sol, A, b

        def stalling(self, A, b):
            add_rows(self, A, b)

            def solve(maxiter, feas):
                restarts.append(maxiter)
                raise LpNumericalFailure("forced cold restart")

            self.solve = solve

        monkeypatch.setattr(zf_search, "generate_rows", recording)
        steps = []
        recording_search(monkeypatch, steps)
        warm = margins()
        monkeypatch.setattr(simplex.Tableau, "add_rows", stalling)
        forced = margins()
        assert len(restarts) > 20
        for got, want in zip(forced, warm):
            if isinstance(want, float):
                assert got == pytest.approx(want, abs=1e-4)  # k_lower
            else:
                assert got[0] == want[0]
                assert got[1] == want[1] or got[1] == pytest.approx(want[1], abs=1e-9)

    def test_dual_degenerate_rounds_terminate(self):
        # a random plant on which a plain minimum-ratio dual rule cycled: all
        # candidate columns had zero reduced costs, and first-index ties led
        # to pivots on entries as small as 8e-5
        tf = TransferFunction(
            [-0.4375468939419436, 0.5084952282587126],
            [0.11157438699583382, 0.16343171988797447, 1.0],
        )
        shifted = shift_by_inverse_gain(tf, 1.02 * 1.0022203502972118)
        assert find_multiplier(shifted, SearchConfig(n_z=8), MONOTONE) is None

    def test_pivot_count_guard(self, plants, monkeypatch):
        # 600 pivots with warm rounds, 2306 when every round re-solved from
        # the slack basis; every solve goes through the one pivot routine
        pivots = []
        pivot = simplex.Tableau._pivot

        def counting(self, r, j):
            pivots.append((r, j))
            pivot(self, r, j)

        monkeypatch.setattr(simplex.Tableau, "_pivot", counting)
        k_hi = KNOWN_SINGLE_FREQ[("ex2", MONOTONE)][0]
        bisect_lower_bound(plants["ex2"], SearchConfig(n_z=8), MONOTONE, k_hi / 1000, k_hi, 1e-4)
        assert len(pivots) <= 900


def tap_dict(h):
    """Taps h at -n_z..-1, 1..n_z as a FirMultiplier's dict."""
    n_z = h.size // 2
    return {i: float(v) for i, v in zip(list(range(-n_z, 0)) + list(range(1, n_z + 1)), h)
            if v != 0.0}


def circle_min(h, num, den):
    """The minimum of p = Re{M num conj(den)} over the whole circle (`_extrema`)."""
    return float(np.min(zf_search._extrema(zf_search._laurent(h, num, den))[1]))


def horner_p(h, num, den, w):
    """p = Re{M num conj(den)} at frequencies w, M by FirMultiplier.response (Horner)."""
    z = np.exp(1j * w)
    m = FirMultiplier(tap_dict(h), ODD).response(w)
    return (m * Polynomial(num)(z) * np.conj(Polynomial(den)(z))).real


class TestRecheckTable:
    """The candidate re-check: the minimum of p on the whole circle (`_extrema`)."""

    @pytest.mark.parametrize("n_z", [1, 3, 8, 12])
    @pytest.mark.parametrize("cls", [MONOTONE, ODD])
    def test_matches_multiplier_response(self, plants, n_z, cls):
        # never above a dense Horner minimum (a sample of p), and within 1e-9
        # of it relative to max |p|; the last draw has zero taps at both ends
        rng = np.random.default_rng(100 * n_z + len(cls))
        w = np.linspace(0.0, math.pi, 200_001)
        for name in ("ex1", "ex3", "ex5"):
            tf = plants[name]
            k = KNOWN_SINGLE_FREQ[(name, cls)][0]
            num = (tf.num + tf.den.scale(1.0 / k)).coeffs
            for draw in range(3):
                h = rng.uniform(0.0 if cls == MONOTONE else -1.0, 1.0, 2 * n_z)
                if draw == 2:
                    h[[0, -1]] = 0.0
                h *= rng.uniform(0.5, 1.0) / max(np.sum(np.abs(h)), 1.0)
                p = horner_p(h, num, tf.den.coeffs, w)
                scale = float(np.max(np.abs(p)))
                got = circle_min(h, num, tf.den.coeffs)
                assert got <= p.min() + 1e-14 * scale, (name, draw)
                assert got >= p.min() - 1e-9 * scale, (name, draw)

    @pytest.mark.parametrize("with_q", [False, True], ids=["P", "-P/Q"])
    def test_extrema_angles(self, plants, with_q):
        # the critical angles are sorted, distinct, in [0, pi], with both ends
        rng = np.random.default_rng(5)
        for name in ("ex1", "ex2", "ex4"):
            den = plants[name].den.coeffs
            for n_z in (1, 8):
                h = rng.uniform(-1.0, 1.0, 2 * n_z)
                h *= 0.9 / np.sum(np.abs(h))
                P, Q = (zf_search._laurent(h, c, den) for c in (plants[name].num.coeffs, den))
                w, v = zf_search._extrema(P, Q if with_q else None)
                assert w[0] == 0.0 and w[-1] == math.pi, (name, n_z)
                assert np.all(np.diff(w) > 0.0), (name, n_z)
                assert v.shape == w.shape

    @pytest.mark.parametrize("name", ["ex1", "ex3", "ex5"])
    def test_laurent_is_linear_in_num(self, plants, name):
        # the reach proves taps at slope r on P + Q/r, not on a shifted plant
        rng = np.random.default_rng(17)
        tf = plants[name]
        den = tf.den.coeffs
        num = np.zeros(den.size)
        num[: tf.num.coeffs.size] = tf.num.coeffs
        slopes = [KNOWN_SINGLE_FREQ[(name, cls)][0] for cls in (MONOTONE, ODD)]
        for n_z in (1, 3, 8):
            h = rng.uniform(-1.0, 1.0, 2 * n_z)
            h *= rng.uniform(0.5, 1.0) / np.sum(np.abs(h))
            P, Q = zf_search._laurent(h, num, den), zf_search._laurent(h, den, den)
            for s in [1.0 / k for k in slopes] + list(rng.uniform(0.01, 10.0, 3)):
                got = zf_search._laurent(h, num + s * den, den)
                scale = max(np.max(np.abs(got)), np.max(np.abs(P)), s * np.max(np.abs(Q)))
                assert np.max(np.abs(got - (P + s * Q))) <= 1e-14 * scale, (n_z, s)

    @pytest.mark.parametrize("name, cls", sorted(KNOWN_SINGLE_FREQ))
    def test_same_verdicts_as_horner(self, plants, name, cls):
        # accepted taps keep p >= 0 at 200,001 Horner samples, and the verdicts
        # at 0.98, 1.0 and 1.02x the scan bound stay as pinned
        tf = plants[name]
        k_scan = scan_upper_bound(tf, cls).k_upper
        config = SearchConfig(n_z=8)
        w = np.linspace(0.0, math.pi, 200_001)
        for factor, found in ((0.98, True), (1.0, False), (1.02, False)):
            shifted = shift_by_inverse_gain(tf, factor * k_scan)
            got = find_multiplier(shifted, config, cls)
            assert (got is not None) == found, (name, cls, factor)
            if got is not None:
                h = taps_of(got, config.n_z)
                assert float(np.min(horner_p(h, shifted.num.coeffs, shifted.den.coeffs, w))) >= 0.0

    def test_bisection_resamples_nothing(self, plants, monkeypatch):
        # no M is evaluated on a grid; G is sampled once at the seed
        # frequencies, then once per exchange round at the rows it adds
        responses, samples, added = [], [], []
        response, sample = FirMultiplier.response, zf_search.frequency_response
        add_rows = simplex.Tableau.add_rows

        def counting_response(self, omega):
            responses.append(omega)
            return response(self, omega)

        def counting_sample(tf, omegas):
            samples.append(omegas.size)
            return sample(tf, omegas)

        def counting_rows(self, A, b):
            added.append(b.size)
            add_rows(self, A, b)

        monkeypatch.setattr(FirMultiplier, "response", counting_response)
        monkeypatch.setattr(zf_search, "frequency_response", counting_sample)
        monkeypatch.setattr(simplex.Tableau, "add_rows", counting_rows)
        k_hi = KNOWN_SINGLE_FREQ[("ex2", MONOTONE)][0]
        bisect_lower_bound(plants["ex2"], SearchConfig(n_z=8), MONOTONE, 1.9, k_hi, 5e-3)
        assert responses == []
        assert added
        assert samples == [zf_search.SEED_SIZE] + added



def companion_extrema(p, q=None):
    """`_extrema` by the companion matrix of z^N P' (or of P'Q - PQ') in z, of
    twice the order of the comrade solve; the oracle for it."""
    j = np.arange(p.size) - p.size // 2
    r = j * p if q is None else (np.convolve(j * p, q) - np.convolve(p, j * q))[1:-1]
    roots = _companion_roots(Polynomial(r).coeffs)
    w = np.unique(np.abs(np.concatenate([[0.0, math.pi], np.angle(roots)])))
    v = zf_search._cos_sum(p, w)
    return w, (v if q is None else -v / zf_search._cos_sum(q, w))


def dense_sample(c, m=2**19):
    """The cosine sum of `_laurent` coefficients c at w = 2 pi i/m, i = 0..m/2, by one FFT."""
    a = np.zeros(m)
    a[(np.arange(c.size) - c.size // 2) % m] = c
    return np.fft.rfft(a).real


def reach_scale(P, Q, s):
    """What rounding resolves of s = max -P/Q: the terms' size over Q at the maximiser."""
    w, v = zf_search._extrema(P, Q)
    q = zf_search._cos_sum(Q, w[[np.argmax(v)]])[0]
    return (np.sum(np.abs(P)) + abs(s) * np.sum(np.abs(Q))) / q


class TestComradeSolve:
    """`_extrema` solves for the critical angles in x = cos w."""

    def test_zero_outer_taps(self, plants):
        # the support cut: without it the rounding residue of the (j - k) = 0
        # term leads the comrade matrix, and max -P/Q falls to about half
        tf = plants["ex3"]
        for seed in range(10):
            h = np.random.default_rng(seed).uniform(0.0, 1.0, 16)
            h[[0, 1, -2, -1]] = 0.0
            h *= 0.9 / np.sum(h)
            P, Q = (zf_search._laurent(h, c, tf.den.coeffs) for c in (tf.num.coeffs, tf.den.coeffs))
            got = float(np.max(zf_search._extrema(P, Q)[1]))
            dense = float(np.max(-dense_sample(P) / dense_sample(Q)))
            assert got >= dense - 1e-12 * reach_scale(P, Q, got), seed

    @pytest.mark.parametrize("n_z", [8, 64, 210])
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6"])
    def test_agrees_with_the_companion_solve(self, plants, name, n_z):
        # min P and max -P/Q agree with the companion solve to 1e-12 of what
        # rounding resolves of them, and never lose to a dense sample
        tf = plants[name]
        rng = np.random.default_rng(n_z)
        for cut in (False, True):
            h = rng.uniform(-1.0, 1.0, 2 * n_z)
            if cut:
                h[[0, 1, -2, -1]] = 0.0
            h *= 0.9 / np.sum(np.abs(h))
            P, Q = (zf_search._laurent(h, c, tf.den.coeffs) for c in (tf.num.coeffs, tf.den.coeffs))
            got, oracle = np.min(zf_search._extrema(P)[1]), np.min(companion_extrema(P)[1])
            scale = np.sum(np.abs(P))
            assert abs(got - oracle) <= 1e-12 * scale, cut
            assert got <= np.min(dense_sample(P)) + 1e-12 * scale, cut
            got, oracle = np.max(zf_search._extrema(P, Q)[1]), np.max(companion_extrema(P, Q)[1])
            scale = reach_scale(P, Q, got)
            assert abs(got - oracle) <= 1e-12 * scale, cut
            assert got >= np.max(-dense_sample(P) / dense_sample(Q)) - 1e-12 * scale, cut

    @pytest.mark.parametrize("w0", [0.05, 1.0, 3.0])
    def test_tangency(self, w0):
        # (cos w - cos w0)^2 times a positive cosine sum touches 0 at w0 (a
        # double root of P' in x = cos w); its minimum is found
        rng = np.random.default_rng(7)
        f = rng.uniform(-1.0, 1.0, 6)
        positive = np.convolve(f, f[::-1])
        positive[f.size - 1] += 0.1
        square = np.array([0.25, -math.cos(w0), 0.5 + math.cos(w0) ** 2, -math.cos(w0), 0.25])
        c = np.convolve(square, positive)
        w, v = zf_search._extrema(c)
        assert abs(np.min(v)) <= 1e-12 * np.sum(np.abs(c))
        assert w[np.argmin(v)] == pytest.approx(w0, abs=1e-6)

class TestTapBudget:
    @pytest.fixture
    def over_budget(self, monkeypatch):
        # the LP's x breaks the l1-budget row: taps summing to 1.0001 and a
        # margin low enough that no other seed row is violated; the budget is
        # a held row, so the residual check of `generate_rows` raises.  The x
        # recomputed from the basis is broken the same way
        solve = simplex.Tableau.solve

        def broken(size):
            x = np.full(size, 1.0001 / (size - 1))
            x[-1] = -1e6
            return x

        def breaking(self, maxiter=100000):
            sol = solve(self, maxiter)
            if sol.status == "optimal":
                sol.x = broken(sol.x.size)
            return sol

        monkeypatch.setattr(simplex.Tableau, "solve", breaking)
        monkeypatch.setattr(simplex, "_vertex", lambda A, b, basis, x: broken(x.size))

    def test_search_raises_typed_failure(self, plants, over_budget):
        shifted = shift_by_inverse_gain(plants["ex2"], 3.8)
        with pytest.raises(LpNumericalFailure, match="active row is violated by 0.0001"):
            find_multiplier(shifted, SearchConfig(n_z=5), MONOTONE)

    def test_cli_exits_two(self, over_budget, capsys):
        code = main(["search", "--example", "ex2", "--k", "3.8", "--nz", "5",
                     "--class", "monotone"])
        assert code == 2
        assert "active row is violated by 0.0001" in capsys.readouterr().err


def analyze_bracket(tf, cls):
    """The lower-bound bracket `zflim analyze` uses: [cap/1000, cap]."""
    cap = min(scan_upper_bound(tf, cls).k_upper, nyquist_value(tf))
    return cap / 1000.0, cap


def reference_lower_bound(G, config, cls, k_lo, k_hi, tol_k):
    """The bisection with a fresh search at every midpoint; its final (k_lo, k_hi)."""
    step, _ = zf_search._search(G, config, cls)

    def fails(k):
        return step(1.0 / k) is None

    assert not fails(k_lo) and fails(k_hi)
    return _bisect(lambda k: (fails(k), k), k_lo, k_hi, tol_k)[:2]


def taps_of(mult, n_z):
    return np.array([mult.taps.get(i, 0.0) for i in list(range(-n_z, 0)) + list(range(1, n_z + 1))])


def proven_at(G, mult, n_z, k):
    """True when the taps of mult keep Re{M (G + 1/k)} >= 0 on the whole circle."""
    num = (G.num + G.den.scale(1.0 / k)).coeffs
    return circle_min(taps_of(mult, n_z), num, G.den.coeffs) >= 0.0


def recording_search(monkeypatch, steps):
    """Wrap `zf_search._search` so each search step appends (s, result) to steps."""
    search = zf_search._search

    def recording(*args):
        step, reach = search(*args)

        def recorded(s):
            steps.append((s, step(s)))
            return steps[-1][1]

        return recorded, reach

    monkeypatch.setattr(zf_search, "_search", recording)


class TestWitnessReach:
    """Accepted taps move the bracket's lower end to their reach."""

    def test_bundled_pairs_match_plain_bisection(self, plants):
        config = SearchConfig(n_z=8)
        for (name, cls) in sorted(KNOWN_SINGLE_FREQ):
            k_lo, k_hi = analyze_bracket(plants[name], cls)
            got = bisect_lower_bound(plants[name], config, cls, k_lo, k_hi, 1e-4)
            ref_lo, _ = reference_lower_bound(plants[name], config, cls, k_lo, k_hi, 1e-4)
            assert abs(got - ref_lo) <= 1e-4, (name, cls, got, ref_lo)

    def test_random_plants_match_plain_bisection(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import random_plant

        config = SearchConfig(n_z=8)
        for seed in range(1, 11):
            tf = random_plant(np.random.default_rng(seed), str(seed)).tf()
            for cls in (MONOTONE, ODD):
                k_lo, k_hi = analyze_bracket(tf, cls)
                tol_k = 1e-4 * k_hi
                got = bisect_lower_bound(tf, config, cls, k_lo, k_hi, tol_k)
                ref_lo, _ = reference_lower_bound(tf, config, cls, k_lo, k_hi, tol_k)
                assert abs(got - ref_lo) <= tol_k, (seed, cls, got, ref_lo)

    @pytest.mark.parametrize("name, cls", [
        ("ex1", ODD), ("ex2", MONOTONE), ("ex3", MONOTONE), ("ex5", ODD), ("ex6", ODD),
    ])
    def test_reach_is_the_whole_circle_limit(self, plants, name, cls):
        config = SearchConfig(n_z=8)
        k_scan = KNOWN_SINGLE_FREQ[(name, cls)][0]
        k_hi = 1e3 * k_scan
        G = plants[name]
        num, den = G.num, G.den
        w = np.linspace(0.0, math.pi, 2**16)
        g = frequency_response(G, w)
        step, reach = zf_search._search(G, config, cls)
        for factor in (0.5, 0.9, 0.99):
            mult = step(1.0 / (factor * k_scan))
            assert mult is not None
            r = reach(factor * k_scan, k_hi)
            assert factor * k_scan <= r < k_hi
            h = taps_of(mult, config.n_z)

            def min_at(k):
                return circle_min(h, (num + den.scale(1.0 / k)).coeffs, den.coeffs)

            # a reach counts only where the whole circle proves it, and it is tight
            assert min_at(r) >= 0.0
            if r < np.nextafter(k_hi, 0.0):
                assert min_at(r * (1 + 1e-6)) < 0.0
            m = FirMultiplier(tap_dict(h), ODD).response(w)
            dense = float(np.max(-(m * g).real / m.real))
            P, Q = (zf_search._laurent(h, c, den.coeffs) for c in (num.coeffs, den.coeffs))
            assert np.max(zf_search._extrema(P, Q)[1]) >= dense

    @pytest.mark.parametrize("name, cls", sorted(KNOWN_SINGLE_FREQ))
    def test_weighted_lp_keeps_grid_feasibility(self, plants, name, cls):
        # weighting the margin by Re{M_last} > 0 moves the vertex, never the
        # verdict: each weighted exchange step agrees with an unweighted one
        config = SearchConfig(n_z=8)
        k_scan = KNOWN_SINGLE_FREQ[(name, cls)][0]
        weighted, _ = zf_search._search(plants[name], config, cls)
        assert weighted(2.0 / k_scan) is not None
        for factor in (0.5, 0.9, 0.99, 0.999, 1.0, 1.01):
            plain, _ = zf_search._search(plants[name], config, cls)  # no taps yet: all ones
            s = 1.0 / (factor * k_scan)
            assert (weighted(s) is None) == (plain(s) is None), factor

    def test_reach_stays_below_k_hi(self, plants):
        step, reach = zf_search._search(plants["ex2"], SearchConfig(n_z=5), MONOTONE)
        assert step(1.0 / 1.9) is not None
        assert reach(1.9, 2.0) == np.nextafter(2.0, 0.0)

    def test_search_count_guard(self, plants, monkeypatch):
        # 206 searches when every midpoint ran its own search, 136 with the
        # grid-margin reach, 91 with midpoints settled by the exact reach
        searches = []
        search = zf_search._search

        def counting(*args):
            step, reach = search(*args)

            def counted(s):
                searches.append(s)
                return step(s)

            return counted, reach

        monkeypatch.setattr(zf_search, "_search", counting)
        config = SearchConfig(n_z=8)
        for (name, cls) in sorted(KNOWN_SINGLE_FREQ):
            bisect_lower_bound(plants[name], config, cls, *analyze_bracket(plants[name], cls), 1e-4)
        assert len(searches) <= 90

    @pytest.mark.parametrize("name, cls", [("ex1", ODD), ("ex5", ODD), ("ex6", MONOTONE)])
    def test_bound_is_proven_and_tight(self, plants, monkeypatch, name, cls):
        # the last accepted taps prove k_lower on the whole circle, and the
        # search failed at a probe within tol_k above it (or at k_hi)
        steps = []
        recording_search(monkeypatch, steps)
        k_lo, k_hi = analyze_bracket(plants[name], cls)
        got = bisect_lower_bound(plants[name], SearchConfig(n_z=8), cls, k_lo, k_hi, 1e-4)
        last = [mult for _, mult in steps if mult is not None][-1]
        assert proven_at(plants[name], last, 8, got)
        failed = [s for s, mult in steps if mult is None]
        assert any(s >= 1.0 / (got + 1e-4) or s == 1.0 / k_hi for s in failed)
