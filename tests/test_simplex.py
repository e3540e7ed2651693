"""LP solver checks against hand solutions and vertex enumeration."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from zflim import cli, duality_lp, simplex, zf_search
from zflim.errors import LpNumericalFailure
from zflim.lti_core import frequency_response, shift_by_inverse_gain
from zflim.plants import BUILTIN, dump_plant
from zflim.rational_core import MONOTONE, ODD
from zflim.simplex import _TOL, LpSolution, generate_rows, simplex_max_leq
from conftest import dense_rows


def test_two_variable_box():
    sol = simplex_max_leq(np.array([1.0, 1.0]), np.eye(2), np.array([1.0, 2.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)
    assert sol.x == pytest.approx([1.0, 2.0])


def test_binding_mix():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6; vertex (4, 0) wins with 12
    A = np.array([[1.0, 1.0], [1.0, 3.0]])
    sol = simplex_max_leq(np.array([3.0, 2.0]), A, np.array([4.0, 6.0]))
    assert sol.objective == pytest.approx(12.0)
    assert sol.x == pytest.approx([4.0, 0.0])


def test_unbounded_detected():
    sol = simplex_max_leq(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]))
    assert sol.status == "unbounded"


def test_degenerate_rhs():
    # two constraints meet the optimum at the same vertex
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sol = simplex_max_leq(np.array([1.0, 1.0]), A, np.array([1.0, 1.0, 1.0]))
    assert sol.objective == pytest.approx(2.0)


def test_mixed_sign_rhs_matches_highs():
    # a fresh tableau with some b < 0 starts on the dual rule with the costs
    # shifted; optimal values must match HiGHS and infeasible LPs be detected
    # (a budget row sum(x) <= b_0 > 0 keeps every LP bounded)
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(1993)
    statuses = {"optimal": 0, "infeasible": 0}
    for trial in range(600):
        m, n = int(rng.integers(1, 25)), int(rng.integers(1, 20))
        A = rng.normal(size=(m, n)) if trial % 2 else rng.integers(-3, 4, size=(m, n)).astype(float)
        A = np.vstack([np.ones(n), A])
        b = np.append(rng.uniform(1.0, 3.0), rng.normal(size=m))
        c = rng.normal(size=n)
        sol = simplex_max_leq(c, A, b)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        statuses[sol.status] += 1
        assert ref.status == {"optimal": 0, "infeasible": 2}[sol.status], trial
        if sol.status == "optimal":
            assert sol.objective == pytest.approx(-ref.fun, rel=1e-7, abs=1e-9), trial
            assert np.all(A @ sol.x <= b + 1e-8), trial
            assert np.all(sol.x >= 0.0), trial
    assert min(statuses.values()) >= 150, statuses


@pytest.mark.parametrize("where", ["c", "A", "b"])
def test_rejects_nan(where):
    data = {"c": np.array([1.0, 1.0]), "A": np.eye(2), "b": np.array([1.0, 2.0])}
    data[where] = data[where].copy()
    data[where].flat[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        simplex_max_leq(data["c"], data["A"], data["b"])


def test_zero_rows_unbounded_when_some_cost_positive():
    sol = simplex_max_leq(np.array([-1.0, 2.0]), np.zeros((0, 2)), np.zeros(0))
    assert sol.status == "unbounded"


def test_zero_rows_optimum_zero_when_no_cost_positive():
    sol = simplex_max_leq(np.array([-1.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert list(sol.x) == [0.0, 0.0]


def test_iteration_cap_raises():
    with pytest.raises(LpNumericalFailure):
        simplex_max_leq(np.array([1.0]), np.array([[1.0]]), np.array([1.0]), maxiter=0)


def _vertex_enumeration_optimum(c, A, b):
    """Oracle: check every basic point of {Ax <= b, x >= 0}."""
    m, n = A.shape
    rows = [A[i] for i in range(m)] + [e for e in np.eye(n)]
    rhs = list(b) + [0.0] * n
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i] for i in subset])
        v = np.array([rhs[i] for i in subset])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, v)
        if np.all(x >= -1e-9) and np.all(A @ x <= b + 1e-9):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def test_random_problems_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.2, 2.0, size=m)
        c = rng.normal(size=n)
        sol = simplex_max_leq(c, A, b)
        oracle = _vertex_enumeration_optimum(c, A, b)
        if sol.status == "unbounded":
            # oracle cannot certify unboundedness; spot-check a growth ray exists
            continue
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle, abs=1e-7)
        assert np.all(A @ sol.x <= b + 1e-8)
        assert np.all(sol.x >= -1e-10)
        solved += 1
    assert solved >= 40


def _certificate_game(plant, k, beta, class_tag):
    """The full game LP of a certificate at slope k: every row but i = 0, shifted positive."""
    g = duality_lp._grid_samples(shift_by_inverse_gain(plant, k), beta)
    W = dense_rows(g, beta, class_tag)[1:]
    m, n = W.shape
    return np.ones(n), W + (1.0 - float(W.min())), np.ones(m)


def test_pivot_sequence_degenerate_game(plants):
    # 119x59 game at the LP bound itself, where many degenerate pivots tie;
    # rows Re{(1 - e^{-j w i}) g} by complex products, as they were pinned (the
    # real-arithmetic rows of `dense_rows` differ by rounding, and the
    # tie-breaking with them)
    beta, k = 60, 3.8240401704199645
    g = duality_lp._grid_samples(shift_by_inverse_gain(plants["ex2"], k), beta)
    phases = np.exp(-1j * duality_lp._grid(beta)[None, :] * np.arange(2 * beta)[:, None])
    W = ((1.0 - phases) * g[None, :]).real[1:]
    sol = simplex_max_leq(np.ones(W.shape[1]), W + (1.0 - W.min()), np.ones(W.shape[0]))
    assert sol.iterations == 30
    real = simplex_max_leq(*_certificate_game(plants["ex2"], k, beta, MONOTONE))
    assert real.objective == pytest.approx(sol.objective, rel=1e-12)


def test_pivot_sequence_steepest_edge(plants):
    assert simplex_max_leq(*_certificate_game(plants["ex1"], 13.0, 60, ODD)).iterations == 46


def test_rounding_perturbed_certificate_game_solves(plants):
    # ex1, odd class, beta 120, k 14 with rows (A + (1/14) D)[1:]: A holds the
    # rows of G itself and D the (1 -+ cos) rows of the 1/k shift, so these rows
    # differ from those of lp_certificate by ~4e-14; a kernel that lets rounding
    # drive the right-hand side below zero loses primal feasibility here and
    # pivots on to the cap
    beta, k = 120, 14.0
    omega = np.arange(1, beta) * math.pi / beta
    g = frequency_response(plants["ex1"], omega)
    phases = np.exp(-1j * omega[None, :] * np.arange(2 * beta)[:, None])
    A = np.vstack([((1.0 - phases) * g).real, ((1.0 + phases) * g).real])
    D = np.vstack([1.0 - phases.real, 1.0 + phases.real])
    W = (A + (1.0 / k) * D)[1:]
    m, n = W.shape
    sol = simplex_max_leq(np.ones(n), W + (1.0 - W.min()), np.ones(m), maxiter=5000)
    assert sol.status == "optimal"


def _random_lp(rng, kind):
    m = int(rng.integers(1, 25))
    n = int(rng.integers(1, 20))
    if kind == "integer":
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        return rng.integers(-2, 4, size=n).astype(float), A, rng.integers(0, 4, size=m).astype(float)
    if kind == "game":
        W = rng.normal(size=(m, n))
        return np.ones(n), W - W.min() + 1.0, np.ones(m)
    if kind == "integer game":
        W = rng.integers(-2, 3, size=(m, n)).astype(float)
        return np.ones(n), W - W.min() + 1.0, np.ones(m)
    b = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.1, 2.0, size=m))
    return rng.normal(size=n), rng.normal(size=(m, n)), b


def _agrees_with_highs(c, A, b, trial, maxiter=100000):
    """Solve and check against scipy's HiGHS; True when the LP is bounded."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    sol = simplex_max_leq(c, A, b, maxiter=maxiter)
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if sol.status == "unbounded":
        assert ref.status == 3, trial
        return False
    assert ref.status == 0, trial
    assert sol.objective == pytest.approx(-ref.fun, abs=1e-7), trial
    assert np.all(A @ sol.x <= b + 1e-8), trial
    assert np.all(sol.x >= 0.0), trial
    return True


def test_random_problems_match_highs():
    rng = np.random.default_rng(2024)
    kinds = ["real", "integer", "game", "integer game"]
    optimal = 0
    for trial in range(200):
        c, A, b = _random_lp(rng, kinds[trial % len(kinds)])
        optimal += _agrees_with_highs(c, A, b, trial)
    assert optimal >= 120


def _degenerate_lp(rng):
    """c and A with entries in {-1, 0, 1}, b with 80% zeros."""
    m = int(rng.integers(2, 40))
    n = int(rng.integers(2, 30))
    A = rng.integers(-1, 2, size=(m, n)).astype(float)
    b = np.where(rng.random(m) < 0.8, 0.0, 1.0)
    return rng.integers(-1, 2, size=n).astype(float), A, b


def test_degenerate_random_problems_match_highs():
    # entries in {-1, 0, 1} and mostly zero b make long runs of degenerate,
    # tied pivots, the inputs on which a cycling or stalling rule shows
    rng = np.random.default_rng(7)
    for trial in range(200):
        c, A, b = _degenerate_lp(rng)
        _agrees_with_highs(c, A, b, trial, maxiter=5000)


def _cutting_rows(rng, x, zero_frac):
    """1-5 rows a@x <= beta with beta >= 0, most of which cut x off."""
    k = int(rng.integers(1, 6))
    if zero_frac:
        A = rng.integers(-1, 2, size=(k, x.size)).astype(float)
    else:
        A = rng.normal(size=(k, x.size))
    keep = np.where(rng.random(k) < zero_frac, 0.0, rng.uniform(0.0, 0.9, size=k))
    return A, np.maximum(A @ x, 0.0) * keep


@pytest.mark.parametrize("degenerate", [False, True])
def test_added_rows_reoptimise_like_a_cold_solve(degenerate):
    # two rounds of rows cut off a nonzero optimum; the dual re-optimisation
    # must reach the optimum of a cold solve of the stacked LP.  The
    # degenerate LPs have 80% zero b, and 80% of their cuts pass through 0.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(1960)
    kinds = ["real", "integer", "game", "integer game"]
    checked = cut = 0
    while checked < 100:
        c, A, b = _degenerate_lp(rng) if degenerate else _random_lp(rng, kinds[checked % 4])
        sol = simplex_max_leq(c, A, b)
        if sol.status != "optimal" or not np.any(sol.x > 0.0):
            continue
        checked += 1
        for _ in range(2):
            A_new, b_new = _cutting_rows(rng, sol.x, 0.8 if degenerate else 0.0)
            cut += bool(np.any(A_new @ sol.x > b_new + 1e-9))
            sol.tableau.add_rows(A_new, b_new)
            sol = sol.tableau.solve()
            A, b = np.vstack([A, A_new]), np.concatenate([b, b_new])
            cold = simplex_max_leq(c, A, b)
            ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            assert sol.status == cold.status == "optimal", checked
            assert ref.status == 0, checked
            assert sol.objective == pytest.approx(cold.objective, abs=1e-9), checked
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-7), checked
            assert np.all(A @ sol.x <= b + 1e-8), checked
            assert np.all(sol.x >= 0.0), checked
    assert cut > 100


def test_added_columns_reoptimise_like_a_cold_solve():
    # 300 seeded LPs under a budget row, held on some rows and columns and
    # grown by interleaved rounds of rows (`add_rows`) and of columns
    # (`add_cols`, which prices each column with the row duals); after each
    # round the warm re-solve reaches the optimum of a cold solve and of HiGHS
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(1961)
    kinds = ["real", "integer", "game", "integer game"]
    rounds = {"rows": 0, "columns": 0}
    for trial in range(300):
        c, A, b = _random_lp(rng, kinds[trial % 4])
        A, b = np.vstack([np.ones(c.size), A]), np.append(rng.uniform(1.0, 3.0), b)
        rows = [0] + [i for i in range(1, b.size) if rng.random() < 0.5]
        cols = [j for j in range(c.size) if rng.random() < 0.5] or [0]
        tableau = simplex.Tableau(c[cols], A[np.ix_(rows, cols)], b[rows])
        for round_ in range(4):
            sol = tableau.solve()
            cold = simplex_max_leq(c[cols], A[np.ix_(rows, cols)], b[rows])
            ref = linprog(-c[cols], A_ub=A[np.ix_(rows, cols)], b_ub=b[rows], bounds=(0, None),
                          method="highs")
            assert sol.status == cold.status == "optimal" and ref.status == 0, (trial, round_)
            assert sol.objective == pytest.approx(cold.objective, abs=1e-9), (trial, round_)
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-7), (trial, round_)
            assert np.all(A[np.ix_(rows, cols)] @ sol.x <= b[rows] + 1e-8), (trial, round_)
            assert np.all(sol.x >= 0.0), (trial, round_)
            new_rows = [i for i in range(b.size) if i not in rows and rng.random() < 0.3]
            new_cols = [j for j in range(c.size) if j not in cols and rng.random() < 0.3]
            if round_ % 2 and new_rows:
                tableau.add_rows(A[np.ix_(new_rows, cols)], b[new_rows])
                rows += new_rows
                rounds["rows"] += 1
            elif new_cols:
                tableau.add_cols(A[np.ix_(rows, new_cols)], c[new_cols])
                cols += new_cols
                rounds["columns"] += 1
    assert min(rounds.values()) >= 150, rounds


@pytest.mark.parametrize("where", ["A", "c"])
def test_added_columns_must_be_finite(where):
    tableau = simplex.Tableau(np.ones(2), np.eye(2), np.ones(2))
    data = {"A": np.ones((2, 1)), "c": np.ones(1)}
    data[where].flat[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        tableau.add_cols(data["A"], data["c"])
    with pytest.raises(ValueError, match="one entry per row"):
        tableau.add_cols(np.ones((3, 1)), np.ones(1))


@pytest.mark.parametrize("where", ["A", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_added_rows_must_be_finite(where, value):
    sol = simplex_max_leq(np.array([1.0, 1.0]), np.eye(2), np.array([1.0, 2.0]))
    data = {"A": np.array([[1.0, 1.0]]), "b": np.array([1.0])}
    data[where].flat[0] = value
    with pytest.raises(ValueError, match="finite"):
        sol.tableau.add_rows(data["A"], data["b"])


def _box_with_halving_cuts():
    sol = simplex_max_leq(np.ones(2), np.eye(2), np.ones(2))
    sol.tableau.add_rows(np.eye(2), np.array([0.5, 0.5]))
    return sol.tableau


def test_dual_phase_iteration_cap_raises():
    # max x + y on the unit box, then x <= 0.5 and y <= 0.5: two dual pivots
    sol = _box_with_halving_cuts().solve()
    assert (sol.status, sol.objective, sol.iterations) == ("optimal", 1.0, 2)
    with pytest.raises(LpNumericalFailure):
        _box_with_halving_cuts().solve(maxiter=1)


def test_deep_grid_rounds_restore_dual_feasibility(plants):
    # ex1, odd class, beta 2520, k 13.511: the 10,079-row certificate game,
    # first on every (m // 64)-th row and the last, then on the 24 most violated
    # rows per round, each round re-solved warm (driven here without
    # `generate_rows`, whose cold restart would hide a stall).  Without cost
    # shifting, rounding drives a reduced cost below -_TOL (-1.3e-8 in round 6),
    # and the dual rule, which needs them >= 0, pivots on past any cap.
    # Shifting the costs keeps every round under 1,400 pivots.
    c, A, b = _certificate_game(plants["ex1"], 13.511, 2520, ODD)
    m = b.size
    active = np.unique(np.append(np.arange(0, m, m // 64), m - 1))
    sol = simplex_max_leq(c, A[active], b[active])
    rounds = 0
    while True:
        violations = A @ sol.x - b
        violations[active] = -np.inf
        worst = np.argsort(violations)[-24:]
        worst = worst[violations[worst] > 1e-14]  # the tolerances of `_certificate`
        if worst.size == 0:
            break
        active = np.union1d(active, worst)
        sol.tableau.add_rows(A[worst], b[worst])
        sol = sol.tableau.solve(maxiter=2000, feas=1e-14)
        assert sol.status == "optimal"
        rounds += 1
    assert rounds >= 6
    assert np.max(A[active] @ sol.x - b[active]) <= 1e-11
    assert sol.objective == pytest.approx(simplex_max_leq(c, A[active], b[active]).objective)


def _game(rng, integer=False):
    m, n = int(rng.integers(256, 800)), int(rng.integers(2, 25))
    W = rng.integers(-2, 3, size=(m, n)).astype(float) if integer else rng.normal(size=(m, n))
    return np.ones(n), W - W.min() + 1.0, np.ones(m)


def _seeded(A, b, tol):
    """Every (m // 64)-th row and the last of A x <= b, an oracle that adds the
    24 rows x violates most by more than tol, and the mask of the rows held."""
    m = b.size
    active = np.zeros(m, dtype=bool)
    active[np.arange(0, m, m // 64)] = active[-1] = True

    def worst_rows(x):
        violations = np.where(active, -np.inf, A @ x - b)
        worst = np.argsort(violations)[-24:]
        worst = worst[violations[worst] > tol]
        active[worst] = True
        return A[worst], b[worst]

    return A[active], b[active], worst_rows, active


def test_generated_rows_reach_the_full_optimum():
    # games, real and integer (degenerate), some with a budget row seeded last;
    # the seed rows stay, the oracle's rows are added, and every row holds at the end
    rng = np.random.default_rng(1960)
    added = 0
    for trial in range(60):
        c, A, b = _game(rng, integer=trial % 2 == 1)
        m, n = A.shape
        A_seed, b_seed, more, active = _seeded(A, b, 1e-12)
        A_all, b_all = A, b
        if trial % 3 == 0:
            A_seed, b_seed = np.vstack([A_seed, np.ones(n)]), np.append(b_seed, 1.0)
            A_all, b_all = np.vstack([A, np.ones(n)]), np.append(b, 1.0)
        sol, A_held, b_held = generate_rows(c, A_seed, b_seed, more)
        full = simplex_max_leq(c, A_all, b_all)
        assert sol.status == full.status == "optimal", trial
        assert np.array_equal(A_held[: b_seed.size], A_seed), trial
        assert b_held.size == np.count_nonzero(active) + b_all.size - b.size, trial
        assert sol.objective == pytest.approx(full.objective, abs=1e-9), trial
        assert np.all(A_all @ sol.x <= b_all + 1e-9), trial
        added += b_held.size > b_seed.size
    assert added >= 30


def test_certificate_lps_seed_one_rule(plants, monkeypatch):
    # every certificate game holds every (m // 64)-th of its m rows and the
    # last and every 8th frequency (r = 8, 16, ...), with the shift
    # 1 - min_r (Re g_r - |g_r|); the price oracle adds at most 8 frequencies
    # a round, each of negative reduced cost under the row duals
    seeds, priced = [], []

    def spying(c, A, b, more, feas=simplex._TOL, price=None):
        def pricing(y):
            A_col, c_col = price(y)
            priced.append((y @ A_col - c_col, c_col.size))
            return A_col, c_col

        seeds.append(A)
        return generate_rows(c, A, b, more, feas, pricing)

    monkeypatch.setattr(duality_lp, "generate_rows", spying)
    for beta, cls in [(60, ODD), (160, MONOTONE)]:
        priced.clear()
        duality_lp.lp_certificate(shift_by_inverse_gain(plants["ex1"], 13.0), beta, cls)
        g = duality_lp._grid_samples(shift_by_inverse_gain(plants["ex1"], 13.0), beta)
        W = dense_rows(g, beta, cls)[1:] + (1.0 - np.min(g.real - np.abs(g)))
        m = W.shape[0]
        rows = np.unique(np.append(np.arange(0, m, m // 64), m - 1))
        assert np.array_equal(seeds[-1], W[rows][:, 7::8]), (beta, m)  # r = 8, 16, ...
        assert sum(size for _, size in priced) > 0, beta
        assert all(size <= 8 and np.all(reduced < -1e-12) for reduced, size in priced), beta
    c, A, b = _game(np.random.default_rng(3))
    sol, _, _ = generate_rows(c, A, b, lambda x: (A[:0], b[:0]))
    assert sol.iterations == simplex_max_leq(c, A, b).iterations


def test_stalled_warm_resolve_restarts_cold(monkeypatch):
    # a warm re-solve past 4 pivots per held row is redone cold on those rows
    budgets = []
    add_rows = simplex.Tableau.add_rows

    def stalling(self, A, b):
        add_rows(self, A, b)

        def solve(maxiter, feas):
            budgets.append((maxiter, self.basis.size))
            raise LpNumericalFailure(f"no optimum within {maxiter} pivots")

        self.solve = solve

    monkeypatch.setattr(simplex.Tableau, "add_rows", stalling)
    c, A, b = _game(np.random.default_rng(5))
    A_seed, b_seed, more, _ = _seeded(A, b, 0.0)
    sol, _, _ = generate_rows(c, A_seed, b_seed, more)
    assert budgets and all(maxiter == 4 * rows for maxiter, rows in budgets)
    assert sol.objective == pytest.approx(simplex_max_leq(c, A, b).objective, abs=1e-9)


def test_drifted_warm_resolve_restarts_cold(monkeypatch):
    # a warm re-solve whose x breaks a held row past the bound is redone cold
    # on the rows held (a cold solve that does raises, below)
    drifted = []
    add_rows = simplex.Tableau.add_rows

    def drifting(self, A, b):
        add_rows(self, A, b)
        solve = self.solve

        def solved(*args):
            sol = solve(*args)
            sol.x = sol.x * (1.0 + 1e-6)
            drifted.append(sol.iterations)
            return sol

        self.solve = solved

    monkeypatch.setattr(simplex.Tableau, "add_rows", drifting)
    c, A, b = _game(np.random.default_rng(5))
    A_seed, b_seed, more, _ = _seeded(A, b, 1e-12)
    sol, A_held, b_held = generate_rows(c, A_seed, b_seed, more)
    assert drifted
    assert sol.objective == pytest.approx(simplex_max_leq(c, A, b).objective, abs=1e-9)
    assert np.all(A @ sol.x <= b + 1e-9)


class TestResidualCheck:
    """`generate_rows` re-checks every row it holds against the x it returns."""

    def test_drifted_solution_raises(self, monkeypatch):
        c, A, b = _game(np.random.default_rng(7))
        solve, vertex = simplex.Tableau.solve, simplex._vertex

        def drifting(scale):
            # every binding row A_i x = b_i breaks, both for the x read off the
            # rhs and for the one recomputed from the basis
            def solved(self, *args, **kwargs):
                sol = solve(self, *args, **kwargs)
                sol.x = sol.x * scale
                return sol

            monkeypatch.setattr(simplex.Tableau, "solve", solved)
            monkeypatch.setattr(simplex, "_vertex", lambda *args: vertex(*args) * scale)

        drifting(1.0 + 1e-12)
        assert generate_rows(c, *_seeded(A, b, 1e-9)[:3])[0].status == "optimal"
        drifting(1.0 + 1e-6)
        with pytest.raises(LpNumericalFailure, match="active row"):
            generate_rows(c, *_seeded(A, b, 1e-9)[:3])

    def test_drifted_rhs_recomputed_from_the_basis(self, monkeypatch):
        # the x read off the rhs breaks its binding rows; the vertex of the
        # basis holds them, so generate_rows returns it with its objective
        c, A, b = _game(np.random.default_rng(7))
        want, _, _ = generate_rows(c, *_seeded(A, b, 1e-9)[:3])
        solve = simplex.Tableau.solve

        def drifting(self, *args, **kwargs):
            sol = solve(self, *args, **kwargs)
            sol.x = sol.x * (1.0 + 1e-6)
            return sol

        monkeypatch.setattr(simplex.Tableau, "solve", drifting)
        sol, A_held, b_held = generate_rows(c, *_seeded(A, b, 1e-9)[:3])
        assert sol.status == "optimal"
        assert np.allclose(sol.x, want.x, rtol=1e-12, atol=1e-15)
        assert sol.objective == float(c @ sol.x)
        assert np.all(A_held @ sol.x - b_held <= 1e-12)

    def test_bound_never_fires_on_analyze_runs(self, monkeypatch, tmp_path):
        # the 12 bundled pairs at lp-beta 60 (TestAnalyze runs them at the
        # default 210) and 8 random plants of both classes; every returned x
        # keeps its active rows within half the bound
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import random_plant

        ratios = []

        def checked(c, A, b, more, feas=simplex._TOL, price=None):
            sol, A_held, b_held = generate_rows(c, A, b, more, feas, price)
            if sol.status == "optimal":  # a search LP may be infeasible
                bound = 10.0 * (feas + simplex._TOL * (np.abs(A_held) @ sol.x + np.abs(b_held)))
                ratios.append(np.max((A_held @ sol.x - b_held) / bound))
            return sol, A_held, b_held

        monkeypatch.setattr(zf_search, "generate_rows", checked)
        monkeypatch.setattr(duality_lp, "generate_rows", checked)
        plants = [["--example", name] for name in sorted(BUILTIN)]
        for seed in range(1, 9):
            path = tmp_path / f"rand{seed}.json"
            path.write_text(dump_plant(random_plant(np.random.default_rng(seed), str(seed))))
            plants.append(["--plant", str(path)])
        for plant in plants:
            for cls in (MONOTONE, ODD):
                code = cli.main(["analyze", *plant, "--class", cls, "--lp-beta", "60",
                                 "--out", str(tmp_path / "report.json")])
                assert code in (cli.EXIT_OK, cli.EXIT_BRACKET), (plant, cls)
        assert len(ratios) > 150
        assert max(ratios) <= 0.5


class ReferenceTableau(simplex.Tableau):
    """`Tableau` with `_pivot` and `solve` as they were before the pivot loop
    was cut to fewer numpy calls (np.outer, np.flatnonzero, np.full and a
    boolean-indexed ratio test), copied verbatim: the arithmetic the kernel
    must keep bit for bit."""

    def _pivot(self, r: int, j: int) -> None:
        """Exchange the basic variable of row r with the nonbasic one of column j."""
        T = self.T
        pivot = T[r, j]
        row = T[r] / pivot
        T[r] = row
        colv = T[:, j].copy()
        colv[r] = 0.0
        np.outer(colv, row, out=self.update)
        T -= self.update
        inv = 1.0 / pivot
        T[:, j] = -colv * inv
        T[r, j] = inv
        self.basis[r], self.nonbasic[j] = self.nonbasic[j], self.basis[r]

    def solve(self, maxiter: int = 100000, feas: float = _TOL) -> LpSolution:
        """Optimise from the current basis.

        Dual pivots run while some rhs < -feas; x reads off the rhs, so its
        rows hold to about feas.  Raises LpNumericalFailure when ``maxiter``
        pivots reach no optimum.
        """
        T = self.T
        m, n = self.basis.size, self.nonbasic.size
        rhs, red = T[:m, -1], T[m, :n]
        shifted = False
        for it in range(maxiter):  # dual rule, while added rows leave some rhs < 0
            r = int(np.argmin(rhs)) if m else 0
            if not m or rhs[r] >= -feas:
                break
            row = T[r, :n]
            candidates = np.flatnonzero(row < -_TOL)
            if candidates.size == 0:
                if rhs[r] >= -_TOL:
                    break
                return LpSolution("infeasible", None, None, it, self)
            if np.any(red < -_TOL):  # shift the costs
                np.maximum(red, 0.0, out=red)
                shifted = True
            slack, size = np.maximum(red[candidates], 0.0), -row[candidates]
            near = candidates[slack / size <= np.min((slack + _TOL) / size)]
            self._pivot(r, int(near[np.argmin(row[near])]))
        else:
            raise LpNumericalFailure(f"simplex did not converge within {maxiter} pivots")
        if shifted:  # restore them for the primal rule
            cost = np.concatenate((self.c, np.zeros(m)))
            red[:] = cost[self.basis] @ T[:m, :n] - cost[self.nonbasic]
            T[m, -1] = cost[self.basis] @ rhs
        for it in range(it, maxiter):  # primal rule
            np.maximum(rhs, 0.0, out=rhs)
            candidates = np.flatnonzero(red < -_TOL)
            if candidates.size == 0:
                break
            norms = np.einsum("ij,ij->j", T[:m, :n], T[:m, :n])
            score = red[candidates] ** 2 / (1.0 + norms[candidates])
            j = int(candidates[np.argmax(score)])
            col = T[:m, j]
            positive = col > _TOL
            if not np.any(positive):
                return LpSolution("unbounded", None, None, it, self)
            ratios = np.full(m, np.inf)
            ratios[positive] = rhs[positive] / col[positive]
            self._pivot(int(np.argmin(ratios)), j)
        else:
            raise LpNumericalFailure(f"simplex did not converge within {maxiter} pivots")

        x_full = np.zeros(n + m)
        x_full[self.basis] = rhs
        x = x_full[:n]
        return LpSolution("optimal", x, float(self.c @ x), it, self)



def _recorded(tableau):
    """The tableau, recording each (row, column) it pivots on in ``pivots``."""
    tableau.pivots = []
    pivot = tableau._pivot

    def recording(r, j):
        tableau.pivots.append((int(r), int(j)))
        pivot(r, j)

    tableau._pivot = recording
    return tableau


def _bits(sol):
    """Everything a solve returns, with floats as bytes (so -0.0 != 0.0)."""
    x = None if sol.x is None else sol.x.tobytes()
    objective = None if sol.objective is None else np.float64(sol.objective).tobytes()
    return sol.status, sol.iterations, x, objective, sol.tableau.T.tobytes()


def test_kernel_matches_the_reference_bit_for_bit():
    # 320 seeded LPs, a third with some b < 0 under a budget row (the dual rule
    # with the costs shifted, as c has positive entries), each solved cold and
    # then after two rounds of added rows of either sign of b: the same pivots,
    # x, objective and tableau as the reference pivot loop
    rng = np.random.default_rng(16)
    kinds = ["real", "integer", "game", "integer game"]
    statuses, negative_b, rounds = {"optimal": 0, "infeasible": 0, "unbounded": 0}, 0, 0
    for trial in range(320):
        if trial % 3 == 0:
            m, n = int(rng.integers(1, 25)), int(rng.integers(1, 20))
            A = np.vstack([np.ones(n), rng.normal(size=(m, n))])
            b = np.append(rng.uniform(1.0, 3.0), rng.normal(size=m))
            c = rng.normal(size=n)
            negative_b += bool(np.any(b < 0.0) and np.any(c > 0.0))
        elif trial % 3 == 1:
            c, A, b = _degenerate_lp(rng)
        else:
            c, A, b = _random_lp(rng, kinds[trial % 4])
        new = _recorded(simplex.Tableau(c, A, b))
        ref = _recorded(ReferenceTableau(c, A, b))
        for round_ in range(3):
            if round_:
                A_new = rng.normal(size=(int(rng.integers(1, 6)), c.size))
                b_new = A_new @ sol.x - rng.uniform(-0.5, 1.0, size=A_new.shape[0])
                new.add_rows(A_new, b_new)
                ref.add_rows(A_new, b_new)
                rounds += 1
            sol = new.solve(maxiter=5000)
            assert _bits(sol) == _bits(ref.solve(maxiter=5000)), (trial, round_)
            assert new.pivots == ref.pivots, (trial, round_)
            statuses[sol.status] += 1
            if sol.status != "optimal":
                break
    assert negative_b >= 80 and rounds >= 200, (negative_b, rounds)
    assert min(statuses.values()) >= 20, statuses
