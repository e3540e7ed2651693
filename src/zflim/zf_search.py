"""Primal search for an FIR multiplier certifying positivity on the unit circle.

Feasibility of Re{M(e^{jw}) G(e^{jw})} > 0 over a dense grid is a linear
program in the taps.  Grid feasibility is necessary but not sufficient, so a
found multiplier is accepted only when one root solve proves its positivity
on the whole circle (`_circle_min`).  The LP is solved by row generation
(`simplex.generate_rows`), as only a few dozen grid rows ever bind.  A
bisection builds the grid, the tap basis and the samples of G once; each
slope k only shifts the samples to g + 1/k.  Taps found at one slope settle
every smaller slope up to their reach without another search: the exact
slope at which they stay positive on the whole circle, a ratio of
trigonometric polynomials maximised by one more root solve
(`_circle_shift`).  Each search after the first weights its margin by the
last taps' Re{M}, so the taps it finds reach further past its slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketInvalid, LpNumericalFailure, NotStable
from .lti_core import Polynomial, TransferFunction, frequency_response, is_stable
from .lti_core import _bisect, _check_bracket, _companion_roots
from .phase_limits import coprime_pairs
from .rational_core import CLASS_TAGS, MONOTONE, FirMultiplier
from .simplex import generate_rows, simplex_max_leq  # noqa: F401 (perfbench traces this binding)

RATIONAL_AUGMENT_BETA = 12
DEFAULT_GRID_SIZE = 2000
# required positivity margin, relative to 1 + |G|, on the search grid
EPS_POS = 1e-7
# the taps' l1 norm is capped at 1 - DELTA_NORM
DELTA_NORM = 1e-6
# relative back-off of the exact shift s* before `_circle_min` proves the reach
REACH_BACKOFF = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Tap range and grid size for the multiplier search."""

    n_z: int
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.n_z < 1 or self.grid_size < 2:
            raise ValueError(f"need n_z >= 1 and grid_size >= 2, got {self.n_z}, {self.grid_size}")


def _search_grid(grid_size: int) -> np.ndarray:
    rational = [rf.omega for rf in coprime_pairs(RATIONAL_AUGMENT_BETA)]
    return np.unique(np.concatenate([np.linspace(0.0, math.pi, grid_size), rational]))


def _laurent(h: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Coefficients c_j, j = -N..N, N = n_z + deg den, of p = Re{M(z) num(z)
    conj(den(z))} = c_0 + 2 sum_{j>0} c_j cos(jw) on |z| = 1, taps h at -n_z..-1,
    1..n_z, ascending num and den with deg num <= deg den."""
    n_z = h.size // 2
    m = np.insert(-h[::-1], n_z, 1.0)  # z^n_z M(z), ascending
    q = np.convolve(np.convolve(m, num), den[::-1])
    n = n_z + den.size - 1
    q = np.pad(q, (0, 2 * n + 1 - q.size))
    return 0.5 * (q + q[::-1])


def _cos_sum(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The cosine sum of `_laurent` coefficients c at the angles w."""
    n = c.size // 2
    return c[n] + 2.0 * np.cos(np.outer(w, np.arange(1, n + 1))) @ c[n + 1 :]


def _angles(r: np.ndarray) -> np.ndarray:
    """0, pi and the angles of the roots of sum_j r_j z^j (r ascending)."""
    return np.concatenate([[0.0, math.pi], np.angle(_companion_roots(Polynomial(r).coeffs))])


def _circle_min(h: np.ndarray, num: np.ndarray, den: np.ndarray) -> float:
    """Minimum over |z| = 1 of p = Re{M(z) num(z) conj(den(z))} (`_laurent`); it
    is at a root of z^N p'(z) ~ sum j c_j z^(j+N).  p is taken at 0, pi and
    every root's angle, each a true sample, so no root is judged on |z| = 1."""
    c = _laurent(h, num, den)
    n = c.size // 2
    return float(np.min(_cos_sum(c, _angles(np.arange(-n, n + 1) * c))))


def _circle_shift(h: np.ndarray, num: np.ndarray, den: np.ndarray) -> float:
    """s* = max over |z| = 1 of -P/Q, P = Re{M num conj(den)}, Q = Re{M} |den|^2,
    the smallest shift s with Re{M (num/den + s)} >= 0 on the whole circle
    when Q > 0.  The maximum is at 0, pi or a root of P'Q - PQ', whose
    coefficients sum_{j+k=m} (j - k) p_j q_k vanish at m = +-2N; each angle is
    a true sample, so s* is the maximum of -P/Q up to rounding."""
    p, q = _laurent(h, num, den), _laurent(h, den, den)
    j = np.arange(p.size) - p.size // 2
    w = _angles((np.convolve(j * p, q) - np.convolve(p, j * q))[1:-1])
    return float(np.max(-_cos_sum(p, w) / _cos_sum(q, w)))


def _grid_lp(basis: np.ndarray, g: np.ndarray, weight: np.ndarray, class_tag: str):
    """Taps of the class in the l1 budget maximising the margin t with
    Re{M g} - EPS_POS (1 + |g|) >= t weight at the samples g (`basis` holds
    e^{-j w i} there), or None when that margin is negative; weight > 0."""
    a = (basis * g[:, None]).real
    b = g.real - EPS_POS * (1.0 + np.abs(g))
    A = a if class_tag == MONOTONE else np.hstack([a, -a])
    n_taps = A.shape[1]

    # shift the free margin variable so the slack basis is feasible
    shift = 1.0 + max(0.0, float(np.max(-b / weight)))
    cost = np.zeros(n_taps + 1)
    cost[n_taps] = 1.0

    rows = np.column_stack((A, weight))  # the taps, then the margin
    budget = (np.append(np.ones(n_taps), 0.0)[None, :], 1.0 - DELTA_NORM)  # the l1 budget
    tol_violation = 1e-10 * max(1.0, float(np.max(np.abs(b))))
    sol, _ = generate_rows(cost, rows, b + shift * weight, tol_violation, budget)
    if sol.status != "optimal" or sol.objective - shift < 0.0:
        return None

    h_stack = sol.x[:n_taps]
    h = h_stack if class_tag == MONOTONE else h_stack[: n_taps // 2] - h_stack[n_taps // 2 :]
    norm = float(np.abs(h).sum())
    if norm > 1.0:
        raise LpNumericalFailure(f"search LP taps have l1 norm {norm!r} above 1")
    return h


def _search(G: TransferFunction, config: SearchConfig, class_tag: str):
    """The search step at a shift s of G and the reach of its last taps, from
    one sampling of G on the search grid.  A slope k is s = 1/k (G + 1/k has
    G's poles).

    step(s) runs the grid LP (`_grid_lp`) on the samples g + s and accepts
    its taps only when `_circle_min` proves Re{M (G + s)} >= 0 on the whole
    circle.  The margin is weighted by Re{M_last} of the last accepted taps
    (all ones before the first).  As Re{M_last} >= 1 - |h|_1 >= DELTA_NORM > 0,
    the LP is feasible exactly when the unweighted one is; its vertex
    maximises the margin normalised as Crouzeix, Ferland and Schaible (JOTA
    47(1), 1985) normalise the Dinkelbach step (Mgmt. Sci. 13(7), 1967), so
    its taps reach further past s.  Weighted taps that fail `_circle_min`
    are searched once more unweighted.  It raises LpNumericalFailure when
    the LP returns taps of l1 norm above 1.

    reach(k_hi) is 1/s* of the last accepted taps (`_circle_shift`), backed
    off by REACH_BACKOFF and capped below k_hi, and counts only where
    `_circle_min` proves the taps at that slope (0.0 when that fails)."""
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if not is_stable(G):
        raise NotStable("multiplier search requires a stable plant")
    w = _search_grid(config.grid_size)
    idx = np.concatenate([np.arange(-config.n_z, 0), np.arange(1, config.n_z + 1)])
    basis = np.exp(-1j * np.outer(w, idx))
    g_grid = frequency_response(G, w)
    num, den = G.num.coeffs, G.den.coeffs
    ones = np.ones(w.size)
    last = None  # taps of the last accepted step

    def step(s: float) -> Optional[FirMultiplier]:
        nonlocal last
        g = g_grid + s
        shifted = (G.num + G.den.scale(s)).coeffs
        for weight in [ones] if last is None else [(1.0 - basis @ last).real, ones]:
            h = _grid_lp(basis, g, weight, class_tag)
            if h is None:
                return None
            # sufficiency: p = Re{M (G + s)} |den|^2 on the whole circle
            if _circle_min(h, shifted, den) >= 0.0:
                last = h
                taps = {int(i): float(v) for i, v in zip(idx, h) if v != 0.0}
                return FirMultiplier(taps, class_tag)
        return None

    def reach(k_hi: float) -> float:
        s = _circle_shift(last, num, den)
        s += REACH_BACKOFF * abs(s)
        r = 1.0 / s if s > 1.0 / k_hi else float(np.nextafter(k_hi, 0.0))
        if _circle_min(last, (G.num + G.den.scale(1.0 / r)).coeffs, den) < 0.0:
            return 0.0
        return r

    return step, reach


def find_multiplier(
    G_tilde: TransferFunction, config: SearchConfig, class_tag: str
) -> Optional[FirMultiplier]:
    """Multiplier of the class with Re{M G_tilde} >= 0 on the whole circle, or None.

    Maximises the positivity margin over taps with the class sign pattern
    and an l1 budget of 1 - DELTA_NORM.  Success requires the margin to
    clear EPS_POS * (1 + |G|) on the search grid and the minimum of
    Re{M G_tilde} over the circle, found by one polynomial root solve, to
    be non-negative.
    """
    step, _ = _search(G_tilde, config, class_tag)
    return step(0.0)


def bisect_lower_bound(
    G: TransferFunction,
    config: SearchConfig,
    class_tag: str,
    k_lo: float,
    k_hi: float,
    tol_k: float,
) -> float:
    """Largest slope (within tol_k) at which a multiplier is found or proven.

    The caller establishes the bracket: the search must succeed at k_lo and
    fail at k_hi.  G is sampled once; slope k searches at g + 1/k.  Taps
    accepted at one slope are valid at every smaller one: with s = 1/k and
    s' > s, Re{M (G + s')} = Re{M (G + s)} + (s' - s) Re{M}, and Re{M} >=
    1 - |h|_1 >= DELTA_NORM > 0, so Re{M (G + s)} rises on the whole circle.
    So each accepted search's taps settle, without a search, every midpoint
    up to their reach (`_search`): the exact slope at which they stay
    positive on the whole circle, where `_circle_min` proves them.  Each
    search after the first normalises its margin by the last taps, so the
    reach jumps toward the bound; both bracket ends still run their own
    search.
    """
    _check_bracket(k_lo, k_hi, tol_k)
    step, reach = _search(G, config, class_tag)
    proven = 0.0  # the largest reach of the taps found so far

    def fails(k):
        nonlocal proven
        if step(1.0 / k) is None:
            return True
        proven = max(proven, reach(k_hi))
        return False

    if fails(k_lo):
        raise BracketInvalid(f"search fails already at k_lo={k_lo}")
    if not fails(k_hi):
        raise BracketInvalid(f"search still succeeds at k_hi={k_hi}")
    return _bisect(lambda k: k > proven and fails(k), k_lo, k_hi, tol_k)[0]
