"""Primal search for an FIR multiplier certifying positivity on the unit circle.

Positivity of Re{M(e^{jw}) G(e^{jw})} for all w is a semi-infinite LP in the
taps, solved by the exchange method (Kelley, 1960; Hettich and Kortanek,
SIAM Rev. 35, 1993): the LP on SEED_SIZE equispaced frequencies, re-solved
warm (`simplex.generate_rows`) with rows at the negative local minima of
p = Re{M num conj(den)} over the whole circle, which one root solve of p'
finds, until p has none (positivity is proved on the whole circle) or the
margin is negative (no taps of the class exist).  A bisection samples G at
the seed once, each slope k shifting the samples to g + 1/k.  Taps found at
one slope move the bracket's lower end to their reach: the exact slope at
which they stay positive on the whole circle, a ratio of trigonometric
polynomials maximised by one more root solve (`_circle_shift`).  Each
search after the first weights its margin by the last taps' Re{M}, so the
taps it finds reach further past its slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketInvalid, NotStable
from .lti_core import Polynomial, TransferFunction, frequency_response, is_stable
from .lti_core import _bisect, _check_bracket, _companion_roots
from .rational_core import MONOTONE, FirMultiplier, _check_class
from .simplex import generate_rows, simplex_max_leq  # noqa: F401 (perfbench/selftest.py checks it)

# equispaced frequencies in [0, pi] the exchange starts from
SEED_SIZE = 64
# required margin, relative to 1 + |G|, at each frequency of the LP: acceptance
# asks only p >= 0, and this buffer keeps the frequencies each round adds apart
# from those already held, so the exchange stops in finitely many rounds
EPS_POS = 1e-7
# the taps' l1 norm is capped at 1 - DELTA_NORM
DELTA_NORM = 1e-6
# relative back-off of the exact shift s* before `_circle_min` proves the reach
REACH_BACKOFF = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Tap range for the multiplier search: taps at -n_z..-1, 1..n_z."""

    n_z: int

    def __post_init__(self):
        if self.n_z < 1:
            raise ValueError(f"need n_z >= 1, got {self.n_z}")


def _laurent(h: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Coefficients c_j, j = -N..N, N = n_z + deg den, of p = Re{M(z) num(z)
    conj(den(z))} = c_0 + 2 sum_{j>0} c_j cos(jw) on |z| = 1, taps h at -n_z..-1,
    1..n_z, ascending num and den with deg num <= deg den."""
    n_z = h.size // 2
    m = np.concatenate([-h[n_z:][::-1], [1.0], -h[:n_z][::-1]])  # z^n_z M(z), ascending
    q = np.convolve(np.convolve(m, num), den[::-1])
    c = np.zeros(2 * (n_z + den.size - 1) + 1)
    c[:q.size] = q
    return 0.5 * (c + c[::-1])


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


def _search(G: TransferFunction, config: SearchConfig, class_tag: str):
    """The search step at a shift s of G and the reach of its last taps, from
    one sampling of G at the seed frequencies.  A slope k is s = 1/k (G + 1/k
    has G's poles).

    step(s) maximises the margin t of the taps of the class in the l1 budget
    1 - DELTA_NORM with Re{M g} - EPS_POS (1 + |g|) >= t Re{M_last} at the
    frequencies held, g = G + s there, by the exchange method: it adds the
    negative local minima of p = Re{M (G + s)} |den|^2 until there are none
    (it accepts the taps) or t < 0 (it returns None).  Re{M_last} belongs
    to the last accepted taps (all ones before the first); as Re{M_last} >=
    1 - |h|_1 >= DELTA_NORM > 0, it moves the vertex but not the sign of the
    margin: the vertex maximises the margin normalised as Crouzeix, Ferland
    and Schaible (JOTA 47(1), 1985) normalise the Dinkelbach step (Mgmt.
    Sci. 13(7), 1967), so its taps reach further past s.  The l1 budget is
    the last seed row, so `generate_rows` raises LpNumericalFailure when the
    LP's taps break it.

    reach(k, k_hi) is 1/s* of the taps last accepted, at k (`_circle_shift`),
    backed off by REACH_BACKOFF and capped below k_hi; it is k unless it is
    above k and `_circle_min` proves the taps there."""
    _check_class(class_tag)
    if not is_stable(G):
        raise NotStable("multiplier search requires a stable plant")
    w_seed = np.linspace(0.0, math.pi, SEED_SIZE)
    g_seed = frequency_response(G, w_seed)
    idx = np.concatenate([np.arange(-config.n_z, 0), np.arange(1, config.n_z + 1)])
    seed_basis = np.exp(-1j * np.outer(w_seed, idx))
    n_taps = idx.size if class_tag == MONOTONE else 2 * idx.size
    cost = np.append(np.zeros(n_taps), 1.0)  # the taps, then the margin
    budget = np.append(np.ones(n_taps), 0.0)  # the l1 budget row, <= 1 - DELTA_NORM
    num, den = G.num.coeffs, G.den.coeffs
    last = None  # taps of the last accepted step

    def rows(basis, g):
        """Rows a h + Re{M_last} t <= Re{g} - EPS_POS (1 + |g|) at the angles w of
        the tap basis exp(-j w idx)."""
        a = (basis * g[:, None]).real
        weight = np.ones(g.size) if last is None else (1.0 - basis @ last).real
        A = a if class_tag == MONOTONE else np.hstack([a, -a])
        return np.column_stack((A, weight)), g.real - EPS_POS * (1.0 + np.abs(g))

    def taps(x):
        return x[: idx.size] if class_tag == MONOTONE else x[: idx.size] - x[idx.size : n_taps]

    def step(s: float) -> Optional[FirMultiplier]:
        nonlocal last
        shifted = (G.num + G.den.scale(s)).coeffs
        A, b = rows(seed_basis, g_seed + s)
        # the LP's variable is t + shift >= 0, so the slack basis is feasible on the seed
        shift = 1.0 + max(0.0, float(np.max(-b / A[:, -1])))

        def minima(x):
            """Rows at the negative local minima of p over the whole circle, at
            the angles of the roots of p' (`_circle_min`); none once t < 0."""
            if x[-1] < shift:
                return A[:0], b[:0]
            c = _laurent(taps(x), shifted, den)
            n = c.size // 2
            w = np.unique(np.abs(_angles(np.arange(-n, n + 1) * c)))
            p = _cos_sum(c, w)  # a negative local minimum is below its neighbouring angles
            w = w[(p < 0.0) & (p <= np.append(p[1:], np.inf)) & (p <= np.append(np.inf, p[:-1]))]
            if not w.size:
                return A[:0], b[:0]
            A_new, b_new = rows(np.exp(-1j * np.outer(w, idx)), frequency_response(G, w) + s)
            return A_new, b_new + shift * A_new[:, -1]

        sol, _, _ = generate_rows(cost, np.vstack([A, budget]),
                                  np.append(b + shift * A[:, -1], 1.0 - DELTA_NORM), minima)
        if sol.status != "optimal":
            return None
        h = taps(sol.x)
        if sol.x[-1] < shift:
            return None
        last = h
        return FirMultiplier({int(i): float(v) for i, v in zip(idx, h) if v != 0.0}, class_tag)

    def reach(k: float, k_hi: float) -> float:
        s = _circle_shift(last, num, den)
        s += REACH_BACKOFF * abs(s)
        r = 1.0 / s if s > 1.0 / k_hi else float(np.nextafter(k_hi, 0.0))
        if r <= k or _circle_min(last, (G.num + G.den.scale(1.0 / r)).coeffs, den) < 0.0:
            return k
        return r

    return step, reach


def find_multiplier(
    G_tilde: TransferFunction, config: SearchConfig, class_tag: str
) -> Optional[FirMultiplier]:
    """Multiplier of the class with Re{M G_tilde} >= 0 on the whole circle, or None.

    Maximises the positivity margin over taps with the class sign pattern
    and an l1 budget of 1 - DELTA_NORM at the frequencies the exchange
    method holds (`_search`).  Success requires the margin to clear
    EPS_POS * (1 + |G|) there and Re{M G_tilde} to have no negative local
    minimum on the whole circle, which one polynomial root solve finds.
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
    fail at k_hi.  G is sampled once at the seed frequencies, then at those
    each exchange round adds; slope k searches at g + 1/k.  Taps
    accepted at one slope are valid at every smaller one: with s = 1/k and
    s' > s, Re{M (G + s')} = Re{M (G + s)} + (s' - s) Re{M}, and Re{M} >=
    1 - |h|_1 >= DELTA_NORM > 0, so Re{M (G + s)} rises on the whole circle.
    So each accepted search, first at k_lo, moves k_lo to its taps' reach
    (`_search`), proven by `_circle_min`, and a failed one moves k_hi to its
    slope.  Each search after the first normalises its margin by the last
    taps, so the reach jumps toward the bound.  The result is the reach of
    the last accepted taps, and a search fails within tol_k above it.
    """
    _check_bracket(k_lo, k_hi, tol_k)
    step, reach = _search(G, config, class_tag)
    if step(1.0 / k_lo) is None:
        raise BracketInvalid(f"search fails already at k_lo={k_lo}")
    k_lo = reach(k_lo, k_hi)
    if step(1.0 / k_hi) is not None:
        raise BracketInvalid(f"search still succeeds at k_hi={k_hi}")

    def test(k):
        if step(1.0 / k) is None:
            return True, k
        return False, reach(k, k_hi)

    return _bisect(test, k_lo, k_hi, tol_k)[0]
