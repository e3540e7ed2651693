"""Primal search for an FIR multiplier certifying positivity on the unit circle.

Positivity of Re{M(e^{jw}) G(e^{jw})} for all w is a semi-infinite LP in the
taps, solved by the exchange method (Kelley, 1960; Hettich and Kortanek,
SIAM Rev. 35, 1993): the LP on SEED_SIZE equispaced frequencies, re-solved
warm (`simplex.generate_rows`) with rows at the negative local minima of
p = Re{M num conj(den)} over the whole circle, among the critical angles
one root solve of p' finds (`_extrema`: p' / sin w is a polynomial in
x = cos w, so its roots are the eigenvalues of a Chebyshev comrade matrix of
half the order of a companion matrix in z), until p has none (positivity is
proved on the whole circle) or the margin is negative (no taps of the class
exist).  A bisection samples G at the seed once, each slope k shifting the
samples to g + 1/k.  Taps found at one slope move the bracket's lower end
to their reach: the exact slope at which they stay positive on the whole
circle, a ratio of trigonometric polynomials maximised, then proven, by
the same root solve.  Each search after the first weights its margin by
the last taps' Re{M}, so the taps it finds reach further past its slope,
and starts its seed LP from the basis the last search's seed LP ended on.
The lower end starts at the reach of M = 1, the circle criterion, and since
the closed-form upper bounds are nearly always tight, the first search
below the cap probes tol_k under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketInvalid, NotStable
from .lti_core import TransferFunction, _bisect, _check_bracket, frequency_response, is_stable
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
# relative back-off of the exact shift s* before `_extrema` proves the reach
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


def _extrema(p: np.ndarray, q: Optional[np.ndarray] = None):
    """Critical angles w in [0, pi] of the cosine sum P of `_laurent` coefficients
    p, and P there; given q, of -P/Q and -P/Q there.  The numerator of the
    derivative, r_m = m p_m for P' or sum_{j+k=m} (j - k) p_j q_k for P'Q - PQ',
    is antisymmetric, so it is sin w sum_{m>=1} r_m U_{m-1}(cos w) (Good, Q. J.
    Math. 12, 1961; Boyd, SIAM Rev. 55(2), 2013): the angles are 0, pi and the
    arccos of the real parts, clipped to [-1, 1], of the eigenvalues of the
    comrade matrix of u = r_1.. (x U_k = (U_{k-1} + U_{k+1})/2, with U_n taken
    from sum u_k U_k = 0), of half the order of a companion matrix in z.  p and
    q are first cut to their common nonzero support: the (j - k) = 0 term at
    m = 2N, zero in exact arithmetic, would otherwise leave a rounding residue
    as the leading coefficient when the outer taps are zero.  Each value is a
    true sample, so min P (max -P/Q) on the whole circle is the least
    (largest), to rounding."""
    keep = np.flatnonzero(p if q is None else (p != 0.0) | (q != 0.0))
    lo = keep[0] if keep.size else p.size // 2
    a = p[lo : p.size - lo]
    j = np.arange(a.size) - a.size // 2
    if q is None:
        r = j * a
    else:
        b = q[lo : q.size - lo]
        r = (np.convolve(j * a, b) - np.convolve(a, j * b))[1:-1]
    u = r[r.size // 2 + 1 :]
    nonzero = np.flatnonzero(u)
    u = u[: nonzero[-1] + 1 if nonzero.size else 0]
    n = u.size - 1
    x = np.zeros(0)
    if n > 0:
        comrade = 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
        comrade[-1] -= 0.5 * u[:n] / u[n]
        x = np.linalg.eigvals(comrade).real
    w = np.unique(np.concatenate([[0.0, math.pi], np.arccos(np.clip(x, -1.0, 1.0))]))
    v = _cos_sum(p, w)
    return w, (v if q is None else -v / _cos_sum(q, w))


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
    LP's taps break it.  The seed LP has the same shape at every s, so each
    step after the first starts it from the basis the last step's first
    optimal solve (on the seed) ended on, reinverted at s; the rows held and
    the exchange rounds are those of a cold start.  step(s, witness) adds the
    row at the angle witness to the first round's minima, after that solve,
    so the seed basis it leaves is unchanged: at a frequency where G + s
    leaves the cone every multiplier of the class can reach (the scan
    witness at its own slope), Re{M g} <= 0 there for every taps, so that
    row alone makes the margin negative.

    reach(k, k_hi) is 1/s*, s* = max -P/Q (`_extrema`) for the last taps' P and
    Q (`_laurent` of num and of den), backed off by REACH_BACKOFF and capped
    below k_hi.  It is k unless it is above k and min(P + Q/r) >= 0 proves the
    taps at r (`_laurent` is linear in num, so P + Q/r is p at slope r).
    Before the first accepted step the taps are zero, so it is the reach of
    M = 1: s* = max -Re G, the circle criterion, proven on the whole circle."""
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
    last = np.zeros(idx.size)  # taps of the last accepted step
    start = None  # the basis of the last step's first optimal solve, on the seed

    def rows(basis, g):
        """Rows a h + Re{M_last} t <= Re{g} - EPS_POS (1 + |g|) at the angles w of
        the tap basis exp(-j w idx)."""
        a = (basis * g[:, None]).real
        weight = (1.0 - basis @ last).real
        A = a if class_tag == MONOTONE else np.hstack([a, -a])
        return np.column_stack((A, weight)), g.real - EPS_POS * (1.0 + np.abs(g))

    def taps(x):
        return x[: idx.size] if class_tag == MONOTONE else x[: idx.size] - x[idx.size : n_taps]

    def step(s: float, witness: Optional[float] = None) -> Optional[FirMultiplier]:
        nonlocal last, start
        shifted = (G.num + G.den.scale(s)).coeffs
        held = [] if witness is None else [witness]  # joins the first round's minima
        A, b = rows(seed_basis, g_seed + s)
        # the LP's variable is t + shift >= 0, so the slack basis is feasible on the seed
        shift = 1.0 + max(0.0, float(np.max(-b / A[:, -1])))

        def minima(x):
            """Rows at the negative local minima of p over the whole circle, among
            its critical angles (`_extrema`); none once t < 0."""
            if x[-1] < shift:
                return A[:0], b[:0]
            w, p = _extrema(_laurent(taps(x), shifted, den))
            # a negative local minimum is below its neighbouring angles
            w = w[(p < 0.0) & (p <= np.append(p[1:], np.inf)) & (p <= np.append(np.inf, p[:-1]))]
            if not w.size:
                return A[:0], b[:0]
            w = np.append(w, held)
            held.clear()
            A_new, b_new = rows(np.exp(-1j * np.outer(w, idx)), frequency_response(G, w) + s)
            return A_new, b_new + shift * A_new[:, -1]

        sol, _, _ = generate_rows(cost, np.vstack([A, budget]),
                                  np.append(b + shift * A[:, -1], 1.0 - DELTA_NORM), minima,
                                  basis=start)
        start = sol.first_basis
        if sol.status != "optimal":
            return None
        h = taps(sol.x)
        if sol.x[-1] < shift:
            return None
        last = h
        return FirMultiplier({int(i): float(v) for i, v in zip(idx, h) if v != 0.0}, class_tag)

    def reach(k: float, k_hi: float) -> float:
        P, Q = _laurent(last, num, den), _laurent(last, den, den)
        s = float(np.max(_extrema(P, Q)[1]))
        s += REACH_BACKOFF * abs(s)
        r = 1.0 / s if s > 1.0 / k_hi else float(np.nextafter(k_hi, 0.0))
        if r <= k or np.min(_extrema(P + Q / r)[1]) < 0.0:
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
    witness: Optional[float] = None,
) -> float:
    """Largest slope (within tol_k) at which a multiplier is found or proven.

    The caller establishes the bracket: the search must fail at k_hi, and
    succeed at k_lo unless M = 1 reaches past it.  G is sampled once at the seed
    frequencies, then at those each exchange round adds; slope k searches at
    g + 1/k.  Taps accepted at one slope are valid at every smaller one:
    with s = 1/k and s' > s, Re{M (G + s')} = Re{M (G + s)} + (s' - s)
    Re{M}, and Re{M} >= 1 - |h|_1 >= DELTA_NORM > 0, so Re{M (G + s)} rises
    on the whole circle.  So each accepted search moves k_lo to its taps'
    reach (`_search`), proven by `_extrema`, and a failed one moves k_hi to
    its slope.  Before any search the reach is M = 1's, the circle-criterion
    slope 1/max(-Re G): when it is above k_lo it becomes k_lo with no search
    there, and otherwise the search runs at k_lo and must succeed.  Then the
    search at k_hi must fail.  Given a witness angle at which no multiplier
    of the class exists at k_hi (the scan witness when k_hi is the scan
    bound), that search holds its row from its first exchange round, so it
    fails after one round and leaves the same seed basis, and the result does
    not change.  As the closed-form caps are nearly always tight, the next
    search probes k_hi - tol_k (when that is above k_lo): if it fails, k_hi
    moves there and the bisection halves below it; if it accepts, its reach
    closes the bracket, and one more search at that reach, its margin
    weighted by the probe's taps (`_search`), moves k_lo to its own reach if
    it accepts.  Each search after the first starts its seed LP from the
    last search's seed basis.  The result is the reach of the last accepted
    taps (or of M = 1), and a search fails within tol_k above it.
    """
    _check_bracket(k_lo, k_hi, tol_k)
    step, reach = _search(G, config, class_tag)
    circle = reach(k_lo, k_hi)  # M = 1's reach: no taps are held yet
    if circle > k_lo:
        k_lo = circle
    elif step(1.0 / k_lo) is None:
        raise BracketInvalid(f"search fails already at k_lo={k_lo}")
    else:
        k_lo = reach(k_lo, k_hi)
    if step(1.0 / k_hi, witness) is not None:
        raise BracketInvalid(f"search still succeeds at k_hi={k_hi}")

    def test(k):
        if step(1.0 / k) is None:
            return True, k
        return False, reach(k, k_hi)

    probe = k_hi - tol_k
    if probe > k_lo:
        failed, end = test(probe)
        if failed:
            k_hi = end
        else:  # the reach closes the bracket; one search weighted by its taps reaches further
            k_lo = end if step(1.0 / end) is None else reach(end, k_hi)
    return _bisect(test, k_lo, k_hi, tol_k)[0]
