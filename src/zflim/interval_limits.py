"""Interval-based phase limitation test and its slope bisection.

An earlier style of non-existence test: over a frequency interval [a, b]
where the shifted plant forces every multiplier's phase beyond a slope
threshold, compare that requirement against the largest slope any class
member can sustain on the interval.  Kept for conservativeness and runtime
comparison against the single-frequency results; it is grid-based and
resolution-limited by construction.

A bisection tests one grid at many slopes.  The truncated-n ratio that
screens a pair of grid points, and the full slope bound of the pair,
depend only on the two grid frequencies, so one `_PairTable` per
bisection keeps them for every slope.  The slope only moves the phase
requirement, and the candidate runs are nested in it: the shift 1/k leaves
Im alone and Re + 1/k <= 0 selects more points as k grows, so a run at one
slope lies inside a run at any larger slope, and a higher slope reuses the
rows a lower one computed.  Kept ratio blocks stay within `_TABLE_BYTES`
(32 MiB, the pairs of a run of about 2,900 grid points); past it, blocks
are computed for the slope at hand and dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BracketInvalid, InvalidInterval, NotStable
from .lti_core import TransferFunction, _bisect, _check_bracket, frequency_response, is_stable
from .rational_core import MONOTONE, _check_class

DEFAULT_N_SEARCH = 100000
_CHEAP_N = 32
_FIRST_BLOCK = 64
_BLOCK = 20000
_ROWS = 64
_TABLE_BYTES = 32 << 20


@dataclass(frozen=True)
class LegacyBoundResult:
    """Bisection outcome with the obstruction interval that certified it."""

    k_upper: float
    witness: Optional[Tuple[float, float]]
    class_tag: str
    resolution: float


def _check_interval(a: float, b: float):
    if not (0.0 <= a < b <= math.pi + 1e-12):
        raise InvalidInterval(f"need 0 <= a < b <= pi, got [{a}, {b}]")


def _slope_ratios(psi_d, phi_d, width, class_tag: str) -> np.ndarray:
    """|psi_d| / (width + phi_d), or / (width - |phi_d|) for the odd class;
    0 where that denominator is at most 1e-12."""
    den = width + phi_d if class_tag == MONOTONE else width - np.abs(phi_d)
    return np.abs(psi_d) / np.where(den > 1e-12, den, np.inf)


def interval_slope_bound(
    a: float, b: float, class_tag: str, n_search: int = DEFAULT_N_SEARCH
) -> float:
    """Largest slope ratio sustainable by the class over [a, b].

    Maximum over n of |cos(a n) - cos(b n)| / (n (b - a) + sin(a n) - sin(b n))
    for the monotone class; the odd class subtracts |sin(a n) - sin(b n)|
    instead.  The search over n runs in blocks of 64, 128, ... up to
    `_BLOCK` values and stops once the 2/n envelope of the numerator can no
    longer beat the running maximum.
    """
    _check_interval(a, b)
    _check_class(class_tag)
    if n_search < 1:
        raise ValueError("n_search must be positive")
    width = b - a
    best = 0.0
    start, size = 1, _FIRST_BLOCK
    while start <= n_search:
        stop = min(n_search, start + size - 1)
        n = np.arange(start, stop + 1, dtype=float)
        psi_d = (np.cos(a * n) - np.cos(b * n)) / n
        phi_d = (np.sin(a * n) - np.sin(b * n)) / n
        best = max(best, float(np.max(_slope_ratios(psi_d, phi_d, width, class_tag))))
        start = stop + 1
        size = min(2 * size, _BLOCK)
        if width > 2.0 / start:
            envelope = (2.0 / start) / (width - 2.0 / start)
            if envelope < best:
                break
    return best


def _runs_with_consistent_side(g: np.ndarray, selected: np.ndarray):
    """Maximal index runs where Re <= 0 and the sign of Im does not change.

    Im == 0 counts as positive.  Yields (indices, side) with side +1 or -1.
    """
    upper = g.imag >= 0.0
    cuts = np.flatnonzero((selected[1:] != selected[:-1]) | (upper[1:] != upper[:-1])) + 1
    bounds = np.concatenate(([0], cuts, [selected.size]))
    for i, j in zip(bounds[:-1], bounds[1:]):
        if selected[i]:
            yield np.arange(i, j), 1 if upper[i] else -1


class _PairTable:
    """Truncated-n slope ratios and full slope bounds of grid pairs.

    Both depend only on the grid frequencies of a pair, not on the slope,
    so one table serves every slope of a bisection.  Ratios take the first
    min(_CHEAP_N, n_search) terms, so they never exceed the full bound.
    They are computed in blocks of `_ROWS` rows, widened to the right as
    runs grow, and kept while the kept blocks fit in `_TABLE_BYTES`.
    """

    def __init__(self, w: np.ndarray, class_tag: str, n_search: int):
        self.w = w
        self.class_tag = class_tag
        self.n_search = n_search
        n = np.arange(1, min(_CHEAP_N, n_search) + 1, dtype=float)[:, None]
        self.cosm = np.cos(n * w[None, :])
        self.sinm = np.sin(n * w[None, :])
        self.blocks = {}
        self.nbytes = 0
        self.bounds = {}

    def _ratios(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Truncated-n ratios of the pairs (i, j), r0 <= i < r1, c0 <= j < c1."""
        widths = self.w[None, c0:c1] - self.w[r0:r1, None]
        ratios = np.zeros((r1 - r0, c1 - c0))
        for m in range(self.cosm.shape[0]):
            n = float(m + 1)
            psi_d = (self.cosm[m, r0:r1, None] - self.cosm[m, None, c0:c1]) / n
            phi_d = (self.sinm[m, r0:r1, None] - self.sinm[m, None, c0:c1]) / n
            np.maximum(ratios, _slope_ratios(psi_d, phi_d, widths, self.class_tag), out=ratios)
        return ratios

    def _block(self, r0: int, stop: int) -> np.ndarray:
        """Ratios of the pairs (i, j), r0 <= i < r0 + _ROWS, r0 <= j < stop (or wider)."""
        kept = self.blocks.get(r0)
        done = r0 if kept is None else r0 + kept.shape[1]
        if done >= stop:
            return kept
        fresh = self._ratios(r0, min(r0 + _ROWS, self.w.size), done, stop)
        block = fresh if kept is None else np.hstack((kept, fresh))
        if self.nbytes + fresh.nbytes <= _TABLE_BYTES:
            self.blocks[r0] = block
            self.nbytes += fresh.nbytes
        return block

    def row_blocks(self, first: int, stop: int):
        """Truncated-n ratios of the pairs first <= i < j < stop, by row block.

        Yields (q0, q1, ratios): ratios[r, c] belongs to (q0 + r, q0 + c) for
        q0 <= q0 + r < q1; entries with c <= r are meaningless.
        """
        r0 = first // _ROWS * _ROWS
        while r0 < stop - 1:
            block = self._block(r0, stop)
            q0, q1 = max(r0, first), min(r0 + _ROWS, stop - 1)
            yield q0, q1, block[q0 - r0 : q1 - r0, q0 - r0 : stop - r0]
            r0 += _ROWS

    def bound(self, i: int, j: int) -> float:
        key = (i, j)
        if key not in self.bounds:
            self.bounds[key] = interval_slope_bound(
                float(self.w[i]), float(self.w[j]), self.class_tag, self.n_search
            )
        return self.bounds[key]


def _find_obstruction(g: np.ndarray, table: _PairTable) -> Optional[Tuple[float, float]]:
    """First interval (lexicographic in (a, b)) whose phase requirement exceeds
    the class slope limit, or None.

    Only contiguous grid runs with Re <= 0 and a consistent sign of Im are
    considered, so the phase requirement holds across the whole candidate
    interval.  A truncated-n version of the slope limit acts as a cheap
    lower bound to discard hopeless pairs before the full evaluation.
    """
    w = table.w
    for run, side in _runs_with_consistent_side(g, g.real <= 0.0):
        if run.size < 2:
            continue
        sigma = np.angle(g[run])
        if side > 0:
            required = np.tan(np.maximum(sigma - math.pi / 2.0, 0.0))
        else:
            required = np.tan(np.maximum(-sigma - math.pi / 2.0, 0.0))
        first, stop = int(run[0]), int(run[-1]) + 1
        for q0, q1, cheap in table.row_blocks(first, stop):
            col = np.arange(stop - q0)
            row = np.arange(q1 - q0)[:, None]
            # req_min[r, c] = min(required over the grid points q0 + r .. q0 + c)
            req_min = np.minimum.accumulate(
                np.where(col >= row, required[q0 - first :], np.inf), axis=1
            )
            hits = np.nonzero((col > row) & (req_min > 0.0) & (cheap <= req_min))
            for r, c in zip(*hits):
                if req_min[r, c] >= table.bound(q0 + r, q0 + c):
                    return (float(w[q0 + r]), float(w[q0 + c]))
    return None


def legacy_upper_bound(
    G: TransferFunction,
    class_tag: str,
    resolution: float,
    k_lo: float,
    k_hi: float,
    tol_k: float,
    n_search: int = DEFAULT_N_SEARCH,
) -> LegacyBoundResult:
    """Bisect the slope against the interval obstruction test.

    Returns the smallest gain at which an obstruction interval was found
    (within tol_k), with the certifying interval.  When even k_hi shows no
    obstruction the method has nothing to say below k_hi and returns it
    unchanged with no witness.  An obstruction already present at k_lo
    invalidates the bracket.
    """
    _check_class(class_tag)
    if not is_stable(G):
        raise NotStable("legacy bound requires a stable plant")
    _check_bracket(k_lo, k_hi, tol_k)
    if not (0.0 < resolution < math.inf):
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    if n_search < 1:
        raise ValueError(f"n_search must be positive, got {n_search!r}")
    w = np.arange(0.0, math.pi + resolution / 2.0, resolution)
    w[-1] = min(w[-1], math.pi)
    g_base = frequency_response(G, w)
    table = _PairTable(w, class_tag, n_search)

    def obstruction(k):
        return _find_obstruction(g_base + 1.0 / k, table)

    if obstruction(k_lo) is not None:
        raise BracketInvalid(f"obstruction already present at k_lo={k_lo}")
    witness = obstruction(k_hi)
    if witness is None:
        return LegacyBoundResult(k_hi, None, class_tag, resolution)
    _, k_hi, witness = _bisect(lambda k: (obstruction(k), k), k_lo, k_hi, tol_k, witness)
    return LegacyBoundResult(k_hi, witness, class_tag, resolution)
