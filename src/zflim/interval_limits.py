"""Interval-based phase limitation test and its slope bisection.

An earlier style of non-existence test: over a frequency interval [a, b]
where the shifted plant forces every multiplier's phase beyond a slope
threshold, compare that requirement against the largest slope any class
member can sustain on the interval.  Kept for conservativeness and runtime
comparison against the single-frequency results; it is grid-based and
resolution-limited by construction.

A candidate is a grid pair inside one run where Re(g + 1/k) <= 0 and Im
keeps its sign; the least requirement tan(max(|arg(g + 1/k)| - pi/2, 0))
over the pair must reach its full slope bound.  A truncated-n ratio (the
first terms of that bound's series, same expressions) never exceeds it:
it screens pairs first and changes how many full bounds run, not a result.

Since Im(g + 1/k) = Im g, the runs at any k <= k_hi lie inside those at
k_hi, and each requirement rises with k: the pairs the screen passes at
k_hi hold all it passes at any slope the bisection tests.  Each slope reads
their requirements from a sparse table of range minima, in lexicographic
order; after a hit every later slope is lower, so failed pairs are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BracketInvalid, InvalidInterval, NotStable
from .lti_core import TransferFunction, _bisect, _check_bracket, frequency_response, is_stable
from .rational_core import MONOTONE, _check_class

_CHEAP_N = 4
_FIRST_TERMS = 64
_MAX_TERMS = 100000
_ROWS = 64


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


def _term_ratios(a: float, b: float, n: np.ndarray, class_tag: str) -> np.ndarray:
    """Terms n of the series `interval_slope_bound` maximises."""
    psi_d = (np.cos(a * n) - np.cos(b * n)) / n
    phi_d = (np.sin(a * n) - np.sin(b * n)) / n
    return _slope_ratios(psi_d, phi_d, b - a, class_tag)


def interval_slope_bound(a: float, b: float, class_tag: str) -> float:
    """Largest slope ratio sustainable by the class over [a, b].

    Maximum over n of |cos(a n) - cos(b n)| / (n (b - a) + sin(a n) - sin(b n))
    for the monotone class; the odd class subtracts |sin(a n) - sin(b n)|
    instead.  The first 64 terms give a maximum m.  Term n's numerator is at
    most 2/n and its denominator at least (b - a) - 2/n, so no term past
    n = 2 (1 + m) / ((b - a) m) beats m: the terms from 65 up to that cutoff,
    or up to `_MAX_TERMS` if it is smaller or m is 0, are evaluated at once.
    """
    _check_interval(a, b)
    _check_class(class_tag)
    best = float(np.max(_term_ratios(a, b, np.arange(1.0, _FIRST_TERMS + 1), class_tag)))
    cutoff = 2.0 * (1.0 + best) / ((b - a) * best) if best > 0.0 else math.inf
    stop = math.ceil(min(cutoff, _MAX_TERMS))
    if stop > _FIRST_TERMS:
        n = np.arange(_FIRST_TERMS + 1, stop + 1, dtype=float)
        best = max(best, float(np.max(_term_ratios(a, b, n, class_tag))))
    return best


def _runs_with_consistent_side(g: np.ndarray, selected: np.ndarray):
    """Maximal index ranges [i, j) where `selected` holds and the sign of Im
    does not change (Im == 0 counts as positive)."""
    upper = g.imag >= 0.0
    cuts = np.flatnonzero((selected[1:] != selected[:-1]) | (upper[1:] != upper[:-1])) + 1
    bounds = np.concatenate(([0], cuts, [selected.size]))
    return [(int(i), int(j)) for i, j in zip(bounds[:-1], bounds[1:]) if selected[i]]


def _screen_ratios(w, cosm, sinm, q0, q1, stop, class_tag: str) -> np.ndarray:
    """Truncated-n ratios of the pairs (i, j), q0 <= i < q1, q0 <= j < stop,
    over the len(cosm) terms of cosm[m] = cos((m + 1) w), sinm[m] = sin((m + 1) w)."""
    widths = w[None, q0:stop] - w[q0:q1, None]
    ratios = np.zeros((q1 - q0, stop - q0))
    for m in range(cosm.shape[0]):
        n = float(m + 1)
        psi_d = (cosm[m, q0:q1, None] - cosm[m, None, q0:stop]) / n
        phi_d = (sinm[m, q0:q1, None] - sinm[m, None, q0:stop]) / n
        np.maximum(ratios, _slope_ratios(psi_d, phi_d, widths, class_tag), out=ratios)
    return ratios


def _requirement(g: np.ndarray) -> np.ndarray:
    """tan(max(|arg g| - pi/2, 0)); |arg| treats Im = -0.0 as +0.0."""
    return np.tan(np.maximum(np.abs(np.angle(g)) - math.pi / 2.0, 0.0))


def _held_pairs(g: np.ndarray, w: np.ndarray, class_tag: str) -> list:
    """Blocks of 64 rows (int32 i, int32 j, screen ratio), lexicographic, of the
    pairs i < j in one run whose `_CHEAP_N`-term ratio is at most the least
    requirement over i..j at the slope of g, with 1e-12 relative slack."""
    n = np.arange(1, _CHEAP_N + 1, dtype=float)[:, None]
    cosm, sinm, held = np.cos(n * w[None, :]), np.sin(n * w[None, :]), []
    for first, stop in _runs_with_consistent_side(g, g.real <= 0.0):
        required = _requirement(g[first:stop]) * (1.0 + 1e-12)
        for q0 in range(first, stop - 1, _ROWS):
            q1 = min(q0 + _ROWS, stop - 1)
            cheap = _screen_ratios(w, cosm, sinm, q0, q1, stop, class_tag)
            row, col = np.ogrid[: q1 - q0, : stop - q0]
            # req_min[r, c] = min(required over the grid points q0 + r .. q0 + c)
            req_min = np.minimum.accumulate(
                np.where(col >= row, required[q0 - first :], np.inf), axis=1
            )
            r, c = np.nonzero((col > row) & (cheap <= req_min))
            held.append(((q0 + r).astype(np.int32), (q0 + c).astype(np.int32), cheap[r, c]))
    return held


def _find_obstruction(
    g: np.ndarray, w: np.ndarray, held: list, bounds: dict, class_tag: str
) -> Optional[Tuple[float, float]]:
    """First held pair (a, b) passing the screen whose least requirement reaches
    its full slope bound (kept in `bounds`), or None.  The requirement is 0
    where Re > 0.  A hit drops from `held` the pairs that failed here."""
    required = np.where(g.real <= 0.0, _requirement(g), 0.0)
    table = np.repeat(required[None, :], required.size.bit_length(), axis=0)
    for p in range(1, len(table)):  # table[p, x] = min(required[x : x + 2**p]) if x + 2**p <= size
        h = 1 << (p - 1)
        np.minimum(table[p - 1, :-h], table[p - 1, h:], out=table[p, :-h])

    def screen(block):
        i, j, cheap = block
        level = np.frexp(j - i + 1)[1] - 1  # floor(log2(j - i + 1))
        req_min = np.minimum(table[level, i], table[level, j + 1 - (1 << level)])
        return req_min, (req_min > 0.0) & (cheap <= req_min)

    for b, block in enumerate(held):
        req_min, passed = screen(block)
        for h in np.flatnonzero(passed):
            a, c = float(w[block[0][h]]), float(w[block[1][h]])
            if (a, c) not in bounds:
                bounds[a, c] = interval_slope_bound(a, c, class_tag)
            if req_min[h] >= bounds[a, c]:
                passed[:h] = False  # the pairs before the hit failed here as well
                held[:b + 1] = [tuple(part[passed] for part in block)]
                for m in range(1, len(held)):
                    keep = screen(held[m])[1]
                    held[m] = tuple(part[keep] for part in held[m])
                return (a, c)
    return None


def legacy_upper_bound(G: TransferFunction, class_tag: str, resolution: float,
                       k_lo: float, k_hi: float, tol_k: float) -> LegacyBoundResult:
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
    w = np.arange(0.0, math.pi + resolution / 2.0, resolution)
    w[-1] = min(w[-1], math.pi)
    g_base = frequency_response(G, w)
    held, bounds = _held_pairs(g_base + 1.0 / k_hi, w, class_tag), {}

    def obstruction(k):
        return _find_obstruction(g_base + 1.0 / k, w, held, bounds, class_tag)

    if obstruction(k_lo) is not None:
        raise BracketInvalid(f"obstruction already present at k_lo={k_lo}")
    witness = obstruction(k_hi)
    if witness is None:
        return LegacyBoundResult(k_hi, None, class_tag, resolution)
    _, k_hi, witness = _bisect(lambda k: (obstruction(k), k), k_lo, k_hi, tol_k, witness)
    return LegacyBoundResult(k_hi, witness, class_tag, resolution)
