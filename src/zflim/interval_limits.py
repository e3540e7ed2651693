"""Interval-based phase limitation test and its slope bisection.

An earlier style of non-existence test: over a frequency interval [a, b]
where the shifted plant forces every multiplier's phase beyond a slope
threshold, compare that requirement against the largest slope any class
member can sustain on the interval.  Kept for conservativeness and runtime
comparison against the single-frequency results; it is grid-based and
resolution-limited by construction.

A truncated-n ratio screens each candidate pair before its full slope
bound is computed.  The ratio is the maximum of the first terms of the
series the full bound maximises, computed with the same expressions, so it
never exceeds the full bound; a pair is reported only when its phase
requirement reaches the full bound, so every reported pair passes the
screen.  Pairs are visited in the same order whatever the screen's term
count, which therefore changes no result, only how many full bounds run.
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
    """Maximal index runs where Re <= 0 and the sign of Im does not change.

    Im == 0 counts as positive.  Yields (indices, side) with side +1 or -1.
    """
    upper = g.imag >= 0.0
    cuts = np.flatnonzero((selected[1:] != selected[:-1]) | (upper[1:] != upper[:-1])) + 1
    bounds = np.concatenate(([0], cuts, [selected.size]))
    for i, j in zip(bounds[:-1], bounds[1:]):
        if selected[i]:
            yield np.arange(i, j), 1 if upper[i] else -1


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


def _find_obstruction(
    g: np.ndarray, w: np.ndarray, cosm, sinm, bounds: dict, class_tag: str
) -> Optional[Tuple[float, float]]:
    """First interval (lexicographic in (a, b)) whose phase requirement exceeds
    the class slope limit, or None.

    Only contiguous grid runs with Re <= 0 and a consistent sign of Im are
    considered, so the phase requirement holds across the whole candidate
    interval.  The truncated-n ratios of `_screen_ratios` discard hopeless
    pairs before the full evaluation, whose values `bounds` keeps by pair.
    """
    for run, side in _runs_with_consistent_side(g, g.real <= 0.0):
        if run.size < 2:
            continue
        sigma = np.angle(g[run])
        if side > 0:
            required = np.tan(np.maximum(sigma - math.pi / 2.0, 0.0))
        else:
            required = np.tan(np.maximum(-sigma - math.pi / 2.0, 0.0))
        first, stop = int(run[0]), int(run[-1]) + 1
        for q0 in range(first, stop - 1, _ROWS):
            q1 = min(q0 + _ROWS, stop - 1)
            cheap = _screen_ratios(w, cosm, sinm, q0, q1, stop, class_tag)
            col = np.arange(stop - q0)
            row = np.arange(q1 - q0)[:, None]
            # req_min[r, c] = min(required over the grid points q0 + r .. q0 + c)
            req_min = np.minimum.accumulate(
                np.where(col >= row, required[q0 - first :], np.inf), axis=1
            )
            hits = np.nonzero((col > row) & (req_min > 0.0) & (cheap <= req_min))
            for i, j in zip(q0 + hits[0], q0 + hits[1]):
                a, b = float(w[i]), float(w[j])
                if (i, j) not in bounds:
                    bounds[i, j] = interval_slope_bound(a, b, class_tag)
                if req_min[i - q0, j - q0] >= bounds[i, j]:
                    return (a, b)
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
    n = np.arange(1, _CHEAP_N + 1, dtype=float)[:, None]
    cosm, sinm, bounds = np.cos(n * w[None, :]), np.sin(n * w[None, :]), {}

    def obstruction(k):
        return _find_obstruction(g_base + 1.0 / k, w, cosm, sinm, bounds, class_tag)

    if obstruction(k_lo) is not None:
        raise BracketInvalid(f"obstruction already present at k_lo={k_lo}")
    witness = obstruction(k_hi)
    if witness is None:
        return LegacyBoundResult(k_hi, None, class_tag, resolution)
    _, k_hi, witness = _bisect(lambda k: (obstruction(k), k), k_lo, k_hi, tol_k, witness)
    return LegacyBoundResult(k_hi, witness, class_tag, resolution)
