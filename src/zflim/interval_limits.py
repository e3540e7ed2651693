"""Interval-based phase limitation test and its slope bisection.

An earlier style of non-existence test: over a frequency interval [a, b]
where the shifted plant forces every multiplier's phase beyond a slope
threshold, compare that requirement against the largest slope any class
member can sustain on the interval.  Kept for conservativeness and runtime
comparison against the single-frequency results; it is grid-based and
resolution-limited by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BracketInvalid, InvalidInterval, NotStable
from .lti_core import TransferFunction, _bisect, _check_bracket, frequency_response, is_stable
from .rational_core import CLASS_TAGS, MONOTONE

DEFAULT_N_SEARCH = 100000
_CHEAP_N = 32
_BLOCK = 20000


@dataclass(frozen=True)
class IntervalLimitation:
    """Slope limits over [a, b] for both multiplier classes."""

    a: float
    b: float
    rho: float
    rho_odd: float


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


def interval_slope_bound(
    a: float, b: float, class_tag: str, n_search: int = DEFAULT_N_SEARCH
) -> float:
    """Largest slope ratio sustainable by the class over [a, b].

    Maximum over n of |cos(a n) - cos(b n)| / (n (b - a) + sin(a n) - sin(b n))
    for the monotone class; the odd class subtracts |sin(a n) - sin(b n)|
    instead.  The search over n stops early once the 2/n envelope of the
    numerator can no longer beat the running maximum.
    """
    _check_interval(a, b)
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if n_search < 1:
        raise ValueError("n_search must be positive")
    width = b - a
    best = 0.0
    start = 1
    while start <= n_search:
        stop = min(n_search, start + _BLOCK - 1)
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


def interval_limitation(a: float, b: float, n_search: int = DEFAULT_N_SEARCH) -> IntervalLimitation:
    return IntervalLimitation(
        a, b,
        interval_slope_bound(a, b, MONOTONE, n_search),
        interval_slope_bound(a, b, "odd", n_search),
    )


def _runs_with_consistent_side(g: np.ndarray, selected: np.ndarray):
    """Maximal index runs where Re <= 0 and the sign of Im does not change."""
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


def _find_obstruction(
    g: np.ndarray, w: np.ndarray, class_tag: str, n_search: int
) -> Optional[Tuple[float, float]]:
    """First interval (lexicographic in (a, b)) whose phase requirement exceeds
    the class slope limit, or None.

    Only contiguous grid runs with Re <= 0 and a consistent sign of Im are
    considered, so the phase requirement holds across the whole candidate
    interval.  A truncated-n version of the slope limit acts as a cheap
    lower bound to discard hopeless pairs before the full evaluation.
    """
    selected = g.real <= 0.0
    cheap_n = np.arange(1, _CHEAP_N + 1, dtype=float)[:, None]
    for run, side in _runs_with_consistent_side(g, selected):
        if run.size < 2:
            continue
        wr = w[run]
        sigma = np.angle(g[run])
        if side > 0:
            required = np.tan(np.maximum(sigma - math.pi / 2.0, 0.0))
        else:
            required = np.tan(np.maximum(-sigma - math.pi / 2.0, 0.0))
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
            candidates = np.nonzero(feasible & (cheap <= req_min))[0]
            for off in candidates:
                a_w, b_w = float(wr[ia]), float(wr[ia + 1 + off])
                rho = interval_slope_bound(a_w, b_w, class_tag, n_search)
                if req_min[off] >= rho:
                    return (a_w, b_w)
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
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if not is_stable(G):
        raise NotStable("legacy bound requires a stable plant")
    _check_bracket(k_lo, k_hi, tol_k)
    if not (resolution > 0.0):
        raise ValueError("resolution must be positive")
    w = np.arange(0.0, math.pi + resolution / 2.0, resolution)
    w[-1] = min(w[-1], math.pi)
    g_base = frequency_response(G, w)

    def obstruction(k):
        return _find_obstruction(g_base + 1.0 / k, w, class_tag, n_search)

    if obstruction(k_lo) is not None:
        raise BracketInvalid(f"obstruction already present at k_lo={k_lo}")
    witness = obstruction(k_hi)
    if witness is None:
        return LegacyBoundResult(k_hi, None, class_tag, resolution)
    _, k_hi, witness = _bisect(obstruction, k_lo, k_hi, tol_k, witness)
    return LegacyBoundResult(k_hi, witness, class_tag, resolution)
