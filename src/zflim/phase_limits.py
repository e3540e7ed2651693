"""Closed-form phase limitations and single-frequency slope bounds.

At a rational frequency the phase any multiplier of a class can reach is
capped in closed form; a plant whose shifted response leaves the reachable
cone at one such frequency therefore admits no multiplier of that class.
Both directions are used: the cap itself, and the largest slope k for which
G + 1/k still escapes the cone.  The class rule lives in one place,
`rational_core._cone_denominator`: the cap is pi/2 - pi/d and the cone
around the negative real axis has half-angle pi/d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotStable
from .lti_core import TransferFunction, evaluate, frequency_response, is_stable
from .rational_core import ODD, RationalFrequency, period
from .rational_core import _bound_fraction, _check_class, _cone_denominator

DEFAULT_BETA_MAX = 50


@dataclass(frozen=True)
class SlopeBoundResult:
    """Best single-frequency slope bound found by a scan, with its witness."""

    k_upper: float
    witness_freq: Optional[RationalFrequency]
    class_tag: str


def phase_bound(rf: RationalFrequency, class_tag: str) -> float:
    """Largest |phase| reachable at omega by a multiplier of the class:
    pi times the exact `rational_core._bound_fraction` (0 at omega = pi)."""
    _check_class(class_tag)
    f = _bound_fraction(rf, class_tag)
    return math.pi * f.numerator / f.denominator


def _cone_slopes(g, half_angle) -> np.ndarray:
    """Slopes k placing g + 1/k on the boundary of the cone of the given
    half-angle around the negative real axis, NaN where that is degenerate.

    k = -tan(a) / (R*tan(a) + I) with R = Re{g} and I = |Im{g}|; at a = pi/2
    the cone is the left half-plane and k = -1/R.  A positive value certifies
    that no multiplier of the matching class exists for G + 1/k.
    """
    g = np.asarray(g, dtype=complex)
    half_angle = np.asarray(half_angle, dtype=float)
    t = np.tan(half_angle)
    d = g.real * t + np.abs(g.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(np.abs(d) < 1e-14, np.nan, -t / d)
        k = np.where(half_angle == math.pi / 2, -1.0 / g.real, k)
    return np.where(np.isfinite(k), k, np.nan)


def _rational_slopes(g, alpha, beta, class_tag: str) -> np.ndarray:
    """Single-frequency slope bounds from the samples g at (alpha/beta)*pi,
    alpha/beta in lowest terms (integers or integer arrays): the cone slope
    at half-angle pi/`_cone_denominator`, inf where it bounds nothing (NaN or
    k <= 0)."""
    k = _cone_slopes(g, math.pi / _cone_denominator(alpha, beta, class_tag))
    return np.where(k > 0.0, k, math.inf)


def single_freq_certificate(
    G: TransferFunction, rf: RationalFrequency, class_tag: str, tol: float = 0.0
) -> bool:
    """True when no multiplier of the class can restore positivity for G.

    Checks Re{G(e^{j*omega})(1 - e^{-j*omega*i})} <= tol over one period of
    i, and for the odd class also the 1 + e^{-j*omega*i} family.  tol = 0 is
    the exact non-strict condition; a small positive tol only serves to
    reproduce boundary cases in floating point.
    """
    _check_class(class_tag)
    if not is_stable(G):
        raise NotStable("certificate applies to stable plants")
    g = evaluate(G, rf.omega)
    t = period(rf)
    i = np.arange(t)
    e = np.exp(-1j * rf.omega * i)
    if np.any((g * (1.0 - e)).real > tol):
        return False
    if class_tag == ODD and np.any((g * (1.0 + e)).real > tol):
        return False
    return True


def single_freq_upper_bound(
    G: TransferFunction, rf: RationalFrequency, class_tag: str
) -> Optional[float]:
    """Certified upper bound on the multiplier-existence slope from one frequency.

    Returns k > 0 such that no multiplier of the class exists for G + 1/k,
    or None when this frequency yields no positive bound.  At omega = pi the
    response is real and the bound reduces to -1/Re{G} when Re{G} < 0.
    """
    _check_class(class_tag)
    if not is_stable(G):
        raise NotStable("bound applies to stable plants")
    k = float(_rational_slopes(evaluate(G, rf.omega), rf.alpha, rf.beta, class_tag))
    return k if k < math.inf else None


def _coprime_grid(beta_max: int):
    """Integer arrays alpha, beta of (1, 1), then each beta's coprime alphas
    < beta, for beta = 2..beta_max: the rows beta and columns alpha <= beta
    of a lower triangle, in row order."""
    beta, alpha = np.tril_indices(max(beta_max, 1) + 1)
    keep = (alpha > 0) & (np.gcd(alpha, beta) == 1)
    return alpha[keep], beta[keep]


def coprime_pairs(beta_max: int) -> list[RationalFrequency]:
    """(1,1) plus every coprime (alpha, beta) with alpha < beta <= beta_max."""
    alpha, beta = _coprime_grid(beta_max)
    return [RationalFrequency(a, b) for a, b in zip(alpha.tolist(), beta.tolist())]


def scan_upper_bound(
    G: TransferFunction, class_tag: str, beta_max: int = DEFAULT_BETA_MAX
) -> SlopeBoundResult:
    """Minimum single-frequency bound over all rational frequencies up to beta_max.

    The same closed form as `single_freq_upper_bound` (`_rational_slopes`)
    at every frequency of `coprime_pairs(beta_max)`, in its order, with one
    vectorised response evaluation for the whole grid and one stability
    check, not one per frequency.  The first of equal minima is the witness.
    """
    _check_class(class_tag)
    if beta_max < 2:
        raise ValueError("beta_max must be at least 2")
    if not is_stable(G):
        raise NotStable("scan applies to stable plants")
    alpha, beta = _coprime_grid(beta_max)
    omega = alpha * math.pi / beta  # as `RationalFrequency.omega`
    k_all = _rational_slopes(frequency_response(G, omega), alpha, beta, class_tag)
    i = int(np.argmin(k_all))  # the first of equal minima
    witness = RationalFrequency(int(alpha[i]), int(beta[i])) if k_all[i] < math.inf else None
    return SlopeBoundResult(float(k_all[i]), witness, class_tag)
