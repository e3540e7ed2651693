"""Closed-form phase limitations and single-frequency slope bounds.

At a rational frequency the phase any multiplier of a class can reach is
capped in closed form; a plant whose shifted response leaves the reachable
cone at one such frequency therefore admits no multiplier of that class.
Both directions are used: the cap itself, and the largest slope k for which
G + 1/k still escapes the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDenominator, NotStable
from .lti_core import TransferFunction, evaluate, frequency_response, is_stable
from .rational_core import MONOTONE, ODD, CLASS_TAGS, RationalFrequency, _bound_fraction, period

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
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    f = _bound_fraction(rf, class_tag)
    return math.pi * f.numerator / f.denominator


def _cone_half_angle(alpha, beta, class_tag: str):
    """Half-angle pi/2 - `phase_bound` of the cone around the negative real
    axis that G + 1/k must leave at omega = (alpha/beta)*pi: pi/d with d =
    beta for the monotone class at even alpha and d = 2*beta otherwise (pi/2
    at omega = pi).  alpha and beta may be integers or integer arrays."""
    d = np.where((class_tag == MONOTONE) & (alpha % 2 == 0), beta, 2 * beta)
    return math.pi / d


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


def single_freq_certificate(
    G: TransferFunction, rf: RationalFrequency, class_tag: str, tol: float = 0.0
) -> bool:
    """True when no multiplier of the class can restore positivity for G.

    Checks Re{G(e^{j*omega})(1 - e^{-j*omega*i})} <= tol over one period of
    i, and for the odd class also the 1 + e^{-j*omega*i} family.  tol = 0 is
    the exact non-strict condition; a small positive tol only serves to
    reproduce boundary cases in floating point.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
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


def cone_slope_bound(G: TransferFunction, omega: float, beta_eff: int) -> float:
    """Slope k placing G + 1/k on the boundary of the half-angle pi/beta_eff
    cone around the negative real axis (see `_cone_slopes`).

    A positive value certifies that no multiplier of the matching class
    exists for G + 1/k.
    """
    if beta_eff < 2:
        raise ValueError("beta_eff must be at least 2")
    k = float(_cone_slopes(evaluate(G, omega), math.pi / beta_eff))
    if math.isnan(k):
        raise DegenerateDenominator(f"cone boundary degenerate at omega={omega!r}")
    return k


def single_freq_upper_bound(
    G: TransferFunction, rf: RationalFrequency, class_tag: str
) -> Optional[float]:
    """Certified upper bound on the multiplier-existence slope from one frequency.

    Returns k > 0 such that no multiplier of the class exists for G + 1/k,
    or None when this frequency yields no positive bound.  At omega = pi the
    response is real and the bound reduces to -1/Re{G} when Re{G} < 0.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if not is_stable(G):
        raise NotStable("bound applies to stable plants")
    k = float(_cone_slopes(evaluate(G, rf.omega), _cone_half_angle(rf.alpha, rf.beta, class_tag)))
    return k if k > 0.0 else None


def coprime_pairs(beta_max: int) -> list[RationalFrequency]:
    """(1,1) plus every coprime (alpha, beta) with alpha < beta <= beta_max."""
    out = [RationalFrequency(1, 1)]
    for beta in range(2, beta_max + 1):
        for alpha in range(1, beta):
            if math.gcd(alpha, beta) == 1:
                out.append(RationalFrequency(alpha, beta))
    return out


def scan_upper_bound(
    G: TransferFunction, class_tag: str, beta_max: int = DEFAULT_BETA_MAX
) -> SlopeBoundResult:
    """Minimum single-frequency bound over all rational frequencies up to beta_max.

    The same closed form as `single_freq_upper_bound` at every frequency of
    `coprime_pairs(beta_max)`, in its order: the cone slope of `_cone_slopes`
    at the half-angle of `_cone_half_angle`, with one vectorised response
    evaluation for the whole grid and one stability check, not one per
    frequency.  The first of equal minima is the witness.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if beta_max < 2:
        raise ValueError("beta_max must be at least 2")
    if not is_stable(G):
        raise NotStable("scan applies to stable plants")
    # rows beta, columns alpha <= beta: (1, 1), then each beta's coprime alphas
    beta, alpha = np.tril_indices(beta_max + 1)
    keep = (alpha > 0) & (np.gcd(alpha, beta) == 1)
    alpha, beta = alpha[keep], beta[keep]
    omega = alpha * math.pi / beta  # as `RationalFrequency.omega`
    k_all = _cone_slopes(frequency_response(G, omega), _cone_half_angle(alpha, beta, class_tag))
    k_all = np.where(k_all > 0.0, k_all, math.inf)  # NaN and k <= 0 bound nothing
    i = int(np.argmin(k_all))  # the first of equal minima
    witness = RationalFrequency(int(alpha[i]), int(beta[i])) if k_all[i] < math.inf else None
    return SlopeBoundResult(float(k_all[i]), witness, class_tag)
