"""Rational frequencies and one-tap multiplier construction.

A frequency omega = (alpha/beta)*pi with coprime alpha, beta makes the
sequence exp(-j*omega*i) periodic, which is what every closed-form result in
this toolbox exploits.  Phases of one-tap multipliers at such frequencies are
rational multiples of pi and are computed here in exact integer arithmetic,
so "meets the bound with equality" is literal, not approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import PrecisionExhausted
from .lti_core import Polynomial

MONOTONE = "monotone"
ODD = "odd"
CLASS_TAGS = (MONOTONE, ODD)


def _check_class(class_tag: str):
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")


@dataclass(frozen=True)
class RationalFrequency:
    """omega = (alpha/beta)*pi with alpha and beta coprime, 0 < alpha <= beta."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("alpha and beta must be positive integers")
        if math.gcd(self.alpha, self.beta) != 1:
            raise ValueError(f"{self.alpha}/{self.beta} is not in lowest terms")
        if self.alpha > self.beta:
            raise ValueError("alpha/beta must lie in (0, 1]")

    @property
    def omega(self) -> float:
        return self.alpha * math.pi / self.beta

    def __str__(self) -> str:
        return f"({self.alpha}/{self.beta})*pi"


@dataclass(frozen=True)
class FirMultiplier:
    """M(z) = 1 - sum_i h_i z^{-i} with finite support, h_0 = 0 and l1-norm <= 1.

    The monotone class additionally requires every tap to be non-negative.
    """

    taps: dict = field(default_factory=dict)
    class_tag: str = MONOTONE

    def __post_init__(self):
        _check_class(self.class_tag)
        if 0 in self.taps:
            raise ValueError("h_0 must be absent")
        if self.l1_norm > 1.0 + 1e-12:
            raise ValueError(f"l1 norm {self.l1_norm} exceeds 1")
        if self.class_tag == MONOTONE and any(v < 0.0 for v in self.taps.values()):
            raise ValueError("monotone-class taps must be non-negative")

    @property
    def l1_norm(self) -> float:
        return sum(abs(v) for v in self.taps.values())

    def response(self, omega):
        """M(e^{j*omega}) by Horner in e^{-j*omega}; omega may be a scalar or ndarray."""
        w = np.asarray(omega, dtype=float)
        lo = min(self.taps, default=0)
        coeffs = np.zeros(max(self.taps, default=0) - lo + 1)
        coeffs[[i - lo for i in self.taps]] = list(self.taps.values())
        out = 1.0 - np.exp(-1j * lo * w) * Polynomial(coeffs)(np.exp(-1j * w))
        return out if out.shape else complex(out[()])

    def phase_at(self, omega: float) -> float:
        return float(np.angle(self.response(omega)))


def _cone_denominator(alpha, beta, class_tag: str):
    """d with the class's |phase| cap pi/2 - pi/d at omega = (alpha/beta)*pi:
    beta for the monotone class at even alpha and 2*beta otherwise.  alpha
    and beta may be integers or integer arrays."""
    return beta * (2 - ((class_tag == MONOTONE) & (alpha % 2 == 0)))


def period(rf: RationalFrequency) -> int:
    """Minimal period of i -> exp(-j*omega*i), the monotone class's
    `_cone_denominator`: 2*beta for odd alpha, beta for even."""
    return _cone_denominator(rf.alpha, rf.beta, MONOTONE)


def _phase_fraction(tap_sign: int, exponent: int, rf: RationalFrequency):
    """Exact phase of 1 - tap_sign * z^{exponent} at z = exp(j*omega), as a
    Fraction multiple of pi, or None where the value is zero."""
    f = (exponent * rf.alpha) % (2 * rf.beta)  # z^exponent has phase f*pi/beta
    if tap_sign > 0:
        # 1 - e^{j*phi}: phase (phi - pi)/2 for phi in (0, 2*pi)
        if f == 0:
            return None
        return Fraction(f - rf.beta, 2 * rf.beta)
    # 1 + e^{j*phi}: phase phi/2 on (-pi, pi), shifted when phi > pi
    if f == rf.beta:
        return None
    if f < rf.beta:
        return Fraction(f, 2 * rf.beta)
    return Fraction(f - 2 * rf.beta, 2 * rf.beta)


def _bound_fraction(rf: RationalFrequency, class_tag: str) -> Fraction:
    """Largest attainable |phase|/pi for the class at this frequency,
    1/2 - 1/d with d the `_cone_denominator` (0 at omega = pi)."""
    d = _cone_denominator(rf.alpha, rf.beta, class_tag)
    return Fraction(d - 2, 2 * d)


def _one_tap(tap_sign: int, exponent: int, class_tag: str) -> FirMultiplier:
    # M(z) = 1 - tap_sign * z^{exponent}  <=>  h_{-exponent} = tap_sign
    return FirMultiplier({-exponent: float(tap_sign)}, class_tag)


def construct_tight_multiplier(rf: RationalFrequency, class_tag: str, sign: int = +1) -> FirMultiplier:
    """One-tap multiplier whose phase at omega equals sign * the class bound.

    1 - z^e has phase (f - beta)/(2*beta)*pi, f = e*alpha mod 2*beta, and the
    bound is (d - 2)/(2d)*pi: odd alpha (d = 2*beta) solves e*alpha = -sign
    (mod 2*beta), even alpha in the monotone class (d = beta) e*(alpha/2) =
    -sign (mod beta).  In the odd class even alpha makes f even, so 1 + z^e,
    of phase f/(2*beta)*pi (less pi past f = beta), solves e*(alpha/2) =
    (beta - sign)/2 (mod beta).  Each e is exact, by a modular inverse.
    """
    _check_class(class_tag)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if rf.alpha % 2:
        return _one_tap(+1, -sign * pow(rf.alpha, -1, 2 * rf.beta) % (2 * rf.beta), class_tag)
    inverse = pow(rf.alpha // 2, -1, rf.beta)
    if class_tag == MONOTONE:
        return _one_tap(+1, -sign * inverse % rf.beta, class_tag)
    return _one_tap(-1, (rf.beta - sign) // 2 * inverse % rf.beta, class_tag)


def _convergents(frac: Fraction):
    """Continued-fraction convergents of frac in (0, 1].

    Yields (convergent, previous_convergent_or_None) pairs; the final
    convergent equals frac exactly.
    """
    h2, h1 = 0, 1
    k2, k1 = 1, 0
    num, den = frac.numerator, frac.denominator
    while den:
        a, (num, den) = num // den, (den, num % den)
        h2, h1 = h1, a * h1 + h2
        k2, k1 = k1, a * k1 + k2
        yield Fraction(h1, k1), (Fraction(h2, k2) if k2 else None)


def irrational_approx_multiplier(gamma: float, epsilon: float) -> FirMultiplier:
    """Monotone one-tap multiplier 1 - z^{+-n} with |phase| > pi/2 - epsilon at gamma*pi.

    gamma is taken at its exact float value (a rational), and the tree is
    descended through its continued-fraction convergents until a bracketing
    denominator pair is deep enough that pi/(2q) < epsilon on both sides.
    Phases are evaluated in exact rational arithmetic, so arbitrarily large
    tap indices remain meaningful.  When the float's own resolution is
    reached first, the request cannot be honoured and PrecisionExhausted is
    raised.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie strictly between 0 and 1")
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    gfrac = Fraction(*float(gamma).as_integer_ratio())
    node = RationalFrequency(gfrac.numerator, gfrac.denominator)
    q_min = math.pi / (2.0 * epsilon)
    threshold = (
        Fraction(1, 2)
        - Fraction(*float(epsilon).as_integer_ratio()) / Fraction(*math.pi.as_integer_ratio())
    )

    def try_candidates(qs):
        for n in qs:
            for e in (n, -n, 2 * n, -2 * n):
                ph = _phase_fraction(+1, e, node)
                if ph is not None and abs(ph) > threshold:
                    return _one_tap(+1, e, MONOTONE)
        return None

    for conv, prev in _convergents(gfrac):
        if conv == gfrac:
            # gamma is exactly this rational; its own tree bound is the best left
            if _bound_fraction(node, MONOTONE) > threshold:
                return construct_tight_multiplier(node, MONOTONE, +1)
            found = try_candidates([node.beta] + ([prev.denominator] if prev else []))
            if found is not None:
                return found
            raise PrecisionExhausted(
                f"gamma resolves to {gfrac} whose phase bound is below pi/2 - epsilon"
            )
        if conv.denominator > q_min and prev is not None:
            # partner the convergent with a tree neighbour of comparable depth
            qk = conv.denominator
            qp = prev.denominator
            m = max(1, math.ceil((q_min - qp) / qk))
            found = try_candidates([qk, qp + m * qk])
            if found is not None:
                return found
    raise PrecisionExhausted("continued-fraction descent exhausted the float's resolution")
