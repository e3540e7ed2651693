"""Rational frequencies, Stern-Brocot neighbours, and one-tap multiplier construction.

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

from .errors import NoTightCandidate, PrecisionExhausted

MONOTONE = "monotone"
ODD = "odd"
CLASS_TAGS = (MONOTONE, ODD)


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
class SternBrocotNeighbors:
    """Tree neighbours p_left/q_left < target < p_right/q_right at first appearance."""

    p_left: int
    q_left: int
    p_right: int
    q_right: int

    def __post_init__(self):
        if self.p_right * self.q_left - self.p_left * self.q_right != 1:
            raise ValueError("neighbours must satisfy the unimodular identity")


@dataclass(frozen=True)
class FirMultiplier:
    """M(z) = 1 - sum_i h_i z^{-i} with finite support, h_0 = 0 and l1-norm <= 1.

    The monotone class additionally requires every tap to be non-negative.
    """

    taps: dict = field(default_factory=dict)
    class_tag: str = MONOTONE

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}")
        if 0 in self.taps:
            raise ValueError("h_0 must be absent")
        norm = sum(abs(v) for v in self.taps.values())
        if norm > 1.0 + 1e-12:
            raise ValueError(f"l1 norm {norm} exceeds 1")
        if self.class_tag == MONOTONE and any(v < 0.0 for v in self.taps.values()):
            raise ValueError("monotone-class taps must be non-negative")

    @property
    def l1_norm(self) -> float:
        return sum(abs(v) for v in self.taps.values())

    def response(self, omega):
        """M(e^{j*omega}); omega may be a scalar or ndarray."""
        w = np.asarray(omega, dtype=float)
        out = np.ones(w.shape, dtype=complex)
        for i, h in self.taps.items():
            out = out - h * np.exp(-1j * w * i)
        return out if out.shape else complex(out[()])

    def phase_at(self, omega: float) -> float:
        return float(np.angle(self.response(omega)))


def period(rf: RationalFrequency) -> int:
    """Minimal period of i -> exp(-j*omega*i): 2*beta for odd alpha, beta for even."""
    return 2 * rf.beta if rf.alpha % 2 == 1 else rf.beta


def phase_set(rf: RationalFrequency) -> list[float]:
    """Phases of exp(-j*omega*i) for i = 0..T-1, each reduced into (-2*pi, 0]."""
    t = period(rf)
    out = []
    for i in range(t):
        r = (rf.alpha * i) % (2 * rf.beta)
        out.append(-r * math.pi / rf.beta)
    return out


def stern_brocot_neighbors(rf: RationalFrequency) -> SternBrocotNeighbors:
    """Neighbours of alpha/beta at the tree level where it first appears.

    Computed in O(log beta) from the modular inverse of alpha (equivalent to
    the mediant descent accelerated through continued-fraction runs).  The
    root fraction 1/1 is bracketed by convention as (0/1, 1/1).
    """
    a, b = rf.alpha, rf.beta
    if (a, b) == (1, 1):
        return SternBrocotNeighbors(0, 1, 1, 1)
    q_left = pow(a, -1, b)
    p_left = (a * q_left - 1) // b
    return SternBrocotNeighbors(p_left, q_left, a - p_left, b - q_left)


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
    """Largest attainable |phase|/pi for the class at this frequency."""
    if rf.beta == 1:
        return Fraction(0)
    if class_tag == MONOTONE and rf.alpha % 2 == 0:
        return Fraction(rf.beta - 2, 2 * rf.beta)
    return Fraction(rf.beta - 1, 2 * rf.beta)


def _one_tap(tap_sign: int, exponent: int, class_tag: str) -> FirMultiplier:
    # M(z) = 1 - tap_sign * z^{exponent}  <=>  h_{-exponent} = tap_sign
    return FirMultiplier({-exponent: float(tap_sign)}, class_tag)


def construct_tight_multiplier(rf: RationalFrequency, class_tag: str, sign: int = +1) -> FirMultiplier:
    """One-tap multiplier whose phase at omega equals sign * the class bound.

    Candidates are the neighbour denominators (and their doubles) plus beta
    and 2*beta, with both exponent signs; the tap sign -1 (forms 1 + z^{+-n})
    is admitted only for the odd class.  Selection is by exact evaluation, so
    the returned phase matches the bound identically.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    nb = stern_brocot_neighbors(rf)
    target = sign * _bound_fraction(rf, class_tag)
    ns = []
    for n in (nb.q_right, nb.q_left, 2 * nb.q_right, 2 * nb.q_left, rf.beta, 2 * rf.beta):
        if n not in ns:
            ns.append(n)
    tap_signs = (+1,) if class_tag == MONOTONE else (+1, -1)
    for n in ns:
        for e in (n, -n):
            for s in tap_signs:
                if _phase_fraction(s, e, rf) == target:
                    return _one_tap(s, e, class_tag)
    raise NoTightCandidate(f"no one-tap multiplier attains {target}*pi at {rf}")


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
