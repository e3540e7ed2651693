"""Discrete-time rational transfer functions and frequency-domain plumbing.

Coefficients are stored ascending in z (coeffs[k] multiplies z**k).  Plant
files and the bundled examples use the printed descending convention; the
parser in `plants` flips them before construction.  Stability is decided
on the coefficients (`is_stable`), without computing a pole.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import BracketInvalid, InvalidGain, NotStable, PoleOnUnitCircle

STABILITY_MARGIN = 1e-9
UNIT_CIRCLE_TOL = 1e-12
# a root of the crossing polynomial counts as on the unit circle when its
# modulus is within this of 1; double roots (tangential crossings) split by
# about sqrt(machine epsilon) ~ 1e-8 under the eigenvalue solve
CROSSING_MODULUS_TOL = 1e-6


class Polynomial:
    """Real polynomial with ascending coefficients and a trimmed leading term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        n = c.size
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        self.coeffs = c[:n].copy()
        self.coeffs.flags.writeable = False

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def __call__(self, z):
        """Horner evaluation; `z` may be a scalar or an ndarray."""
        z = np.asarray(z)
        out = np.full(z.shape, self.coeffs[-1], dtype=np.result_type(z.dtype, float))
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        return out if out.shape else out[()]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(a.size, b.size)
        out = np.zeros(n)
        out[: a.size] += a
        out[: b.size] += b
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def scale(self, s: float) -> "Polynomial":
        return Polynomial(self.coeffs * s)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


class TransferFunction:
    """Proper real rational function num(z)/den(z) with no structural pole at infinity."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero():
            raise ValueError("denominator must not be the zero polynomial")
        if not num.is_zero() and num.degree > den.degree:
            raise ValueError("improper transfer function: deg(num) > deg(den)")
        self.num = num
        self.den = den

    def __repr__(self) -> str:
        return f"TransferFunction(num={self.num.coeffs.tolist()}, den={self.den.coeffs.tolist()})"


def _den_scale(tf: TransferFunction) -> float:
    return float(np.max(np.abs(tf.den.coeffs)))


def frequency_response(tf: TransferFunction, omegas) -> np.ndarray:
    """tf at z = exp(j*omega) for every frequency in `omegas` (scalar or array)."""
    w = np.asarray(omegas, dtype=float)
    z = np.exp(1j * w)
    d = tf.den(z)
    near = np.abs(d) < UNIT_CIRCLE_TOL * _den_scale(tf)
    if near.any():
        raise PoleOnUnitCircle(f"denominator vanishes at omega={float(w[near][0])!r}")
    return tf.num(z) / d


def evaluate(tf: TransferFunction, omega: float) -> complex:
    """Evaluate tf at z = exp(j*omega): the scalar case of `frequency_response`."""
    return complex(frequency_response(tf, omega))


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the polynomial with ascending, trimmed coefficients as the
    eigenvalues of its companion matrix (none for a constant)."""
    n = coeffs.size - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    comp = np.zeros((n, n))
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -coeffs[:-1] / coeffs[-1]
    return np.linalg.eigvals(comp).astype(complex)


def is_stable(tf: TransferFunction) -> bool:
    """True when every pole lies inside |z| < r = 1 - STABILITY_MARGIN.

    The Schur-Cohn recursion (Schur 1917; Jury 1964) on p(z) = den(r z): p of
    degree n >= 1 has all its roots in the unit disk iff |a_0| < |a_n| and
    (a_n p(z) - a_0 z^n p(1/z))/z, of degree n - 1, has.  Each step divides p
    by its largest coefficient first, so no product overflows; NaN fails.
    """
    r = 1.0 - STABILITY_MARGIN
    p = [c * r**k for k, c in enumerate(tf.den.coeffs.tolist())]
    while len(p) > 1:
        if not abs(p[0]) < abs(p[-1]):
            return False
        s = max(map(abs, p))
        p = [c / s for c in p]
        a0, an = p[0], p[-1]
        p = [an * p[k + 1] - a0 * p[-k - 2] for k in range(len(p) - 1)]
    return True


def shift_by_inverse_gain(tf: TransferFunction, k: float) -> TransferFunction:
    """Return tf + 1/k, the loop transformation for a slope restriction of k."""
    if not (0.0 < k < math.inf):
        raise InvalidGain(f"gain must be positive and finite, got {k!r}")
    if math.isfinite(1.0 / k):
        # Polynomial rejects a coefficient that overflowed
        with np.errstate(over="ignore"), contextlib.suppress(ValueError):
            return TransferFunction(tf.num.scale(k) + tf.den, tf.den.scale(k))
    raise InvalidGain(f"gain {k!r} leaves 1/k or a coefficient of tf + 1/k not finite")


def _check_bracket(k_lo: float, k_hi: float, tol_k: float):
    """Reject a bracket or tolerance with which a bisection would evaluate a
    slope that is not positive, or never stop: a midpoint, or k - tol_k, must
    move off k when tol_k exceeds 2 ulp(k_hi).  Call before either end."""
    if not (0.0 < k_lo < k_hi < math.inf):
        raise BracketInvalid(f"need 0 < k_lo < k_hi < inf, got k_lo={k_lo!r}, k_hi={k_hi!r}")
    if not (2.0 * math.ulp(k_hi) < tol_k < math.inf):
        raise ValueError(f"tol_k must be finite and above 2 ulp(k_hi), got {tol_k!r}")


def _bisect(test, k_lo: float, k_hi: float, tol_k: float, value=None):
    """Halve [k_lo, k_hi] until it is at most tol_k wide.

    `test(mid)` returns (hit, end): a truthy hit moves k_hi to end <= mid, a
    falsy one k_lo to end >= mid, the slope its witness proves.  The hit is
    falsy at k_lo and truthy at k_hi, which the caller has checked.  Returns
    the final (k_lo, k_hi) and the last truthy hit (`value` if none).
    """
    while k_hi - k_lo > tol_k:
        result, end = test(0.5 * (k_lo + k_hi))
        if result:
            k_hi, value = end, result
        else:
            k_lo = end
    return k_lo, k_hi, value


def affine_combine(terms) -> TransferFunction:
    """Weighted sum of transfer functions over the common denominator."""
    terms = list(terms)
    if not terms:
        raise ValueError("at least one (weight, tf) term is required")
    for w, _ in terms:
        if not math.isfinite(w):
            raise ValueError("weights must be finite")
    den = Polynomial([1.0])
    for _, tf in terms:
        den = den * tf.den
    num = Polynomial([0.0])
    for i, (w, tf) in enumerate(terms):
        part = tf.num.scale(w)
        for j, (_, other) in enumerate(terms):
            if j != i:
                part = part * other.den
        num = num + part
    return TransferFunction(num, den)


def nyquist_value(tf: TransferFunction) -> float:
    """Largest gain before the linear loop loses stability.

    The minimum of -1/Re{G} over the real-axis crossings of G(e^{j*omega})
    with negative real part (math.inf if none).  For real coefficients,
    conj(den(z)) = den(1/z) on |z| = 1, so Im{G} vanishes exactly at the
    unit-circle roots of z^n * (num(z) den(1/z) - num(1/z) den(z)) with
    n = deg den, a polynomial of degree 2n.  Its roots are the eigenvalues of
    its companion matrix; a root counts as on the circle within
    CROSSING_MODULUS_TOL, which also keeps tangential crossings (double
    roots).  The endpoints 0 and pi, where G is always real, are always
    candidates; a crossing polynomial that vanishes identically has no
    roots and means G is real, hence constant, on the whole circle.
    """
    if not is_stable(tf):
        raise NotStable("nyquist_value requires a stable plant")
    n = tf.den.degree
    num = np.zeros(n + 1)
    num[: tf.num.coeffs.size] = tf.num.coeffs
    den = tf.den.coeffs
    cross = Polynomial(np.convolve(num, den[::-1]) - np.convolve(den, num[::-1]))
    roots = _companion_roots(cross.coeffs)
    on_circle = roots[np.abs(np.abs(roots) - 1.0) < CROSSING_MODULUS_TOL]
    w = np.concatenate([[0.0, math.pi], np.abs(np.angle(on_circle))])
    re = frequency_response(tf, w).real
    neg = re[re < 0.0]
    return float(np.min(-1.0 / neg)) if neg.size else math.inf
