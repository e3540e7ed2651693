"""Continuous-time non-existence checks from sampled frequency-response data.

The conditions compare a weighted sum of real parts against the extremum
over all time shifts of an almost-periodic trigonometric sum.  No closed
form exists for incommensurate frequencies, so the extremum is sampled on a
time grid and padded; the padding always errs on the side of rejecting,
keeping a True answer sound.

The sum s(t) = Re sum_f c_f e^{j w_f t}, with c_f = lambda_f (a_f - j b_f),
is evaluated by angle addition: the grid t = t_0 + j*step is cut into blocks
of B = isqrt(_CHUNK) samples, the phases e^{j w_f j step} of one block are
tabulated once (f x B), and each chunk of at most B blocks is one complex
matrix product of its block-start phases c_f e^{j w_f t_0} with that table,
of which only the real part is formed: one real product of the stacked real
and imaginary parts, an inner product of length 2f per sample.  Each block
start's phase is computed from t_0 * w_f directly, so rounding does not build
up from block to block.  The time lattice (the integers 0..floor(t_horizon))
is evaluated directly, cos and sin at every sample (see _sums).  The sampled
pad has two terms: half the time step times the Lipschitz constant
sum lambda |v| w, which covers the times between samples, and a rounding
term that covers the kernel's arithmetic (see _sampled_extrema).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

_CHUNK = 262144


@dataclass(frozen=True)
class CtCertificateInput:
    """Frequency samples, weights and time-sampling parameters.

    freqs are strictly increasing rad/s values; the last entry may be
    math.inf, in which case its value must be real (the high-frequency
    limit) and it is excluded from the time-dependent sum.  Every other
    number, t_horizon and t_step included, must be finite.  Weights are
    non-negative with at least one positive entry and are normalised to sum
    one.  Missing sampling parameters default to 200 base periods of the
    slowest component, resolved to 1/200 of the fastest one.
    """

    freqs: Sequence[float]
    values: Sequence[complex]
    lambdas: Sequence[float]
    t_horizon: Optional[float] = None
    t_step: Optional[float] = None

    def __post_init__(self):
        freqs = [float(f) for f in self.freqs]
        values = [complex(v) for v in self.values]
        lambdas = [float(x) for x in self.lambdas]
        if not (len(freqs) == len(values) == len(lambdas)) or not freqs:
            raise ValueError("freqs, values and lambdas must be equal-length and non-empty")
        if not all(map(math.isfinite, freqs[:-1] if freqs[-1] == math.inf else freqs)):
            raise ValueError("frequencies must be finite, except a last one of inf")
        if not all(map(math.isfinite, [p for v in values for p in (v.real, v.imag)] + lambdas)):
            raise ValueError("values and weights must be finite")
        if any(f <= 0.0 for f in freqs):
            raise ValueError("frequencies must be positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if any(l < 0.0 for l in lambdas) or not any(l > 0.0 for l in lambdas):
            raise ValueError("weights must be non-negative with at least one positive")
        if math.isinf(freqs[-1]) and abs(values[-1].imag) > 1e-12:
            raise ValueError("the value at infinite frequency must be real")
        total = sum(lambdas)
        if not math.isfinite(total):
            raise ValueError("weights must have a finite sum")
        object.__setattr__(self, "freqs", tuple(freqs))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "lambdas", tuple(l / total for l in lambdas))
        finite = [f for f in freqs if not math.isinf(f)]
        if self.t_horizon is None and finite:
            object.__setattr__(self, "t_horizon", 200.0 * 2.0 * math.pi / min(finite))
        if self.t_step is None and finite:
            object.__setattr__(self, "t_step", (2.0 * math.pi / max(finite)) / 200.0)
        if not all(math.isfinite(x) for x in (self.t_horizon, self.t_step) if x is not None):
            raise ValueError("t_horizon and t_step must be finite")
        if finite:
            if not (self.t_horizon > 0.0 and self.t_step > 0.0):
                raise ValueError("t_horizon and t_step must be positive")
            if not math.isfinite(self.t_horizon / self.t_step):
                raise ValueError("t_horizon / t_step must be finite")

    def finite_parts(self):
        w, a, b, lam = [], [], [], []
        for f, v, l in zip(self.freqs, self.values, self.lambdas):
            if not math.isinf(f):
                w.append(f)
                a.append(v.real)
                b.append(v.imag)
                lam.append(l)
        return (np.array(w), np.array(a), np.array(b), np.array(lam))

    def lhs(self) -> float:
        return float(sum(l * v.real for l, v in zip(self.lambdas, self.values)))


def _grid(inp: CtCertificateInput, time_lattice: bool):
    """(step, n): the sample spacing and count of the time grid t = 0, step, ..., (n-1)*step.

    n is np.arange(0, t_horizon + step/2, step).size, computed without the
    array; the time lattice is the integers 0..floor(t_horizon).
    """
    if time_lattice:
        return 1.0, math.floor(inp.t_horizon) + 1
    return inp.t_step, math.ceil((inp.t_horizon + inp.t_step / 2.0) / inp.t_step)


def _sampled_extrema(inp: CtCertificateInput, time_lattice: bool):
    """(min, max) of the finite-frequency sum over the time grid, plus the pad.

    The rounding term of the pad bounds |computed - exact| at every sample
    t <= T = (n-1)*step, with u = 2**-53 and the gamma_k = k*u/(1 - k*u) of
    Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.):
    - phases: t_0*w and (j*step)*w carry two roundings each (t_0 = i*(B*step)
      and B*step is exact), so their sum is off from w*t by at most
      gamma_2 w t <= gamma_2 w T; cos and sin add at most one ulp each, so
      |exp computed - e^{j w t_0}| <= gamma_2 w t_0 + sqrt(2) u, and likewise
      for the table;
    - c_f: one rounding per part, |c computed - c| <= u|c|;
    - c_f times the block-start phase: sqrt(2) gamma_2 relative (Higham's
      Lemma 3.5, complex multiplication);
    - the real part of the matrix product is a real inner product of length
      2f, within gamma_{2f} sum |c_f| (1 + O(u)) whatever the summation order
      (sections 3.1 and 3.5).
    To first order the error is u sum lambda|v| (2f + 1 + 4 sqrt(2) + 2 w T),
    and (2f + 8) u sum lambda|v| (1 + w T) bounds it with the second-order
    terms included.  The time lattice gets no pad: it samples every point of
    its grid, so its verdict is exact up to rounding.
    """
    w, a, b, lam = inp.finite_parts()
    if w.size == 0:
        return 0.0, 0.0, 0.0
    step, n = _grid(inp, time_lattice)
    lo, hi = math.inf, -math.inf
    for s in _sums(w, lam * a, lam * b, step, n, time_lattice):
        lo = min(lo, float(s.min()))
        hi = max(hi, float(s.max()))
    if time_lattice:
        return lo, hi, 0.0
    mass = lam * np.hypot(a, b)
    rounding = (2 * w.size + 8) * 2.0 ** -53 * float(mass @ (1.0 + w * ((n - 1) * step)))
    return lo, hi, 0.5 * step * float(mass @ w) + rounding


def _sums(w, ca, cb, step, n, direct):
    """Yield s(t) = ca @ cos(w t) + cb @ sin(w t) over t = 0, step, ..., (n-1)*step, chunk by chunk.

    direct evaluates cos and sin at every sample.  The time lattice takes it:
    without an infinite frequency s(0) equals lhs() exactly, so a lattice
    verdict can be a tie at t = 0 that only the rounding of that sample
    decides, and angle addition rounds it differently.  Otherwise the sum
    goes by angle addition (module docstring), B = isqrt(_CHUNK) blocks of B
    samples per product.
    """
    if direct:
        for start in range(0, n, _CHUNK):
            arg = np.outer(np.arange(start, min(start + _CHUNK, n)) * step, w)
            yield np.cos(arg) @ ca + np.sin(arg) @ cb
        return
    block = math.isqrt(_CHUNK)
    phase = np.outer(w, np.arange(block) * step)
    inner = np.concatenate([np.cos(phase), np.sin(phase)])
    c = ca - 1j * cb
    blocks = -(-n // block)
    for first in range(0, blocks, block):
        starts = np.arange(first, min(first + block, blocks)) * (block * step)
        p = c * np.exp(1j * np.outer(starts, w))
        # Re(p @ e^{j w j step}) without the imaginary half the complex product would write
        yield (np.concatenate([p.real, -p.imag], axis=1) @ inner).ravel()[: n - first * block]


def ct_check_odd(inp: CtCertificateInput, time_lattice: bool = False) -> bool:
    """Non-existence condition for the odd class.

    True when the weighted real-part sum is at most minus the sup over time
    of the absolute finite-frequency sum.  The sampled sup is enlarged by
    the pad (module docstring), so True is trustworthy but marginal cases
    report False.  With time_lattice=True the time variable ranges over the
    integers 0..floor(t_horizon) exactly and no pad is applied.
    """
    lo, hi, pad = _sampled_extrema(inp, time_lattice)
    sup_abs = max(abs(lo), abs(hi))
    return inp.lhs() <= -(sup_abs + pad)


def ct_check_nonodd(inp: CtCertificateInput, time_lattice: bool = False) -> bool:
    """Non-existence condition without the oddness assumption.

    True when the weighted real-part sum is at most the inf over time of the
    finite-frequency sum; the sampled inf is shrunk by the pad.
    """
    lo, _, pad = _sampled_extrema(inp, time_lattice)
    return inp.lhs() <= lo - pad
