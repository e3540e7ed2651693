"""Multi-frequency non-existence certificates via linear programming.

A non-negative weight vector over the grid frequencies r*pi/beta that keeps
every constraint row non-positive proves that no multiplier of the class
restores positivity for the given (already loop-shifted) plant.  Existence
of such weights is decided by a matrix-game LP held on only the rows and
frequencies that bind, with row values and prices by FFT (row i is the real
part of a DFT), and every returned certificate is re-verified on all rows
before being accepted.  Weights that certify one slope certify every
slope above the exact threshold k(lambda) they prove, and the upper bound
steps down through those thresholds (Dinkelbach, Mgmt. Sci. 13(7), 1967).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketInvalid, LpNumericalFailure, NotStable
from .lti_core import TransferFunction, frequency_response, is_stable
from .lti_core import _check_bracket
from .rational_core import MONOTONE, _check_class
from .simplex import generate_rows, simplex_max_leq  # noqa: F401 (perfbench/selftest.py checks it)

# largest re-verified residual (and LP value) accepted as a certificate
TOL_LP = 1e-9


@dataclass(frozen=True)
class DualityCertificate:
    """Frequencies and weights proving no suitable multiplier exists."""

    beta: int
    freqs: np.ndarray
    lambdas: np.ndarray
    class_tag: str
    margin: float


def _grid(beta: int) -> np.ndarray:
    return np.arange(1, beta) * math.pi / beta


def _grid_samples(G: TransferFunction, beta: int) -> np.ndarray:
    """G at r*pi/beta, r = 1..beta-1, after checking beta and stability."""
    if beta < 2:
        raise ValueError("beta must be at least 2")
    if not is_stable(G):
        raise NotStable("certificate vectors require a stable plant")
    return frequency_response(G, _grid(beta))


def _entries(g: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """A and D, the rows of the samples g and of 1, at rows and grid columns: row i < 2*beta is
    Re{(1 - e^{-j*omega_r*i}) g_r} = (1 - cos) Re g - sin Im g; row 2*beta + i takes 1 + e^...."""
    beta = g.size + 1
    theta = (rows % (2 * beta))[:, None] * _grid(beta)[cols]
    sign = np.where(rows < 2 * beta, -1.0, 1.0)[:, None]
    D = 1.0 + sign * np.cos(theta)
    return D * g[cols].real + sign * np.sin(theta) * g[cols].imag, D


def _products(g: np.ndarray, x: np.ndarray, class_tag: str) -> np.ndarray:
    """W @ x on every row, (x . Re g) -+ Re FFT(x g)[i] with one FFT of length 2*beta."""
    u = np.fft.fft(np.append(0.0, x * g), 2 * g.size + 2).real
    base = x @ g.real
    return base - u if class_tag == MONOTONE else np.concatenate((base - u, base + u))


def _prices(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """W^T y for y on the 4*beta rows of both blocks, Re g sum(y) - Re{g FFT(y_- - y_+)[r]}."""
    half = y.size // 2
    return g.real * y.sum() - (g * np.fft.fft(y[:half] - y[half:])[1 : g.size + 1]).real


def _certified_slope(a: np.ndarray, d: np.ndarray) -> float:
    """k(lambda), the smallest slope at which the weights keep every row of A + D/k
    non-positive (inf if none), from a = A lambda and d = D lambda; rows with d = 0
    (to FFT rounding) do not depend on k, and the residual gate of `_certificate` covers them."""
    on = d > 1e-12 * d.max()
    s = float(np.min(-a[on] / d[on]))
    return 1.0 / s if s > 0.0 else math.inf


def _residual(g: np.ndarray, lambdas: np.ndarray, class_tag: str) -> float:
    """The largest row W @ lambdas on the samples g, over every row but the
    identically zero i = 0 one: <= 0 (to TOL_LP) is the certificate's proof."""
    return float(np.max(_products(g, lambdas, class_tag)[1:]))


def certificate_residual(G_tilde: TransferFunction, cert: DualityCertificate) -> float:
    """The certificate's residual (`_residual`), recomputed from the plant."""
    return _residual(_grid_samples(G_tilde, cert.beta), cert.lambdas, cert.class_tag)


def _certificate(g: np.ndarray, k: float, class_tag: str) -> Optional[DualityCertificate]:
    """The certificate LP on the rows A + D/k of the samples g (`lp_certificate`)."""
    n, size, g_k = g.size, (2 if class_tag == MONOTONE else 4) * (g.size + 1), g + 1.0 / k
    shift = 1.0 - float(np.min(g_k.real - np.abs(g_k)))  # every row is at least Re g_k - |g_k|
    rows = np.unique(np.append(np.arange(1, size, max(1, (size - 1) // 64)), size - 1))
    cols = np.arange(min(7, n - 1), n, 8)  # r = 8, 16, ..., or r = beta - 1 when beta <= 8

    def price(y):  # the row duals y price every column by one FFT
        nonlocal cols
        reduced = _prices(g_k, np.bincount(rows, y, 4 * (n + 1))) + (shift * y.sum() - 1.0)
        reduced[cols] = np.inf
        new = np.argsort(reduced)[: min(8, np.count_nonzero(reduced < -1e-12))]
        cols = np.append(cols, new)
        return entries(rows, new), np.ones(new.size)

    def entries(q, r):
        A, D = _entries(g, q, r)
        return A + D / k + shift

    def worst_rows(x):
        """The 24 rows x violates most, beyond rounding level (b = 1)."""
        nonlocal rows
        violations = _products(g_k, np.bincount(cols, x, n), class_tag) + (shift * x.sum() - 1.0)
        violations[0] = violations[rows] = -np.inf
        worst = np.argsort(violations)[-24:]
        worst = worst[violations[worst] > 0.0]
        A_new = entries(worst, cols)  # decided on the entries the LP holds, not the FFT's
        held = A_new @ x - 1.0 > 1e-14
        rows = np.append(rows, worst[held])
        return A_new[held], np.ones(np.count_nonzero(held))

    # rows held to rounding level keep rounding-level weights below 1e-12 of the largest
    sol, _, _ = generate_rows(np.ones(cols.size), entries(rows, cols), np.ones(rows.size),
                              worst_rows, feas=1e-14, price=price)
    if sol.status != "optimal":
        raise LpNumericalFailure(f"certificate LP ended with status {sol.status}")
    x = np.bincount(cols, np.maximum(sol.x, 0.0), n)
    x[x <= 1e-12 * x.max()] = 0.0  # weights at rounding level
    total = float(np.sum(x))
    if not (total > 0.0):
        raise LpNumericalFailure("certificate LP returned a zero weight vector")
    lambdas = x / total

    residual = _residual(g_k, lambdas, class_tag)  # re-verification, whatever rows the LP held
    lp_value = 1.0 / total - shift
    if residual <= TOL_LP:
        return DualityCertificate(n + 1, _grid(n + 1), lambdas, class_tag, margin=-residual)
    if lp_value <= TOL_LP:
        raise LpNumericalFailure(
            f"LP value {lp_value:.3e} passed but residual {residual:.3e} failed re-verification"
        )
    return None


def lp_certificate(
    G_tilde: TransferFunction, beta: int, class_tag: str
) -> Optional[DualityCertificate]:
    """Search for certificate weights on the r*pi/beta grid.

    The weight cone is normalised to sum 1 and the most-interior weights are
    found by minimising the worst constraint row, a matrix game solved in
    its positively-shifted LP form without the zero i = 0 row, shifted by
    1 - min_r(Re g_r - |g_r|).  The LP holds every (m // 64)-th of its m rows
    (every row when m < 128) and the last, and every 8th frequency (the
    last when beta <= 8), and adds the 24 most violated rows and the 8 most
    negatively priced frequencies per round (`generate_rows`).
    Acceptance is the re-verification on all rows, which does not depend on
    the solver or the rows it saw.
    """
    _check_class(class_tag)
    return _certificate(_grid_samples(G_tilde, beta), math.inf, class_tag)


def bisect_upper_bound(
    G: TransferFunction, beta: int, class_tag: str, k_lo: float, k_hi: float, tol_k: float
) -> float:
    """Smallest gain (within tol_k) at which a certificate is found, or the
    smaller slope its weights prove.

    The caller establishes the bracket: a certificate must exist at k_hi and
    must not at k_lo.  Slope k runs the certificate LP on the rows W(k) = A +
    D/k of g + 1/k, A those of G and D those of the constant 1, 1 -+
    cos(omega_r*i) >= 0.  So weights lambda >= 0 keep every row non-positive
    exactly at the slopes k >= k(lambda) = max_i D_i lambda / (-A_i lambda)
    (`_certified_slope`, from FFT products on all rows).  Each
    certificate, first at k_hi, moves the bound to min(probe, k(lambda)), and
    the next LP probes tol_k below it (at most down to k_lo, where a
    certificate fails the bracket) until a probe finds none.
    """
    _check_bracket(k_lo, k_hi, tol_k)
    _check_class(class_tag)
    g = _grid_samples(G, beta)
    probe = k_hi
    while True:
        cert = _certificate(g, probe, class_tag)
        if cert is None:
            if probe == k_hi:
                raise BracketInvalid(f"no certificate at k_hi={k_hi}")
            return hi
        if probe == k_lo:
            raise BracketInvalid(f"certificate already exists at k_lo={k_lo}")
        a, d = (_products(h, cert.lambdas, class_tag) for h in (g, np.ones(g.size)))
        hi = min(probe, _certified_slope(a, d))
        probe = max(hi - tol_k, k_lo)
