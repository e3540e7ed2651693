"""Multi-frequency non-existence certificates via linear programming.

A non-negative weight vector over the grid frequencies r*pi/beta that keeps
every constraint row non-positive proves that no multiplier of the class
restores positivity for the given (already loop-shifted) plant.  Existence
of such weights is decided by a matrix-game LP solved by row generation, and
every returned certificate is re-verified on all rows before being
accepted.  Weights that certify one slope certify every slope above the
exact threshold k(lambda) they prove, and the upper bound steps down
through those thresholds (Dinkelbach, Mgmt. Sci. 13(7), 1967).
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


def _trig_table(beta: int):
    """cos and sin of omega_r*i, i = 0..2*beta-1 down, grid frequencies across."""
    theta = np.arange(2 * beta)[:, None] * _grid(beta)[None, :]
    return np.cos(theta), np.sin(theta)


def _certificate_rows(g: np.ndarray, beta: int, class_tag: str, table=None) -> np.ndarray:
    """Constraint rows for i = 0..2*beta-1 from the samples g at r*pi/beta.

    Row i of the first block is Re{(1 - e^{-j*omega_r*i}) g_r}; the odd class
    appends a second block with 1 + e^{-j*omega_r*i}.  Both come from one
    cos/sin table (`_trig_table`, built here unless given), Re{(1 -+
    e^{-j*theta}) g} = (1 -+ cos theta) Re g -+ sin theta Im g, so g = 1 gives
    the rows of the constant exactly, 1 -+ cos theta.  Rows repeat with
    period 2*beta in i.
    """
    cos, sin = _trig_table(beta) if table is None else table
    v_minus = (1.0 - cos) * g.real - sin * g.imag
    if class_tag == MONOTONE:
        return v_minus
    return np.vstack([v_minus, (1.0 + cos) * g.real + sin * g.imag])


def _certified_slope(A: np.ndarray, D: np.ndarray, lambdas: np.ndarray) -> float:
    """k(lambda), the smallest slope at which the weights keep every row of
    A + D/k non-positive (inf if none); rows with D lambda = 0 do not depend
    on k and are left out, as the residual gate of `_certificate` covers them."""
    a, d = A @ lambdas, D @ lambdas
    s = float(np.min(-a[d > 0.0] / d[d > 0.0]))
    return 1.0 / s if s > 0.0 else math.inf


def certificate_residual(G_tilde: TransferFunction, cert: DualityCertificate) -> float:
    """Largest constraint value of the certificate, recomputed from scratch."""
    W = _certificate_rows(_grid_samples(G_tilde, cert.beta), cert.beta, cert.class_tag)
    return float(np.max(W @ cert.lambdas))


def _certificate(W: np.ndarray, beta: int, class_tag: str) -> Optional[DualityCertificate]:
    """The certificate LP on the rows W of `_certificate_rows` (see `lp_certificate`)."""
    W_lp = W[1:]  # drop the all-zero i = 0 row
    m, n = W_lp.shape
    shift = 1.0 - float(W_lp.min())
    A, b = W_lp + shift, np.ones(m)
    # seed every (m // 64)-th row and the last; every row when m < 256, where
    # rounds cost more than they skip
    active = np.zeros(m, dtype=bool)
    active[np.arange(0, m, m // 64 if m >= 256 else 1)] = active[-1] = True

    def worst_rows(x):
        """The 24 rows x violates most, beyond rounding level (b = 1)."""
        violations = np.where(active, -np.inf, A @ x - b)
        worst = np.argsort(violations)[-24:]
        worst = worst[violations[worst] > 1e-14]
        active[worst] = True
        return A[worst], b[worst]

    # rows held to rounding level keep rounding-level weights below 1e-12 of the largest
    sol, _, _ = generate_rows(np.ones(n), A[active], b[active], worst_rows, feas=1e-14)
    if sol.status != "optimal":
        raise LpNumericalFailure(f"certificate LP ended with status {sol.status}")
    x = np.maximum(sol.x, 0.0)
    x[x <= 1e-12 * x.max()] = 0.0  # weights at rounding level
    total = float(np.sum(x))
    if not (total > 0.0):
        raise LpNumericalFailure("certificate LP returned a zero weight vector")
    lambdas = x / total

    # independent re-verification on all rows; the zero i = 0 row cannot
    # decide it, as TOL_LP > 0
    residual = float(np.max(W_lp @ lambdas))
    lp_value = 1.0 / total - shift
    if residual <= TOL_LP:
        return DualityCertificate(
            beta=beta, freqs=_grid(beta), lambdas=lambdas, class_tag=class_tag, margin=-residual
        )
    if lp_value <= TOL_LP:
        raise LpNumericalFailure(
            f"LP value {lp_value:.3e} passed but residual {residual:.3e} failed re-verification"
        )
    return None


def lp_certificate(
    G_tilde: TransferFunction,
    beta: int,
    class_tag: str,
) -> Optional[DualityCertificate]:
    """Search for certificate weights on the r*pi/beta grid.

    The weight cone is normalised to sum 1 and the most-interior weights are
    found by minimising the worst constraint row, a matrix game solved in
    its positively-shifted LP form by row generation (`generate_rows`): seeded
    with every (m // 64)-th of the m rows and the last, it adds the most
    violated rows until none is, as only a few hundred rows bind.  The i = 0 difference
    row is identically zero and is left out of the LP (it can never be
    interior).  Acceptance is the residual re-verification on all rows (the
    i = 0 row adds a zero), which does not depend on the solver or the rows it saw.
    """
    _check_class(class_tag)
    return _certificate(
        _certificate_rows(_grid_samples(G_tilde, beta), beta, class_tag), beta, class_tag
    )


def bisect_upper_bound(
    G: TransferFunction,
    beta: int,
    class_tag: str,
    k_lo: float,
    k_hi: float,
    tol_k: float,
) -> float:
    """Smallest gain (within tol_k) at which a certificate is found, or the
    smaller slope its weights prove.

    The caller establishes the bracket: a certificate must exist at k_hi and
    must not at k_lo.  G is sampled and its rows built once, from one
    cos/sin table: slope k runs the certificate LP on the rows of g + 1/k,
    W(k) = A + D/k, with A the rows of G and D those of the constant 1,
    Re{(1 -+ e^{-j*omega_r*i})} = 1 -+ cos(omega_r*i) >= 0.  So weights
    lambda >= 0 keep every row non-positive exactly at the slopes k >=
    k(lambda) = max_i D_i lambda / (-A_i lambda) (`_certified_slope`): the
    added term D lambda/k is non-negative and falls as k grows.  So each
    certificate, first at k_hi, moves the bound to min(probe, k(lambda)),
    and the next LP probes tol_k below it (at most down to k_lo, where a
    certificate fails the bracket) until a probe finds none.
    """
    _check_bracket(k_lo, k_hi, tol_k)
    _check_class(class_tag)
    g = _grid_samples(G, beta)
    table = _trig_table(beta)
    A = _certificate_rows(g, beta, class_tag, table)
    D = _certificate_rows(np.ones(beta - 1), beta, class_tag, table)
    del table  # the LPs below need only A and D
    probe = k_hi
    while True:
        cert = _certificate(A + D / probe, beta, class_tag)
        if cert is None:
            if probe == k_hi:
                raise BracketInvalid(f"no certificate at k_hi={k_hi}")
            return hi
        if probe == k_lo:
            raise BracketInvalid(f"certificate already exists at k_lo={k_lo}")
        hi = min(probe, _certified_slope(A, D, cert.lambdas))
        probe = max(hi - tol_k, k_lo)
