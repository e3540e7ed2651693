"""Multi-frequency non-existence certificates via linear programming.

A non-negative weight vector over the grid frequencies r*pi/beta that keeps
every constraint row non-positive proves that no multiplier of the class
restores positivity for the given (already loop-shifted) plant.  Existence
of such weights is decided by a small matrix-game LP, and every returned
certificate is re-verified by direct residual evaluation before being
accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketInvalid, LpNumericalFailure, NotStable
from .lti_core import TransferFunction, frequency_response, is_stable, shift_by_inverse_gain
from .lti_core import _bisect, _check_bracket
from .rational_core import CLASS_TAGS, MONOTONE
from .simplex import simplex_max_leq

# largest re-verified residual (and LP value) accepted as a certificate
TOL_LP = 1e-9


@dataclass(frozen=True)
class CertificateVectors:
    """Constraint rows for i = 0..2*beta-1 at frequencies r*pi/beta, r = 1..beta-1.

    v_minus[i, r-1] = Re{(1 - e^{-j*omega_r*i}) G(e^{j*omega_r})}, and v_plus
    the same with 1 + e^{-j*omega_r*i}.  Rows repeat with period 2*beta in i.
    """

    v_minus: np.ndarray
    v_plus: np.ndarray


@dataclass(frozen=True)
class DualityCertificate:
    """Frequencies and weights proving no suitable multiplier exists."""

    beta: int
    freqs: np.ndarray
    lambdas: np.ndarray
    class_tag: str
    margin: float


def build_vectors(G_tilde: TransferFunction, beta: int) -> CertificateVectors:
    if beta < 2:
        raise ValueError("beta must be at least 2")
    if not is_stable(G_tilde):
        raise NotStable("certificate vectors require a stable plant")
    omega = np.arange(1, beta) * math.pi / beta
    g = frequency_response(G_tilde, omega)
    i = np.arange(2 * beta)[:, None]
    phases = np.exp(-1j * omega[None, :] * i)
    v_minus = ((1.0 - phases) * g[None, :]).real
    v_plus = ((1.0 + phases) * g[None, :]).real
    return CertificateVectors(v_minus, v_plus)


def _constraint_matrix(vectors: CertificateVectors, class_tag: str) -> np.ndarray:
    if class_tag == MONOTONE:
        return vectors.v_minus
    return np.vstack([vectors.v_minus, vectors.v_plus])


def certificate_residual(G_tilde: TransferFunction, cert: DualityCertificate) -> float:
    """Largest constraint value of the certificate, recomputed from scratch."""
    vectors = build_vectors(G_tilde, cert.beta)
    W = _constraint_matrix(vectors, cert.class_tag)
    return float(np.max(W @ cert.lambdas))


def lp_certificate(
    G_tilde: TransferFunction,
    beta: int,
    class_tag: str,
) -> Optional[DualityCertificate]:
    """Search for certificate weights on the r*pi/beta grid.

    The weight cone is normalised to sum 1 and the most-interior weights are
    found by minimising the worst constraint row, a matrix game solved in
    its positively-shifted LP form.  The i = 0 difference row is identically
    zero and is left out of the optimisation (it can never be interior); it
    is still covered by the final residual re-verification, which gates
    acceptance independently of the solver.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    vectors = build_vectors(G_tilde, beta)
    W = _constraint_matrix(vectors, class_tag)
    W_lp = W[1:]  # drop the all-zero i = 0 row
    shift = 1.0 - float(W_lp.min())
    sol = simplex_max_leq(np.ones(W_lp.shape[1]), W_lp + shift, np.ones(W_lp.shape[0]))
    if sol.status != "optimal":
        raise LpNumericalFailure(f"certificate LP ended with status {sol.status}")
    x = np.maximum(sol.x, 0.0)
    total = float(np.sum(x))
    if not (total > 0.0):
        raise LpNumericalFailure("certificate LP returned a zero weight vector")
    lambdas = x / total

    # independent re-verification on all rows, including i = 0
    residual = float(np.max(W @ lambdas))
    lp_value = 1.0 / total - shift
    if residual <= TOL_LP:
        margin = -float(np.max(W_lp @ lambdas))
        return DualityCertificate(
            beta=beta,
            freqs=np.arange(1, beta) * math.pi / beta,
            lambdas=lambdas,
            class_tag=class_tag,
            margin=margin,
        )
    if lp_value <= TOL_LP:
        raise LpNumericalFailure(
            f"LP value {lp_value:.3e} passed but residual {residual:.3e} failed re-verification"
        )
    return None


def bisect_upper_bound(
    G: TransferFunction,
    beta: int,
    class_tag: str,
    k_lo: float,
    k_hi: float,
    tol_k: float,
) -> float:
    """Smallest gain (within tol_k) at which a certificate is found.

    The caller establishes the bracket: a certificate must exist at k_hi and
    must not at k_lo.  Certificate existence is monotone in k, so bisection
    is exact up to tol_k: the constraint rows at slope k are
    Re{(1 -+ e^{-j*omega_r*i}) G} + (1 -+ cos(omega_r*i))/k, whose added term
    is non-negative and falls as k grows, so weights that keep every row
    non-positive at k keep them non-positive at every k' > k.
    """
    _check_bracket(k_lo, k_hi, tol_k)

    def certify(k):
        return lp_certificate(shift_by_inverse_gain(G, k), beta, class_tag)

    if certify(k_hi) is None:
        raise BracketInvalid(f"no certificate at k_hi={k_hi}")
    if certify(k_lo) is not None:
        raise BracketInvalid(f"certificate already exists at k_lo={k_lo}")
    return _bisect(certify, k_lo, k_hi, tol_k)[1]
