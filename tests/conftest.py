"""Shared fixtures: bundled plants and their reference values."""

import math

import numpy as np
import pytest

from zflim.plants import BUILTIN
from zflim.rational_core import MONOTONE, ODD

# largest stable linear gain for each bundled plant
KNOWN_NYQUIST = {
    "ex1": 36.10000,
    "ex2": 7.90700,
    "ex3": 2.74550,
    "ex4": 1.23987,
    "ex5": 0.51373,
    "ex6": 37.36307,
}

# best single-frequency upper bound and its witness (alpha, beta), per class
KNOWN_SINGLE_FREQ = {
    ("ex1", MONOTONE): (13.028374, (2, 7)),
    ("ex1", ODD): (13.575410, (1, 3)),
    ("ex2", MONOTONE): (3.824040, (1, 2)),
    ("ex2", ODD): (3.824040, (1, 2)),
    ("ex3", MONOTONE): (0.802745, (2, 5)),
    ("ex3", ODD): (1.105649, (1, 2)),
    ("ex4", MONOTONE): (0.846657, (2, 3)),
    ("ex4", ODD): (0.987671, (1, 2)),
    ("ex5", MONOTONE): (0.374491, (1, 3)),
    ("ex5", ODD): (0.374491, (1, 3)),
    ("ex6", MONOTONE): (13.262035, (2, 3)),
    ("ex6", ODD): (22.686907, (1, 2)),
}

# best known primal lower bound and the tap count that achieved it, per class
KNOWN_LOWER = {
    ("ex1", MONOTONE): (13.028317, 6),
    ("ex1", ODD): (13.511322, 20),
    ("ex2", MONOTONE): (3.823996, 5),
    ("ex2", ODD): (3.824034, 10),
    ("ex3", MONOTONE): (0.802714, 5),
    ("ex3", ODD): (1.105645, 2),
    ("ex4", MONOTONE): (0.846650, 5),
    ("ex4", ODD): (0.987666, 2),
    ("ex5", MONOTONE): (0.374445, 10),
    ("ex5", ODD): (0.374484, 8),
    ("ex6", MONOTONE): (13.262027, 8),
    ("ex6", ODD): (22.686904, 6),
}


@pytest.fixture(scope="session")
def plants():
    return {name: record.tf() for name, record in BUILTIN.items()}


def companion_roots(coeffs):
    """Roots of the polynomial with ascending, trimmed coefficients as the
    eigenvalues of its companion matrix in z (none for a constant): the
    oracle for the comrade solve `lti_core._chebyshev_roots`, of twice its
    order.  Not `np.roots`, whose max -P/Q is 1.5e-5 off both on ex3 at
    n_z 64 when the outer taps are zero."""
    n = coeffs.size - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    comp = np.zeros((n, n))
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -coeffs[:-1] / coeffs[-1]
    return np.linalg.eigvals(comp).astype(complex)


def dense_rows(g, beta, class_tag):
    """Every certificate row i = 0..2*beta-1 at the samples g (the odd class
    stacks a second block), from one full cos/sin table: the dense game whose
    rows `duality_lp` builds on demand and multiplies by FFT."""
    theta = np.arange(2 * beta)[:, None] * (np.arange(1, beta) * math.pi / beta)[None, :]
    cos, sin = np.cos(theta), np.sin(theta)
    minus = (1.0 - cos) * g.real - sin * g.imag
    if class_tag == MONOTONE:
        return minus
    return np.vstack([minus, (1.0 + cos) * g.real + sin * g.imag])
