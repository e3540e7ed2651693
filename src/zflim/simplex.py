"""Condensed dense-tableau simplex for small linear programs.

Solves  max c@x  s.t.  A x <= b,  x >= 0  with b >= 0, so the slack basis is
feasible and no artificial variables are needed.  Both LP consumers in this
package (duality certificates and the multiplier search) are formulated to
fit this shape: certificate programs via a positive shift of the game
matrix, the search via a shifted margin variable.

The tableau keeps only the columns of the n nonbasic variables and the
right-hand side, with the reduced costs as its last row (the dictionary of
Chvatal, Linear Programming, 1983, ch. 2).  Variables carry labels,
structurals 0..n-1 and slacks n..n+m-1; a pivot swaps labels between
``basis`` and ``nonbasic`` and stores the leaving variable's column where
the entering one stood.  One pricing rule, exact steepest edge (Goldfarb
and Reid, Math. Prog. 12, 1977), enters the column of largest
red_j^2 / (1 + |T[:m, j]|^2) among those with red_j < 0.  Each pivot clamps
the right-hand side at 0, so rounding cannot make the basis infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import LpNumericalFailure

# reduced costs above -_TOL count as optimal; column entries above _TOL can pivot
_TOL = 1e-9


@dataclass
class LpSolution:
    status: str  # "optimal" or "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


def simplex_max_leq(c, A, b, maxiter: int = 100000) -> LpSolution:
    """Maximise c@x s.t. A x <= b, x >= 0; status "optimal" (x, objective) or "unbounded".

    Raises ValueError for inconsistent shapes, non-finite data or b < 0, and
    LpNumericalFailure when ``maxiter`` pivots reach no optimum.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    if np.any(b < 0.0):
        raise ValueError("this solver requires b >= 0")

    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[m, :n] = -c
    rhs = T[:m, -1]
    update = np.empty_like(T)
    nonbasic = np.arange(n)
    basis = np.arange(n, n + m)

    for it in range(maxiter):
        red = T[m, :n]
        candidates = np.flatnonzero(red < -_TOL)
        if candidates.size == 0:
            break
        norms = np.einsum("ij,ij->j", T[:m, :n], T[:m, :n])
        score = red[candidates] ** 2 / (1.0 + norms[candidates])
        j = int(candidates[np.argmax(score)])
        col = T[:m, j]
        positive = col > _TOL
        if not np.any(positive):
            return LpSolution("unbounded", None, None, it)
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        r = int(np.argmin(ratios))
        pivot = T[r, j]
        row = T[r] / pivot
        T[r] = row
        colv = T[:, j].copy()
        colv[r] = 0.0
        np.outer(colv, row, out=update)
        T -= update
        inv = 1.0 / pivot
        T[:, j] = -colv * inv
        T[r, j] = inv
        np.maximum(rhs, 0.0, out=rhs)
        basis[r], nonbasic[j] = nonbasic[j], basis[r]
    else:
        raise LpNumericalFailure(f"simplex did not converge within {maxiter} pivots")

    x_full = np.zeros(n + m)
    x_full[basis] = T[:m, -1]
    x = x_full[:n]
    return LpSolution("optimal", x, float(c @ x), it)
