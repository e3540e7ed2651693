"""Dense tableau simplex for small linear programs.

Solves  max c@x  s.t.  A x <= b,  x >= 0  with b >= 0, so the slack basis is
feasible and no artificial variables are needed.  Both LP consumers in this
package (duality certificates and the multiplier search) are formulated to
fit this shape: certificate programs via a positive shift of the game
matrix, the search via a shifted margin variable.

Dantzig pricing with a permanent switch to Bland's rule after a run of
degenerate pivots; problem sizes here are a few thousand rows at most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import LpNumericalFailure

_STALL_LIMIT = 30
# reduced costs above -_TOL count as optimal; column entries above _TOL can pivot
_TOL = 1e-9


@dataclass
class LpSolution:
    status: str  # "optimal" or "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


def simplex_max_leq(c, A, b, maxiter: int = 100000) -> LpSolution:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if np.min(b) < 0.0:
        raise ValueError("this solver requires b >= 0")

    T = np.empty((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    z = np.zeros(n + m + 1)
    z[:n] = -c
    basis = np.arange(n, n + m)

    bland = False
    stall = 0
    for it in range(maxiter):
        red = z[: n + m]
        if bland:
            negative = np.nonzero(red < -_TOL)[0]
            if negative.size == 0:
                break
            j = int(negative[0])
        else:
            j = int(np.argmin(red))
            if red[j] >= -_TOL:
                break
        col = T[:, j]
        positive = col > _TOL
        if not np.any(positive):
            return LpSolution("unbounded", None, None, it)
        ratios = np.full(m, np.inf)
        ratios[positive] = T[positive, -1] / col[positive]
        r = int(np.argmin(ratios))
        if ratios[r] <= 1e-13:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        pivot = T[r, j]
        row = T[r] / pivot
        T[r] = row
        colv = T[:, j].copy()
        colv[r] = 0.0
        T -= np.outer(colv, row)
        if z[j] != 0.0:
            z = z - z[j] * row
        basis[r] = j
    else:
        raise LpNumericalFailure(f"simplex did not converge within {maxiter} pivots")

    x_full = np.zeros(n + m)
    x_full[basis] = T[:, -1]
    x = x_full[:n]
    return LpSolution("optimal", x, float(c @ x), it)
