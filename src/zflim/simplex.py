"""Condensed dense-tableau simplex for small LPs, re-optimised after added rows and columns.

Solves  max c@x  s.t.  A x <= b,  x >= 0, starting from the slack basis or
from a given one; no artificial variables are needed.  When b >= 0 the slack
basis is feasible and the primal rule alone runs; a negative b_i, or a given
basis that is not primal feasible, is put right by the dual rule below, with
the costs shifted.  A given basis is reinverted from A and b: with S its
basic structurals and P the rows whose slacks are nonbasic, one solve with
A[P, S] (of order |S| <= n, not m) gives the rows of x_S, and one product
with A[R, S] those of the basic slacks of the other rows R.  A singular
basis, or one that is not m distinct labels, leaves the slack basis.

The tableau keeps only the columns of the n nonbasic variables and the
right-hand side, with the reduced costs as its last row (the dictionary of
Chvatal, Linear Programming, 1983, ch. 2).  Variables carry labels,
structurals 0..n-1 and slacks n..n+m-1; a pivot swaps labels between
``basis`` and ``nonbasic`` and stores the leaving variable's column where
the entering one stood.  One pricing rule, exact steepest edge (Goldfarb
and Reid, Math. Prog. 12, 1977), enters the column of largest
red_j^2 / (1 + |T[:m, j]|^2) among those with red_j < 0.  Each pivot clamps
the right-hand side at 0, so rounding cannot make the basis infeasible.

A solved tableau takes further rows a@x <= beta (cutting planes, Kelley
1960), each in dictionary form with its slack basic:
coef = a[nonbasic] - a[basis] @ T[:m, :n], rhs = beta - a[basis] @ T[:m, -1].
The reduced costs do not change, so the basis stays dual feasible, and dual
simplex pivots restore feasibility before the primal rule cleans up: leave
on the most negative rhs, enter on the largest |T[r, j]| with
red_j / |T[r, j]| within _TOL of the minimum (Harris, Math. Prog. 5, 1973;
the plain minimum ratio cycled on dual degenerate rounds).  When a reduced
cost is below -_TOL (rounding during these pivots, or a fresh tableau with
c > 0 and some b < 0) the dual rule shifts the costs, clamping the reduced
costs at 0, and once the rhs is feasible the true costs are restored, red =
c[basis] @ T[:m, :n] - c[nonbasic] with c = 0 on slacks (cost shifting,
Koberstein, The dual simplex method, 2005, ch. 4).  Both rules share one
pivot.  Columns a with cost c enter nonbasic (Gilmore and Gomory, Oper.
Res. 9(6), 1961), with B^-1 a and red = y a - c read off the slack columns
(`inverse`).  `generate_rows` solves an LP whose rows and columns oracles supply,
from a basis of an earlier LP of the same shape when the caller has one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import LpNumericalFailure

# reduced costs and rhs above -_TOL count as optimal and feasible; |T[r, j]| > _TOL can pivot
_TOL = 1e-9


@dataclass
class LpSolution:
    status: str  # "optimal", "unbounded" or "infeasible"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int
    tableau: Optional[Tableau] = field(default=None, repr=False)
    # set by `generate_rows`: the basis of its first optimal solve
    first_basis: Optional[np.ndarray] = field(default=None, repr=False)


class Tableau:
    """Condensed tableau of max c@x s.t. A x <= b, x >= 0 that takes rows between solves."""

    def __init__(self, c, A, b, basis=None):
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        m, n = A.shape
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError("inconsistent LP dimensions")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("LP data must be finite")
        self.c = c
        self.T = np.zeros((m + 1, n + 1))
        self.update = np.empty_like(self.T)
        self.nonbasic = np.arange(n)
        self.basis = np.arange(n, n + m)
        if basis is None or not self._reinvert(A, b, np.asarray(basis)):
            self.T[:m, :n] = A
            self.T[:m, -1] = b
            self.T[m, :n] = -c

    def _reinvert(self, A, b, basis) -> bool:
        """Build the tableau of ``basis`` (a label per row) from A and b; False, with
        nothing changed, unless it is m distinct labels of a nonsingular basis.

        With S the basic structurals, N the nonbasic ones and P the rows whose
        slacks are nonbasic (|P| = |S|), rows P give x_S = A[P, S]^-1 (b_P -
        A[P, N] x_N - s_P), one solve of order |S|, and the basic slacks of the
        other rows R follow by one product with A[R, S]."""
        m, n = A.shape
        if basis.shape != (m,) or basis.dtype.kind not in "iu" or (
                m and not 0 <= basis.min() <= basis.max() < n + m):
            return False
        basic = np.zeros(n + m, dtype=bool)
        basic[basis] = True
        if np.count_nonzero(basic) != m:
            return False
        nonbasic = (~basic).nonzero()[0]  # structurals N, then slacks of P
        structural = basis < n
        S, N, R = basis[structural], nonbasic[nonbasic < n], basis[~structural] - n
        P = nonbasic[N.size :] - n
        try:
            Z = np.linalg.solve(A[np.ix_(P, S)],
                                np.column_stack((A[np.ix_(P, N)], np.eye(P.size), b[P])))
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(Z).all():
            return False
        T = self.T
        T[:m][structural] = Z
        rest = np.column_stack((A[np.ix_(R, N)], np.zeros((R.size, P.size)), b[R]))
        T[:m][~structural] = rest - A[np.ix_(R, S)] @ Z
        T[m] = self.c[S] @ Z  # red = c_B T - c_N, and the objective
        T[m, : N.size] -= self.c[N]
        self.basis, self.nonbasic = basis.copy(), nonbasic
        return True

    def add_rows(self, A, b) -> None:
        """Append rows A x <= b, of any sign of b, with their slacks basic."""
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        m, n = self.basis.size, self.nonbasic.size
        if b.ndim != 1 or A.shape != (b.size, n):
            raise ValueError("inconsistent LP dimensions")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("LP data must be finite")
        by_label = np.zeros((b.size, n + m))  # slack coefficients are 0
        by_label[:, :n] = A
        rows = np.column_stack((by_label[:, self.nonbasic], b))
        rows -= by_label[:, self.basis] @ self.T[:m]
        self.T = np.vstack((self.T[:m], rows, self.T[m:]))
        self.update = np.empty_like(self.T)
        self.basis = np.concatenate((self.basis, np.arange(n + m, n + m + b.size)))

    def inverse(self) -> np.ndarray:
        """B^-1 above the row duals y, a column per row: its slack's, or e_p if basic in row p."""
        m, n = self.basis.size, self.nonbasic.size
        inv = np.zeros((m + 1, m))
        slack, basic = self.nonbasic >= n, (self.basis >= n).nonzero()[0]
        inv[:, self.nonbasic[slack] - n] = self.T[:, :n][:, slack]
        inv[basic, self.basis[basic] - n] = 1.0
        return inv

    def add_cols(self, A, c) -> None:
        """Append variables, nonbasic, with columns A (rows in order) and costs c."""
        m, n = self.basis.size, self.nonbasic.size
        if c.ndim != 1 or A.shape != (m, c.size) or not np.isfinite(A).all() & np.isfinite(c).all():
            raise ValueError("LP columns must be finite, one entry per row")
        cols = self.inverse() @ A
        cols[m] -= c
        self.T = np.hstack((self.T[:, :n], cols, self.T[:, n:]))
        self.update = np.empty_like(self.T)
        for labels in (self.basis, self.nonbasic):  # slack labels move up past the new variables
            labels[labels >= n] += c.size
        self.nonbasic = np.concatenate((self.nonbasic, np.arange(n, n + c.size)))
        self.c = np.concatenate((self.c, c))

    def _pivot(self, r: int, j: int) -> None:
        """Exchange the basic variable of row r with the nonbasic one of column j."""
        T = self.T
        pivot = T[r, j]
        row = T[r]
        row /= pivot
        colv = T[:, j].copy()
        colv[r] = 0.0
        T -= np.multiply(colv[:, None], row, out=self.update)
        inv = 1.0 / pivot
        np.multiply(colv, -inv, out=T[:, j])
        T[r, j] = inv
        self.basis[r], self.nonbasic[j] = self.nonbasic[j], self.basis[r]

    def solve(self, maxiter: int = 100000, feas: float = _TOL) -> LpSolution:
        """Optimise from the current basis.

        Dual pivots run while some rhs < -feas; x reads off the rhs, so its
        rows hold to about feas.  Raises LpNumericalFailure when ``maxiter``
        pivots reach no optimum.
        """
        T = self.T
        m, n = self.basis.size, self.nonbasic.size
        rhs, red = T[:m, -1], T[m, :n]
        ratios = np.empty(m)  # the primal ratio test's buffer
        shifted = False
        for it in range(maxiter):  # dual rule, while added rows leave some rhs < 0
            r = rhs.argmin() if m else 0
            if not m or rhs[r] >= -feas:
                break
            row = T[r, :n]
            candidates = (row < -_TOL).nonzero()[0]
            if candidates.size == 0:
                if rhs[r] >= -_TOL:
                    break
                return LpSolution("infeasible", None, None, it, self)
            if (red < -_TOL).any():  # shift the costs
                np.maximum(red, 0.0, out=red)
                shifted = True
            slack, size = np.maximum(red[candidates], 0.0), -row[candidates]
            near = candidates[slack / size <= ((slack + _TOL) / size).min()]
            self._pivot(r, near[row[near].argmin()])
        else:
            raise LpNumericalFailure(f"simplex did not converge within {maxiter} pivots")
        if shifted:  # restore them for the primal rule
            cost = np.concatenate((self.c, np.zeros(m)))
            red[:] = cost[self.basis] @ T[:m, :n] - cost[self.nonbasic]
            T[m, -1] = cost[self.basis] @ rhs
        for it in range(it, maxiter):  # primal rule
            np.maximum(rhs, 0.0, out=rhs)
            candidates = (red < -_TOL).nonzero()[0]
            if candidates.size == 0:
                break
            norms = np.einsum("ij,ij->j", T[:m, :n], T[:m, :n])
            score = red[candidates] ** 2 / (1.0 + norms[candidates])
            j = candidates[score.argmax()]
            col = T[:m, j]
            positive = col > _TOL
            if not positive.any():
                return LpSolution("unbounded", None, None, it, self)
            ratios.fill(np.inf)
            np.divide(rhs, col, out=ratios, where=positive)
            self._pivot(ratios.argmin(), j)
        else:
            raise LpNumericalFailure(f"simplex did not converge within {maxiter} pivots")

        x = self.vertex()
        return LpSolution("optimal", x, float(self.c @ x), it, self)

    def vertex(self) -> np.ndarray:
        """x of the basis: the structural part of the rhs, clamped at 0."""
        m, n = self.basis.size, self.nonbasic.size
        x = np.zeros(n + m)
        x[self.basis] = np.maximum(self.T[:m, -1], 0.0)
        return x[:n]


def simplex_max_leq(c, A, b, maxiter: int = 100000, basis=None,
                    feas: float = _TOL) -> LpSolution:
    """Maximise c@x s.t. A x <= b, x >= 0; status "optimal" (x, objective),
    "unbounded" or "infeasible".

    Starts from the slack basis, or from ``basis`` (`Tableau`), and solves
    with ``feas`` (`Tableau.solve`).  The solution carries its `Tableau`,
    which can take rows and re-solve.  Raises ValueError for inconsistent
    shapes or non-finite data, and LpNumericalFailure when ``maxiter``
    pivots reach no optimum.
    """
    return Tableau(c, A, b, basis).solve(maxiter, feas)


def generate_rows(c, A, b, more, feas=_TOL, price=None, basis=None):
    """Maximise c@x s.t. A x <= b and the rows that ``more`` adds, x >= 0, over the
    columns of A and those ``price`` adds.  Solves on A and b, from ``basis`` when
    one is given (reinverted, `Tableau`), appends the rows ``more(x) -> (A_new,
    b_new)`` returns for the optimal x and the columns ``price(y) -> (A_new, c_new)``
    returns for the row duals y, and re-solves warm (`Tableau.solve` with ``feas``)
    until neither adds any.
    An x read off the rhs that breaks a held row by over ten times feas + _TOL
    (|A_i| x + |b_i|), which rounding in the pivots does not reach, is recomputed
    from A and b by reinverting its basis.  A warm solve (from ``basis``, or a
    re-solve) past 4 pivots per row (dual degenerate rounds stall), or whose
    recomputed x still breaks a row, restarts cold; a cold one that does raises
    LpNumericalFailure.  Returns the solution, whose ``first_basis`` is the basis
    of the first optimal solve on A and b, and the rows it holds."""

    def holds(x):
        # x holds its rows to feas, and to _TOL relative to |A_i| x + |b_i| for
        # rounding in the pivots; past ten times that the tableau has drifted
        return np.all(A @ x - b <= 10.0 * (feas + _TOL * (np.abs(A) @ x + np.abs(b))))

    def warm_or_cold(solve, *args):
        """``solve(*args)`` and True, or, if it stalls, a cold solve and False."""
        try:
            return solve(*args), True
        except LpNumericalFailure:
            return simplex_max_leq(c, A, b), False

    if basis is None:
        sol, warm = simplex_max_leq(c, A, b), False
    else:
        sol, warm = warm_or_cold(simplex_max_leq, c, A, b, 4 * b.size, basis, feas)
    first = None
    while sol.status == "optimal":
        if not holds(sol.x):
            fresh = Tableau(c, A, b, sol.tableau.basis)
            x = fresh.vertex() if np.array_equal(fresh.basis, sol.tableau.basis) else sol.x
            if not holds(x):
                if not warm:
                    raise LpNumericalFailure(
                        f"an active row is violated by {float((A @ x - b).max())!r}")
                sol, warm = simplex_max_leq(c, A, b), False
                continue
            sol.x, sol.objective = x, float(c @ x)
        if first is None:
            first = sol.tableau.basis.copy()
        A_new, b_new = more(sol.x)
        if b_new.size:
            A, b = np.vstack([A, A_new]), np.append(b, b_new)
            sol.tableau.add_rows(A_new, b_new)
        A_col, c_col = (A[:, :0], c[:0]) if price is None else price(sol.tableau.inverse()[-1])
        if b_new.size == c_col.size == 0:
            break
        if c_col.size:
            A, c = np.hstack([A, A_col]), np.append(c, c_col)
            sol.tableau.add_cols(A_col, c_col)
        sol, warm = warm_or_cold(sol.tableau.solve, 4 * b.size, feas)
    sol.first_basis = first
    return sol, A, b
