"""Primal search for an FIR multiplier certifying positivity on a frequency grid.

Feasibility of Re{M(e^{jw}) G(e^{jw})} > 0 over a dense grid is a linear
program in the taps.  Grid feasibility is necessary but not sufficient, so a
found multiplier is accepted only after a positivity re-check on a ten times
denser grid, two mat-vecs against a cos/sin table.  The LP is solved by
constraint generation: only a few dozen grid rows ever bind, so small
active-set LPs converge in a handful of rounds; each appends violated rows
not yet active to the solved tableau, which re-optimises from its last basis
(dual simplex pivots, see `simplex`), and a round that adds none ends the
loop.  A bisection builds both grids, the tap basis, that table and the
samples of G once; each slope k only shifts the samples to g + 1/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketInvalid, LpNumericalFailure, NotStable
from .lti_core import TransferFunction, frequency_response, is_stable
from .lti_core import _bisect, _check_bracket
from .phase_limits import coprime_pairs
from .rational_core import CLASS_TAGS, MONOTONE, FirMultiplier
from .simplex import simplex_max_leq

RATIONAL_AUGMENT_BETA = 12
DEFAULT_GRID_SIZE = 2000
# required positivity margin, relative to 1 + |G|, on the search grid
EPS_POS = 1e-7
# the taps' l1 norm is capped at 1 - DELTA_NORM
DELTA_NORM = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Tap range and grid size for the multiplier search."""

    n_z: int
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.n_z < 1 or self.grid_size < 2:
            raise ValueError("n_z and grid_size must be positive")


def _search_grid(grid_size: int) -> np.ndarray:
    rational = [rf.omega for rf in coprime_pairs(RATIONAL_AUGMENT_BETA)]
    return np.unique(np.concatenate([np.linspace(0.0, math.pi, grid_size), rational]))


def _recheck_table(grid_size: int, n_z: int):
    """The re-check grid w and rows cos(w*i), then sin(w*i), i = 1..n_z, all
    read-only; z^i = z^(i-1) * z with z = e^{-jw} gives them row by row."""
    w = _search_grid(10 * grid_size)
    z, zi = np.exp(-1j * w), np.ones(w.size, dtype=complex)
    table = np.empty((2 * n_z, w.size))
    for i in range(n_z):
        zi *= z
        table[i], table[n_z + i] = zi.real, -zi.imag
    w.flags.writeable = table.flags.writeable = False
    return w, table


def _recheck(h: np.ndarray, g: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Re{M(e^{jw}) g} on the re-check grid for taps h at -n_z..-1, 1..n_z:
    M = 1 - C @ (h+ + h-) + j*S @ (h+ - h-), with h+, h- the taps at +i, -i
    and C, S the cos and sin halves of `table`."""
    n_z = h.size // 2
    h_plus, h_minus = h[n_z:], h[n_z - 1 :: -1]
    sigma, tau = (h_plus + h_minus) @ table[:n_z], (h_plus - h_minus) @ table[n_z:]
    return (1.0 - sigma) * g.real - tau * g.imag


def _search(G: TransferFunction, config: SearchConfig, class_tag: str):
    """Samples of G on the search grid, a sampler for the re-check grid, and
    the search step at samples g with re-check samples dense(), called only
    for a candidate; a slope k shifts both by 1/k (G + 1/k has G's poles).
    The step re-checks against one `_recheck_table` built here, and raises
    LpNumericalFailure when the LP returns taps of l1 norm above 1."""
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if not is_stable(G):
        raise NotStable("multiplier search requires a stable plant")
    w = _search_grid(config.grid_size)
    idx = np.concatenate([np.arange(-config.n_z, 0), np.arange(1, config.n_z + 1)])
    basis = np.exp(-1j * np.outer(w, idx))
    w_dense, table = _recheck_table(config.grid_size, config.n_z)

    def step(g: np.ndarray, dense: Callable[[], np.ndarray]) -> Optional[FirMultiplier]:
        a = (basis * g[:, None]).real
        b = g.real - EPS_POS * (1.0 + np.abs(g))
        A = a if class_tag == MONOTONE else np.hstack([a, -a])
        n_rows, n_taps = A.shape

        # shift the free margin variable so the slack basis is feasible
        shift = 1.0 - min(float(b.min()), 0.0)
        cost = np.zeros(n_taps + 1)
        cost[n_taps] = 1.0

        rows = np.column_stack((A, np.ones(n_rows)))  # the taps, then the margin
        active = np.unique(np.append(np.arange(0, n_rows, max(1, n_rows // 64)), n_rows - 1))
        first = np.vstack([rows[active], np.append(np.ones(n_taps), 0.0)])  # and the l1 budget
        sol = simplex_max_leq(cost, first, np.append(b[active] + shift, 1.0 - DELTA_NORM))
        tol_violation = 1e-10 * max(1.0, float(np.max(np.abs(b))))
        while sol.status == "optimal":
            h_stack = sol.x[:n_taps]
            margin = sol.x[n_taps]
            violations = A @ h_stack + margin - (b + shift)
            violations[active] = -np.inf
            worst = np.argsort(violations)[-24:]
            worst = worst[violations[worst] > tol_violation]
            if worst.size == 0:
                break
            active = np.unique(np.concatenate([active, worst]))
            sol.tableau.add_rows(rows[worst], b[worst] + shift)
            sol = sol.tableau.solve()
        if sol.status != "optimal" or sol.objective - shift < 0.0:
            return None

        h = h_stack if class_tag == MONOTONE else h_stack[: n_taps // 2] - h_stack[n_taps // 2 :]
        norm = float(np.abs(h).sum())
        if norm > 1.0:
            raise LpNumericalFailure(f"search LP taps have l1 norm {norm!r} above 1")

        # sufficiency re-check on the denser grid
        if np.min(_recheck(h, dense(), table)) < 0.0:
            return None
        return FirMultiplier({int(i): float(v) for i, v in zip(idx, h) if v != 0.0}, class_tag)

    return frequency_response(G, w), lambda: frequency_response(G, w_dense), step


def find_multiplier(
    G_tilde: TransferFunction, config: SearchConfig, class_tag: str
) -> Optional[FirMultiplier]:
    """Multiplier of the class with grid-certified positivity, or None.

    Maximises the positivity margin over taps with the class sign pattern
    and an l1 budget of 1 - DELTA_NORM.  Success requires the margin to
    clear EPS_POS * (1 + |G|) on the search grid and the plain positivity
    re-check to pass on a 10x denser grid.
    """
    g, dense, step = _search(G_tilde, config, class_tag)
    return step(g, dense)


def bisect_lower_bound(
    G: TransferFunction,
    config: SearchConfig,
    class_tag: str,
    k_lo: float,
    k_hi: float,
    tol_k: float,
) -> float:
    """Largest slope (within tol_k) at which the search still finds a multiplier.

    The caller establishes the bracket: the search must succeed at k_lo and
    fail at k_hi.  G is sampled once; slope k searches at g + 1/k.
    """
    _check_bracket(k_lo, k_hi, tol_k)
    g, dense, step = _search(G, config, class_tag)
    g_dense = dense()

    def fails(k):
        return step(g + 1.0 / k, lambda: g_dense + 1.0 / k) is None

    if fails(k_lo):
        raise BracketInvalid(f"search fails already at k_lo={k_lo}")
    if not fails(k_hi):
        raise BracketInvalid(f"search still succeeds at k_hi={k_hi}")
    return _bisect(fails, k_lo, k_hi, tol_k)[0]
