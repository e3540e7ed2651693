"""Primal search for an FIR multiplier certifying positivity on a frequency grid.

Feasibility of Re{M(e^{jw}) G(e^{jw})} > 0 over a dense grid is a linear
program in the taps.  Grid feasibility is necessary but not sufficient, so a
found multiplier is accepted only after a positivity re-check on a ten times
denser grid.  The LP is solved by constraint generation: only a few dozen
grid rows ever bind, so small active-set LPs converge in a handful of
rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketInvalid, NotStable
from .lti_core import TransferFunction, frequency_response, is_stable, shift_by_inverse_gain
from .phase_limits import coprime_pairs
from .rational_core import CLASS_TAGS, MONOTONE, FirMultiplier
from .simplex import simplex_max_leq

RATIONAL_AUGMENT_BETA = 12


@dataclass(frozen=True)
class SearchConfig:
    """Tap range and grid/margin parameters for the multiplier search."""

    n_z: int
    grid_size: int = 2000
    eps_pos: float = 1e-7
    delta_norm: float = 1e-6

    def __post_init__(self):
        if self.n_z < 1 or self.grid_size < 2:
            raise ValueError("n_z and grid_size must be positive")
        if not (self.eps_pos > 0.0):
            raise ValueError("eps_pos must be positive")
        if not (0.0 < self.delta_norm < 1.0):
            raise ValueError("delta_norm must lie in (0, 1)")


def _rational_frequencies(beta_max: int = RATIONAL_AUGMENT_BETA) -> np.ndarray:
    return np.array(sorted(rf.omega for rf in coprime_pairs(beta_max)))


def _search_grid(grid_size: int) -> np.ndarray:
    return np.unique(
        np.concatenate([np.linspace(0.0, math.pi, grid_size), _rational_frequencies()])
    )


def _tap_indices(n_z: int) -> np.ndarray:
    return np.concatenate([np.arange(-n_z, 0), np.arange(1, n_z + 1)])


def find_multiplier(
    G_tilde: TransferFunction, config: SearchConfig, class_tag: str
) -> Optional[FirMultiplier]:
    """Multiplier of the class with grid-certified positivity, or None.

    Maximises the positivity margin over taps with the class sign pattern
    and an l1 budget of 1 - delta_norm.  Success requires the margin to
    clear eps_pos * (1 + |G|) on the search grid and the plain positivity
    re-check to pass on a 10x denser grid.
    """
    if class_tag not in CLASS_TAGS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    if not is_stable(G_tilde):
        raise NotStable("multiplier search requires a stable plant")
    w = _search_grid(config.grid_size)
    g = frequency_response(G_tilde, w)
    idx = _tap_indices(config.n_z)
    basis = np.exp(-1j * np.outer(w, idx))
    a = (basis * g[:, None]).real
    b = g.real - config.eps_pos * (1.0 + np.abs(g))
    A = a if class_tag == MONOTONE else np.hstack([a, -a])
    n_taps = A.shape[1]
    n_rows = A.shape[0]

    # shift the free margin variable so the slack basis is feasible
    shift = 1.0 - min(float(b.min()), 0.0)
    cost = np.zeros(n_taps + 1)
    cost[n_taps] = 1.0

    active = np.unique(np.concatenate([np.arange(0, n_rows, max(1, n_rows // 64)), [n_rows - 1]]))
    tol_violation = 1e-10 * max(1.0, float(np.max(np.abs(b))))
    h_stack = None
    for _ in range(80):
        block = np.zeros((active.size + 1, n_taps + 1))
        block[:-1, :n_taps] = A[active]
        block[:-1, n_taps] = 1.0
        block[-1, :n_taps] = 1.0
        rhs = np.concatenate([b[active] + shift, [1.0 - config.delta_norm]])
        sol = simplex_max_leq(cost, block, rhs)
        if sol.status != "optimal":
            return None
        h_stack = sol.x[:n_taps]
        margin = sol.x[n_taps]
        violations = A @ h_stack + margin - (b + shift)
        worst = np.argsort(violations)[-24:]
        worst = worst[violations[worst] > tol_violation]
        if worst.size == 0:
            break
        active = np.unique(np.concatenate([active, worst]))
    else:
        return None
    if sol.objective - shift < 0.0:
        return None

    if class_tag == MONOTONE:
        h = h_stack
    else:
        h = h_stack[: n_taps // 2] - h_stack[n_taps // 2 :]
    taps = {int(i): float(v) for i, v in zip(idx, h) if v != 0.0}
    candidate = FirMultiplier(taps, class_tag)

    # sufficiency re-check on a denser grid
    w_dense = _search_grid(10 * config.grid_size)
    g_dense = frequency_response(G_tilde, w_dense)
    if np.min((candidate.response(w_dense) * g_dense).real) < 0.0:
        return None
    return candidate


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
    fail at k_hi.
    """
    if not (0.0 < k_lo < k_hi):
        raise BracketInvalid("need 0 < k_lo < k_hi")

    def found(k):
        return find_multiplier(shift_by_inverse_gain(G, k), config, class_tag) is not None

    if not found(k_lo):
        raise BracketInvalid(f"search fails already at k_lo={k_lo}")
    if found(k_hi):
        raise BracketInvalid(f"search still succeeds at k_hi={k_hi}")
    while k_hi - k_lo > tol_k:
        mid = 0.5 * (k_lo + k_hi)
        if found(mid):
            k_lo = mid
        else:
            k_hi = mid
    return k_lo
