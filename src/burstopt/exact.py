"""Exact exponential-family optimum over beta via a budgeted dynamic program.

For fixed alpha the score of a level sequence L with the stationary base rate
beta = n / f(L), where f(L) = sum(s_i * alpha**l_i), depends on L only through
f(L), the level sum m, and the rise count d:

    score = n - n * log(n / f(L)) - m * log(alpha) + d * gamma * log(n)

The table o[i, j, a, b] holds the minimum of f over length-i prefixes ending
at level j with rise count a and level sum b.  No optimal sequence needs
a > k(n+1)/2 or b > kn, so the table has O(n^3 k^3) cells and the sweep costs
O(n^3 k^4).  Scanning the final row and converting each finite cell with the
formula above yields the exact optimum; this is exponentially cheaper than
enumerating level sequences but still cubic in n, so callers cap n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx_exp import refit_beta
from .errors import CapacityError, DomainError
from .model import (EXP, BurstParams, DelaySequence, LevelSequence, Solution, check_delays,
                    score_total)

_MAX_CELLS = 150_000_000  # ~1.2 GB of float64


@dataclass
class BndBurstTable:
    """Budgeted DP table.

    values[i, j, a, b] is the minimal f over prefixes of length i ending at
    level j with a total rises and level sum b (+inf when unreachable);
    back[i, j, a, b] is the predecessor level.
    """

    values: np.ndarray
    back: np.ndarray
    alpha: float
    k: int

    @property
    def n(self) -> int:
        return self.values.shape[0] - 1

    @property
    def rise_cap(self) -> int:
        return self.values.shape[2] - 1

    @property
    def sum_cap(self) -> int:
        return self.values.shape[3] - 1


def solve_bndburst(seq: DelaySequence, alpha: float, k: int, max_n: int | None = None) -> BndBurstTable:
    """Fill the budgeted table of minimal f values.

    Requires strictly positive delays (a zero delay lets f shrink without
    bound as its level grows, so no stationary beta exists) and alpha > 1.
    """
    check_delays(seq, EXP, fit=True)
    if alpha <= 1:
        raise DomainError(f"exact solver needs alpha > 1, got {alpha!r}")
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k!r}")
    n = seq.n
    if max_n is not None and n > max_n:
        raise CapacityError(f"exact mode capped at n <= {max_n}, got n = {n}")
    rise_cap = k * (n + 1) // 2
    sum_cap = k * n
    cells = (n + 1) * (k + 1) * (rise_cap + 1) * (sum_cap + 1)
    if cells > _MAX_CELLS:
        raise CapacityError(f"exact table would need {cells} cells (limit {_MAX_CELLS})")

    values = np.full((n + 1, k + 1, rise_cap + 1, sum_cap + 1), np.inf)
    back = np.full((n + 1, k + 1, rise_cap + 1, sum_cap + 1), -1, dtype=np.int16)
    values[0, 0, 0, 0] = 0.0
    powers = [alpha ** j for j in range(k + 1)]
    for i in range(1, n + 1):
        s = seq.values[i - 1]
        prev = values[i - 1]
        for j in range(k + 1):
            if j > sum_cap:
                continue
            # Stack the predecessor planes shifted by the rise and level-sum
            # this step consumes, then take the elementwise best.
            stack = np.full((k + 1, rise_cap + 1, sum_cap + 1), np.inf)
            for jp in range(k + 1):
                da = max(0, j - jp)
                if da <= rise_cap:
                    stack[jp, da:, j:] = prev[jp, : rise_cap + 1 - da, : sum_cap + 1 - j]
            values[i, j] = powers[j] * s + stack.min(axis=0)
            back[i, j] = stack.argmin(axis=0)
    return BndBurstTable(values=values, back=back, alpha=alpha, k=k)


def reconstruct(table: BndBurstTable, j: int, a: int, b: int) -> LevelSequence:
    """Walk predecessor levels back from the final cell (j, a, b)."""
    n = table.n
    if not np.isfinite(table.values[n, j, a, b]):
        raise DomainError(f"cell ({j}, {a}, {b}) is unreachable")
    levels = [0] * n
    for i in range(n, 0, -1):
        levels[i - 1] = j
        jp = int(table.back[i, j, a, b])
        a -= max(0, j - jp)
        b -= j
        j = jp
    if (j, a, b) != (0, 0, 0):
        raise AssertionError("backtrace did not return to the start state")
    return LevelSequence(tuple(levels), table.k)


def solve_exp_alpha_exact(seq: DelaySequence, alpha: float, gamma: float, k: int,
                          max_n: int | None = None) -> Solution:
    """Exact optimum of the exponential-family score over levels and beta at fixed alpha.

    Every finite final cell is converted to a score with its stationary beta;
    the first minimum in (level, rises, level-sum) scan order wins, and all
    tying cells are recorded in diagnostics.
    """
    BurstParams(EXP, 1.0, 0.5, gamma, k)  # probe gamma and k; alpha > 1 is solve_bndburst's rule
    table = solve_bndburst(seq, alpha, k, max_n=max_n)
    n = seq.n
    final = table.values[n]
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_grid = n / final
        scores = n - n * np.log(beta_grid)
    scores -= np.arange(table.sum_cap + 1)[None, None, :] * math.log(alpha)
    scores += np.arange(table.rise_cap + 1)[None, :, None] * (gamma * math.log(n))
    scores[~np.isfinite(final)] = np.inf
    flat = int(np.argmin(scores))
    j, a, b = np.unravel_index(flat, scores.shape)
    cell_score = float(scores[j, a, b])
    ties = [tuple(int(x) for x in cell) for cell in np.argwhere(scores == cell_score)]
    levels = reconstruct(table, int(j), int(a), int(b))
    beta = refit_beta(seq, levels, alpha)
    score = score_total(levels, seq, BurstParams(EXP, alpha, beta, gamma, k))
    return Solution(
        levels=levels,
        alpha=alpha,
        beta=beta,
        score=score,
        viterbi_calls=0,
        diagnostics={"tied_cells": ties, "cell_score": cell_score,
                     "rises": int(a), "level_sum": int(b)},
    )
