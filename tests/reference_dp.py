"""Loop-version reference for the level DP: the list-of-lists trellis.

This is the table-per-row dynamic program that burstopt.viterbi replaced
with a rolling-row sweep.  It keeps all n + 1 score rows, builds the two
running minima of each row with _row_minima, and backtraces through a
list-of-lists of predecessors.  The arithmetic, its order and the tie-breaks
are the ones the package kernel must reproduce bit for bit, so tests compare
the two with ==, not with a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from burstopt.errors import DomainError, InfeasibleError
from burstopt.model import EXP, BurstParams, DelaySequence, LevelSequence, Solution

_INF = math.inf


@dataclass
class DpTable:
    """Filled trellis: prefix scores and predecessor levels.

    scores[i][j] is the best score of a length-i prefix ending at level j
    (row 0 is the implicit start at level 0).  back[i][j] is the predecessor
    level chosen for that cell; row 0 holds -1.
    """

    scores: list[list[float]]
    back: list[list[int]]
    k: int
    cell_updates: int

    @property
    def n(self) -> int:
        return len(self.scores) - 1


def _row_minima(prev: list[float], unit: float) -> tuple[list[float], list[int], list[float], list[int]]:
    """Two-sided running minima over a finished row.

    down_val[j] = min over x >= j of prev[x] (descending to j is free);
    up_val[j] = min over x <= j of prev[x] + (j - x) * unit.  The up chain
    carries only the argmin and prices it against j directly, so each
    candidate value equals the canonical penalty expression.  Ties prefer the
    smaller predecessor.
    """
    m = len(prev)
    down_val = [0.0] * m
    down_arg = [0] * m
    down_val[m - 1] = prev[m - 1]
    down_arg[m - 1] = m - 1
    for j in range(m - 2, -1, -1):
        if prev[j] <= down_val[j + 1]:
            down_val[j] = prev[j]
            down_arg[j] = j
        else:
            down_val[j] = down_val[j + 1]
            down_arg[j] = down_arg[j + 1]
    up_val = [0.0] * m
    up_arg = [0] * m
    up_val[0] = prev[0]
    up_arg[0] = 0
    for j in range(1, m):
        carry = up_arg[j - 1]
        carry_val = prev[carry] + (j - carry) * unit
        if carry_val <= prev[j]:
            up_val[j] = carry_val
            up_arg[j] = carry
        else:
            up_val[j] = prev[j]
            up_arg[j] = j
    return down_val, down_arg, up_val, up_arg


def fill_table(seq: DelaySequence, params: BurstParams) -> DpTable:
    """Run the forward pass and return the full trellis."""
    if params.family != EXP and not seq.is_integer_valued:
        raise DomainError("geometric family requires integer delays")
    n = seq.n
    width = params.k + 1
    unit = params.gamma * math.log(n)
    lam = [params.beta * params.alpha ** j for j in range(width)]
    if params.family == EXP:
        log_lam = [math.log(v) for v in lam]
    else:
        base_term = [-math.log1p(-v) for v in lam]
        log_lam = [math.log(v) if v > 0 else -_INF for v in lam]

    scores = [[_INF] * width for _ in range(n + 1)]
    back = [[-1] * width for _ in range(n + 1)]
    scores[0][0] = 0.0
    cells = 0
    prev = scores[0]
    exp_family = params.family == EXP
    for i in range(1, n + 1):
        s = seq.values[i - 1]
        down_val, down_arg, up_val, up_arg = _row_minima(prev, unit)
        row = scores[i]
        brow = back[i]
        for j in range(width):
            if up_val[j] <= down_val[j]:
                base = up_val[j]
                pred = up_arg[j]
            else:
                base = down_val[j]
                pred = down_arg[j]
            if exp_family:
                ll = s * lam[j] - log_lam[j]
            elif lam[j] > 0.0:
                ll = base_term[j] - s * log_lam[j]
            else:
                ll = 0.0 if s == 0.0 else _INF
            row[j] = base + ll
            brow[j] = pred
            cells += 1
        prev = row
    return DpTable(scores=scores, back=back, k=params.k, cell_updates=cells)


def backtrace(table: DpTable) -> LevelSequence:
    """Recover the optimal level sequence from a filled trellis."""
    n = table.n
    last = table.scores[n]
    best_j = 0
    best = last[0]
    for j in range(1, len(last)):
        if last[j] < best:
            best = last[j]
            best_j = j
    if not best < _INF:
        raise InfeasibleError("every level sequence has infinite score")
    levels = [0] * n
    j = best_j
    for i in range(n, 0, -1):
        levels[i - 1] = j
        j = table.back[i][j]
    return LevelSequence(tuple(levels), table.k)


def viterbi(seq: DelaySequence, params: BurstParams) -> Solution:
    """Minimize the burst score over level sequences for fixed parameters."""
    table = fill_table(seq, params)
    levels = backtrace(table)
    score = min(table.scores[table.n])
    return Solution(
        levels=levels,
        alpha=params.alpha,
        beta=params.beta,
        score=score,
        viterbi_calls=1,
        diagnostics={"cell_updates": table.cell_updates},
    )
