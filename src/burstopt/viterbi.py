"""Optimal level assignment for fixed parameters via dynamic programming.

The naive recurrence over predecessor levels costs O(n k^2).  Because the
transition penalty is 0 for any descent and linear in the number of steps
raised, the minimum over predecessors splits into two running minima per row:
a suffix minimum over higher-or-equal levels (free descent) and a prefix
minimum over lower-or-equal levels that grows by gamma * log(n) per level of
ascent.  Both are computable in one sweep each, giving O(n k) total with
exactly n * (k + 1) cell updates.

fill_table runs the forward pass as one sweep over two rolling score rows.
The emission terms of all n * (k + 1) cells are computed up front with the
same scalar math expressions as the scoring functions in model.  Each row
takes its suffix minima into a reused buffer, then carries the prefix
minimum inline with the cell updates, pricing the carried level against the
current one as prev[carry] + (j - carry) * unit.  Memory is O(k) floats for
the scores plus n * (k + 1) back-pointers, one byte each while k <= 255.

Ties are broken toward the smaller predecessor level at each cell, and toward
the smaller final level.  Among all optimal level sequences this returns the
one that is lexicographically smallest when read from the last position
backwards, which a brute-force oracle can reproduce.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .errors import InfeasibleError
from .model import EXP, BurstParams, DelaySequence, LevelSequence, Solution, check_delays

_INF = math.inf


@dataclass
class DpTable:
    """Result of the forward pass: the last score row and all predecessor levels.

    final[j] is the best score of the whole sequence ending at level j.
    back[i * (k + 1) + j] is the level chosen at position i - 1 for the best
    length-(i + 1) prefix ending at level j (position -1 is the implicit start
    at level 0).  back is a bytearray while k <= 255 and an int array above.
    """

    final: list[float]
    back: bytearray | array
    n: int
    k: int
    cell_updates: int


def _emissions(seq: DelaySequence, params: BurstParams, width: int) -> list[float]:
    """Negative log-likelihood of every (position, level) cell, row-major."""
    lam = [params.beta * params.alpha ** j for j in range(width)]
    if params.family == EXP:
        terms = [(v, math.log(v)) for v in lam]
        return [s * v - log_v for s in seq.values for v, log_v in terms]
    # geometric: rate 0 scores a zero delay 0 and any positive delay +inf
    geo_terms = [(v, -math.log1p(-v), math.log(v) if v > 0 else -_INF) for v in lam]
    return [base - s * log_v if v > 0.0 else (0.0 if s == 0.0 else _INF)
            for s in seq.values for v, base, log_v in geo_terms]


def fill_table(seq: DelaySequence, params: BurstParams) -> DpTable:
    """Run the forward pass: final score row plus the flat back-pointers."""
    check_delays(seq, params.family)
    n = seq.n
    k = params.k
    width = k + 1
    cells = n * width
    unit = params.gamma * math.log(n)
    steps = [d * unit for d in range(width)]  # cost of raising the level by d
    emit = _emissions(seq, params, width)
    back = bytearray(cells) if k <= 255 else array("i", [0]) * cells
    prev = [_INF] * width
    prev[0] = 0.0
    cur = [0.0] * width
    down_val = [0.0] * width
    down_arg = [0] * width
    descending = range(k - 1, -1, -1)
    ascending = range(1, width)
    off = 0
    for _ in range(n):
        # Suffix minima over prev (descending is free); ties keep the smaller level.
        dv = prev[k]
        da = k
        down_val[k] = dv
        down_arg[k] = k
        for j in descending:
            v = prev[j]
            if v <= dv:
                dv = v
                da = j
            down_val[j] = dv
            down_arg[j] = da
        # At level 0 the prefix minimum is prev[0], which never beats the
        # suffix minimum, and on a tie the suffix argmin is 0 as well.
        cur[0] = dv + emit[off]
        back[off] = da
        carry = 0
        for j in ascending:
            up = prev[carry] + steps[j - carry]
            v = prev[j]
            if not up <= v:
                up = v
                carry = j
            d = down_val[j]
            if up <= d:
                cur[j] = up + emit[off + j]
                back[off + j] = carry
            else:
                cur[j] = d + emit[off + j]
                back[off + j] = down_arg[j]
        prev, cur = cur, prev
        off += width
    return DpTable(final=prev, back=back, n=n, k=k, cell_updates=cells)


def backtrace(table: DpTable) -> LevelSequence:
    """Recover the optimal level sequence from a filled table."""
    final = table.final
    best_j = 0
    best = final[0]
    for j in range(1, len(final)):
        if final[j] < best:
            best = final[j]
            best_j = j
    if not best < _INF:
        raise InfeasibleError("every level sequence has infinite score")
    width = table.k + 1
    back = table.back
    levels = [0] * table.n
    j = best_j
    off = len(back) - width
    for i in range(table.n - 1, -1, -1):
        levels[i] = j
        j = back[off + j]
        off -= width
    return LevelSequence(tuple(levels), table.k)


def viterbi(seq: DelaySequence, params: BurstParams) -> Solution:
    """Minimize the burst score over level sequences for fixed parameters."""
    table = fill_table(seq, params)
    levels = backtrace(table)
    score = min(table.final)
    return Solution(
        levels=levels,
        alpha=params.alpha,
        beta=params.beta,
        score=score,
        viterbi_calls=1,
        diagnostics={"cell_updates": table.cell_updates},
    )
