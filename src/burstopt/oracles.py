"""Independent reference optimizers used to cross-check the solvers.

brute_force_viterbi enumerates every level sequence and reproduces the
dynamic program's tie-break, so the two must agree exactly on small inputs.
scan_scores evaluates many (alpha, beta) candidates in one vectorized sweep;
grid_opt wraps it in a refinement loop over ranges that provably contain the
optimal parameters.
Grid minima upper-bound the true optimum, so "solver <= grid + tolerance"
and "solver <= (1 + eps) * grid" assertions are sound at any grid density.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapacityError, DomainError, InfeasibleError
from .model import (EXP, GEO, BurstParams, DelaySequence, LevelSequence, Solution,
                    check_delays, neg_loglik_exp, neg_loglik_geo, score_total)

_CHUNK = 1 << 16


def _nll_table(seq: DelaySequence, params: BurstParams) -> np.ndarray:
    nll = neg_loglik_exp if params.family == EXP else neg_loglik_geo
    return np.array([[nll(s, params.rate(j)) for j in range(params.k + 1)] for s in seq.values])


def brute_force_viterbi(seq: DelaySequence, params: BurstParams, guard: int = 10_000_000) -> Solution:
    """Exact minimum of score_total over all (k+1)**n level sequences.

    Ties are broken exactly as the dynamic program does: among minimal-score
    sequences, the one lexicographically smallest read from the end.  A
    vectorized pass locates the near-minimal band; the handful of sequences
    in it are re-scored with score_total for exact comparison.
    """
    check_delays(seq, params.family)
    n, k = seq.n, params.k
    total = (k + 1) ** n
    if total > guard:
        raise CapacityError(f"{total} level sequences exceed the enumeration guard {guard}")
    table = _nll_table(seq, params)
    unit = params.gamma * math.log(n)
    cols = np.arange(n)

    def chunk_scores(rows: np.ndarray) -> np.ndarray:
        gathered = table[cols[None, :], rows]
        prev = np.concatenate([np.zeros((rows.shape[0], 1), dtype=rows.dtype), rows[:, :-1]], axis=1)
        rises = np.maximum(rows - prev, 0).sum(axis=1)
        return gathered.sum(axis=1) + rises * unit

    def chunks():
        it = itertools.product(range(k + 1), repeat=n)
        while batch := list(itertools.islice(it, _CHUNK)):
            yield np.array(batch, dtype=np.int64)

    coarse_min = np.inf
    for rows in chunks():
        coarse_min = min(coarse_min, float(chunk_scores(rows).min()))
    if not math.isfinite(coarse_min):
        raise InfeasibleError("every level sequence has infinite score")

    window = coarse_min + 1e-9 + 1e-12 * abs(coarse_min)
    best_key = None
    best_levels = None
    for rows in chunks():
        scores = chunk_scores(rows)
        for row in rows[scores <= window]:
            levels = LevelSequence(tuple(int(v) for v in row), k)
            key = (score_total(levels, seq, params), tuple(reversed(levels.levels)))
            if best_key is None or key < best_key:
                best_key = key
                best_levels = levels
    assert best_levels is not None and best_key is not None
    return Solution(levels=best_levels, alpha=params.alpha, beta=params.beta,
                    score=best_key[0], viterbi_calls=0, diagnostics={"candidates": total})


def scan_scores(seq: DelaySequence, family: str, alphas: np.ndarray, betas: np.ndarray,
                gamma: float, k: int) -> np.ndarray:
    """Optimal-level score for each paired (alpha, beta) candidate, vectorized.

    Runs the same two-sided-minima recurrence as the scalar dynamic program
    across all candidates at once, tracking scores only.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.shape != betas.shape:
        raise DomainError("alphas and betas must pair up")
    check_delays(seq, family)
    n = seq.n
    unit = gamma * math.log(n)
    lam = betas[:, None] * alphas[:, None] ** np.arange(k + 1)[None, :]
    with np.errstate(divide="ignore"):
        if family == EXP:
            if np.any(lam <= 0):
                raise DomainError("exponential rates must be positive")
            const = -np.log(lam)
        else:
            if np.any(lam >= 1) or np.any(lam < 0):
                raise DomainError("geometric rates must lie in [0, 1)")
            const = -np.log1p(-lam)
            log_lam = np.log(lam)  # -inf where lam == 0

    width = k + 1
    o = np.full(lam.shape, np.inf)
    o[:, 0] = 0.0
    for s in seq.values:
        down = np.minimum.accumulate(o[:, ::-1], axis=1)[:, ::-1]
        up = o.copy()
        for j in range(1, width):
            np.minimum(up[:, j], up[:, j - 1] + unit, out=up[:, j])
        base = np.minimum(down, up)
        if family == EXP:
            ll = s * lam + const
        elif s > 0:
            ll = const - s * log_lam  # lam == 0 gives +inf, as required
        else:
            ll = const
        o = base + ll
    return o.min(axis=1)


def grid_search(seq: DelaySequence, family: str, gamma: float, k: int,
                alphas: np.ndarray, betas: np.ndarray) -> tuple[float, float, float]:
    """Minimum scan score over the alpha x beta product grid; returns (score, alpha, beta)."""
    aa, bb = np.meshgrid(np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float), indexing="ij")
    scores = scan_scores(seq, family, aa.ravel(), bb.ravel(), gamma, k)
    idx = int(np.argmin(scores))
    return float(scores[idx]), float(aa.ravel()[idx]), float(bb.ravel()[idx])


def _geo_ranges(seq: DelaySequence, k: int) -> tuple[np.ndarray, np.ndarray]:
    mu = seq.stats.mean
    n = seq.n
    betas = (mu / (mu + 1), mu / (mu + 1 / n))
    if k == 0:
        alphas = (0.0, 0.0)
    else:
        # The optimal positive alpha is at least 1/(1 + nk); stop shy of 1.
        alphas = (1 / (1 + n * k), (mu / (mu + 1 / n)) ** (0.01 / k))
    return np.array(alphas), np.array(betas)


def _exp_ranges(seq: DelaySequence, k: int, alpha: float | None) -> tuple[np.ndarray, np.ndarray]:
    stats = seq.stats
    mu = stats.mean
    alpha_hi = alpha if alpha is not None else max(stats.maximum / stats.minimum, 1.0)
    alpha_lo = alpha if alpha is not None else 1.0
    return np.array((alpha_lo, alpha_hi)), np.array((1 / (alpha_hi ** k * mu), 1 / mu))


def grid_opt(seq: DelaySequence, family: str, gamma: float, k: int,
             alpha: float | None = None, tol: float = 1e-6, start: int = 32,
             max_rounds: int = 4) -> float:
    """Grid minimum over ranges that contain the optimum, refined until stable.

    Doubles the grid density until two successive rounds agree within tol
    (or max_rounds is hit) and returns the best score seen.  With alpha
    given, only beta is gridded.  For the geometric family the joint grid
    also probes alpha = 0.
    """
    check_delays(seq, family, fit=True)
    if family == GEO:
        if seq.stats.mean == 0:
            return 0.0
        (a_lo, a_hi), (b_lo, b_hi) = _geo_ranges(seq, k)
        extra_alpha = [0.0] if alpha is None else []
    else:
        (a_lo, a_hi), (b_lo, b_hi) = _exp_ranges(seq, k, alpha)
        extra_alpha = []
    if alpha is not None:
        a_lo = a_hi = alpha

    best = np.inf
    prev_round = None
    size = start
    for _ in range(max_rounds):
        if a_lo == a_hi:
            alphas = np.array([a_lo])
        else:
            alphas = np.geomspace(a_lo, a_hi, size)
        alphas = np.concatenate([np.array(extra_alpha), alphas])
        betas = np.geomspace(b_lo, b_hi, size * size if a_lo == a_hi else size)
        round_best, _, _ = grid_search(seq, family, gamma, k, alphas, betas)
        best = min(best, round_best)
        if prev_round is not None and abs(prev_round - round_best) <= tol:
            break
        prev_round = round_best
        size *= 2
    return best
