"""Approximation scans for the exponential family.

exp_alpha fixes alpha and scans base-rate candidates 1/mu, 1/(mu(1+eps)),
... down to 1/(alpha**k mu).  Because exponential log-likelihoods can be
negative, the guarantee is multiplicative only after shifting scores by
n * log g (g the geometric mean of the delays): the shifted best scanned
score is within (1 + eps) of the shifted optimum.  approx_exp runs exp_alpha
at each alpha from max(s)/min(s) down to 1 and keeps the best (model.best_of
breaks ties to the smaller alpha, as the beta scans break them to the
smaller beta).

prune_scan is an equivalent but cheaper exp_alpha: after testing a candidate
beta, refitting beta to the returned levels gives a stationary value, and no
candidate strictly between the tested and refitted values can be optimal, so
those are skipped.  Visiting candidates at power-of-two strides makes the
skip intervals long early on.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import replace
from typing import Iterator, Sequence

from .errors import DomainError
from .model import (EXP, BurstParams, DelaySequence, LevelSequence, Solution, best_of,
                    check_family, check_scan_args)
from .viterbi import viterbi


def refit_beta(seq: DelaySequence, levels: LevelSequence | Sequence[int], alpha: float) -> float:
    """Stationary base rate for fixed levels: n / sum(s_i * alpha**l_i)."""
    levs = levels.levels if isinstance(levels, LevelSequence) else tuple(levels)
    if len(levs) != seq.n:
        raise DomainError(f"levels length {len(levs)} != sequence length {seq.n}")
    total = 0.0
    for s, lev in zip(seq.values, levs):
        total += s * alpha ** lev
    if total <= 0:
        raise DomainError("refit requires positive delays")
    return seq.n / total


def _descending(start: float, ratio: float, stop: float) -> list[float]:
    """start, start/ratio, start/ratio**2, ... while the value is >= stop."""
    out = []
    value = start
    while value >= stop:
        out.append(value)
        value /= ratio
    return out


def _top_scale(mu: float, alpha: float, k: int) -> float:
    """alpha**k * mu, rejected when it overflows."""
    try:
        scale = alpha ** k * mu
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise DomainError(f"alpha**k overflows for alpha={alpha!r}, k={k}; lower k or alpha")
    return scale


def beta_candidates(mu: float, alpha: float, k: int, epsilon: float) -> list[float]:
    """Decreasing candidate list 1/mu, 1/(mu(1+eps)), ... down to 1/(alpha**k mu)."""
    check_family(EXP, alpha)
    return _descending(1 / mu, 1 + epsilon, 1 / _top_scale(mu, alpha, k))


def exp_alpha(seq: DelaySequence, alpha: float, gamma: float, k: int, epsilon: float,
              prune: bool = False) -> Solution:
    """Scan beta at fixed alpha >= 1; shifted score within (1 + eps) of the beta-optimum."""
    if prune:
        return prune_scan(seq, alpha, gamma, k, epsilon)
    check_scan_args(seq, EXP, alpha, gamma, k, epsilon)
    candidates = beta_candidates(seq.stats.mean, alpha, k, epsilon)
    best = best_of((viterbi(seq, BurstParams(EXP, alpha, beta, gamma, k)) for beta in candidates),
                   "beta")
    t = len(candidates)
    return replace(best, diagnostics={"beta_candidates": t, "tested": t})


def traversal_order(t: int) -> list[int]:
    """Index 0, then every power-of-two stride from the largest down to 1.

    Each stride pass visits the multiples not yet seen, so an index is first
    visited in the pass of its lowest set bit: the pass of stride s visits
    s, 3s, 5s, ...  E.g. t = 7 gives 0, 4, 2, 6, 1, 3, 5.
    """
    if t <= 0:
        return []
    bits = range(t.bit_length() - 1, -1, -1)
    return [0] + [i for bit in bits for i in range(1 << bit, t, 2 << bit)]


def _skip_range(candidates: list[float], lo: float, hi: float) -> range:
    """Indices whose candidate lies strictly inside (lo, hi); candidates decrease."""
    start = bisect_right(candidates, -hi, key=operator.neg)
    return range(start, bisect_left(candidates, -lo, lo=start, key=operator.neg))


def prune_scan(seq: DelaySequence, alpha: float, gamma: float, k: int, epsilon: float) -> Solution:
    """exp_alpha with refit-based skipping; returns the same best score.

    The refitted beta for the levels found at a tested candidate brackets the
    stationary optimum away from the open interval between the two values, so
    untested candidates inside it are marked skipped.  The optimum can land
    exactly on the refitted value, in which case the best scan candidate is
    one of its two neighbours, so the inside candidate adjacent to the refit
    end of the interval is always kept live.
    """
    check_scan_args(seq, EXP, alpha, gamma, k, epsilon)
    candidates = beta_candidates(seq.stats.mean, alpha, k, epsilon)
    state = bytearray(len(candidates))  # 0 untouched, 1 tested, 2 skipped

    def tested() -> Iterator[Solution]:
        for idx in traversal_order(len(candidates)):
            if state[idx]:
                continue
            state[idx] = 1
            beta = candidates[idx]
            sol = viterbi(seq, BurstParams(EXP, alpha, beta, gamma, k))
            refit = refit_beta(seq, sol.levels, alpha)
            span = _skip_range(candidates, min(beta, refit), max(beta, refit))
            keep = span.start if refit >= beta else span.stop - 1
            for j in span:
                if j != keep and state[j] != 1:
                    state[j] = 2
            yield sol

    best = best_of(tested(), "beta")
    skipped = [i for i, f in enumerate(state) if f == 2]
    return replace(best, diagnostics={"beta_candidates": len(candidates),
                                      "tested": best.viterbi_calls, "skipped_indices": skipped})


def approx_exp(seq: DelaySequence, gamma: float, k: int, epsilon: float,
               prune: bool = False) -> Solution:
    """Scan alpha and beta jointly; shifted score within (1 + eps) of the optimum.

    alpha runs from max(s)/min(s) (always probed first) down to 1 with step
    (1 + eps)**(1 / 2k); inner beta scans use eps / 2.  With k = 0 every
    alpha prices delays alike, so the only probe is alpha = 1 with the full
    eps.  A constant sequence makes the single probe alpha = 1 as well, whose
    scan returns the flat solution.
    """
    check_scan_args(seq, EXP, 1.0, gamma, k, epsilon)
    if k == 0:
        alphas, inner = [1.0], epsilon
    else:
        top = seq.stats.maximum / seq.stats.minimum
        _top_scale(seq.stats.mean, top, k)  # fail on an overflowing top alpha before the grid
        alphas, inner = _descending(top, (1 + epsilon) ** (1 / (2 * k)), 1.0), epsilon / 2
    best = best_of((exp_alpha(seq, alpha, gamma, k, inner, prune=prune) for alpha in alphas),
                   "alpha")
    return replace(best, diagnostics={"alpha_candidates": len(alphas)})
