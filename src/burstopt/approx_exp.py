"""Approximation scans for the exponential family.

exp_alpha fixes alpha and scans base-rate candidates 1/mu, 1/(mu(1+eps)),
... down to 1/(alpha**k mu).  Because exponential log-likelihoods can be
negative, the guarantee is multiplicative only after shifting scores by
n * log g (g the geometric mean of the delays): the shifted best scanned
score is within (1 + eps) of the shifted optimum.  approx_exp wraps a scan
over alpha from max(s)/min(s) down to 1 around it.

prune_scan is an equivalent but cheaper exp_alpha: after testing a candidate
beta, refitting beta to the returned levels gives a stationary value, and no
candidate strictly between the tested and refitted values can be optimal, so
those are skipped.  Visiting candidates at power-of-two strides makes the
skip intervals long early on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import DomainError
from .model import EXP, BurstParams, DelaySequence, LevelSequence, Solution
from .viterbi import viterbi


def _validate_exp_inputs(seq: DelaySequence, gamma: float, k: int, epsilon: float) -> None:
    if seq.stats.minimum <= 0:
        raise DomainError(
            "exponential-family optimization requires strictly positive delays; "
            "shift the delays by a small amount to remove zeros"
        )
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k!r}")
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")


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


def beta_candidates(mu: float, alpha: float, k: int, epsilon: float) -> list[float]:
    """Decreasing candidate list 1/mu, 1/(mu(1+eps)), ... down to 1/(alpha**k mu)."""
    try:
        scale = alpha ** k * mu
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise DomainError(f"alpha**k overflows for alpha={alpha!r}, k={k}; lower k or alpha")
    limit = 1 / scale
    ratio = 1 + epsilon
    out = []
    beta = 1 / mu
    while beta >= limit:
        out.append(beta)
        beta /= ratio
    return out


def _better(score: float, param: float, best_score: float, best_param: float) -> bool:
    """Candidate ordering: lower score, then the smaller scanned parameter."""
    return score < best_score or (score == best_score and param < best_param)


def exp_alpha(seq: DelaySequence, alpha: float, gamma: float, k: int, epsilon: float,
              prune: bool = False) -> Solution:
    """Scan beta at fixed alpha >= 1; shifted score within (1 + eps) of the beta-optimum."""
    _validate_exp_inputs(seq, gamma, k, epsilon)
    if alpha < 1:
        raise DomainError(f"exp family needs alpha >= 1, got {alpha!r}")
    if prune:
        return prune_scan(seq, alpha, gamma, k, epsilon)
    candidates = beta_candidates(seq.stats.mean, alpha, k, epsilon)
    best: Solution | None = None
    for beta in candidates:
        sol = viterbi(seq, BurstParams(EXP, alpha, beta, gamma, k))
        if best is None or _better(sol.score, sol.beta, best.score, best.beta):
            best = sol
    assert best is not None  # 1/mu always satisfies the scan bound
    t = len(candidates)
    return replace(best, viterbi_calls=t, diagnostics={"beta_candidates": t, "tested": t})


@dataclass
class PruneState:
    """Bookkeeping for a pruned candidate scan."""

    candidates: list[float]
    order: list[int]
    visited: list[bool] = field(init=False)
    skipped: list[bool] = field(init=False)

    def __post_init__(self) -> None:
        t = len(self.candidates)
        self.visited = [False] * t
        self.skipped = [False] * t


def traversal_order(t: int) -> list[int]:
    """Index 0, then every power-of-two stride from the largest down to 1.

    Each stride pass visits the multiples not yet seen, e.g. t = 7 gives
    0, 4, 2, 6, 1, 3, 5.
    """
    if t <= 0:
        return []
    order = [0]
    seen = [False] * t
    seen[0] = True
    stride = 1
    while stride * 2 <= t:
        stride *= 2
    while stride >= 1:
        for idx in range(stride, t, stride):
            if not seen[idx]:
                order.append(idx)
                seen[idx] = True
        stride //= 2
    return order


def _skip_range(candidates: list[float], lo: float, hi: float) -> range:
    """Indices whose candidate lies strictly inside (lo, hi); candidates decrease."""
    t = len(candidates)
    first, last = 0, t
    while first < last:  # first index with value < hi
        mid = (first + last) // 2
        if candidates[mid] < hi:
            last = mid
        else:
            first = mid + 1
    start = first
    first, last = start, t
    while first < last:  # first index with value <= lo
        mid = (first + last) // 2
        if candidates[mid] <= lo:
            last = mid
        else:
            first = mid + 1
    return range(start, first)


def prune_scan(seq: DelaySequence, alpha: float, gamma: float, k: int, epsilon: float) -> Solution:
    """exp_alpha with refit-based skipping; returns the same best score.

    The refitted beta for the levels found at a tested candidate brackets the
    stationary optimum away from the open interval between the two values, so
    untested candidates inside it are marked skipped.  The optimum can land
    exactly on the refitted value, in which case the best scan candidate is
    one of its two neighbours, so the inside candidate adjacent to the refit
    end of the interval is always kept live.
    """
    _validate_exp_inputs(seq, gamma, k, epsilon)
    if alpha < 1:
        raise DomainError(f"exp family needs alpha >= 1, got {alpha!r}")
    candidates = beta_candidates(seq.stats.mean, alpha, k, epsilon)
    state = PruneState(candidates=candidates, order=traversal_order(len(candidates)))
    best: Solution | None = None
    tested = 0
    for idx in state.order:
        if state.visited[idx] or state.skipped[idx]:
            continue
        state.visited[idx] = True
        beta = candidates[idx]
        sol = viterbi(seq, BurstParams(EXP, alpha, beta, gamma, k))
        tested += 1
        refit = refit_beta(seq, sol.levels, alpha)
        lo, hi = (beta, refit) if beta <= refit else (refit, beta)
        span = _skip_range(candidates, lo, hi)
        keep = span.start if refit >= beta else span.stop - 1
        for j in span:
            if j != keep and not state.visited[j]:
                state.skipped[j] = True
        if best is None or _better(sol.score, sol.beta, best.score, best.beta):
            best = sol
    assert best is not None
    return replace(best, viterbi_calls=tested,
                   diagnostics={"beta_candidates": len(candidates), "tested": tested,
                                "skipped_indices": [i for i, f in enumerate(state.skipped) if f]})


def approx_exp(seq: DelaySequence, gamma: float, k: int, epsilon: float,
               prune: bool = False) -> Solution:
    """Scan alpha and beta jointly; shifted score within (1 + eps) of the optimum.

    alpha runs from max(s)/min(s) (always probed first) down to 1 with step
    (1 + eps)**(1 / 2k); inner beta scans use eps / 2.  A constant sequence
    makes the single probe alpha = 1, whose scan returns the flat solution.
    """
    _validate_exp_inputs(seq, gamma, k, epsilon)
    if k == 0:
        return exp_alpha(seq, 1.0, gamma, k, epsilon, prune=prune)
    stats = seq.stats
    alpha = stats.maximum / stats.minimum
    step = (1 + epsilon) ** (1 / (2 * k))
    best: Solution | None = None
    calls = 0
    alpha_candidates = 0
    while alpha >= 1.0:
        sol = exp_alpha(seq, alpha, gamma, k, epsilon / 2, prune=prune)
        calls += sol.viterbi_calls
        alpha_candidates += 1
        if best is None or _better(sol.score, sol.alpha, best.score, best.alpha):
            best = sol
        alpha /= step
    assert best is not None  # max(s)/min(s) >= 1 always
    return replace(best, viterbi_calls=calls,
                   diagnostics={"alpha_candidates": alpha_candidates})
