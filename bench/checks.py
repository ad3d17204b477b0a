"""Output checks, run after the timed phase.

Every fitted result becomes a Fit and is checked for:

- levels: length n, each an integer in [0, k];
- score: score_total(levels, seq, params) reproduces the returned score
  within 1e-9 relative;
- guarantee: the score is at most (1 + eps) times a fixed-grid
  oracles.grid_search minimum, on scores shifted by n * log g for the
  exponential family (a grid minimum upper-bounds the optimum, so this is
  sound at any grid density); an exact solve gets eps = 0 and must also be
  at most the exp_alpha score at the same alpha.

score_excess is (S - R) / R on shifted scores, R the lower of the grid
minimum and, where it applies (exponential family, alpha > 1, n <= 64),
the exact solver at the returned alpha.  self_test shows that the checks
reject a corrupted score, an out-of-range level and a score outside the
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from burstopt.approx_exp import exp_alpha
from burstopt.exact import solve_exp_alpha_exact
from burstopt.model import EXP, BurstParams, DelaySequence, score_total
from burstopt.oracles import grid_search
from burstopt.viterbi import viterbi

REL_TOL = 1e-9
EXACT_MAX_N = 64
EXACT_CHECK_EPS = 0.05  # slack of the exp_alpha scan an exact score must not exceed
BETA_GRID = 256  # beta points for a fixed-alpha grid
JOINT_GRID = (32, 64)  # (alpha, beta) points for a joint grid


@dataclass(frozen=True)
class Fit:
    """One fitted result to check.

    scan is "beta" (alpha fixed, beta scanned), "both", "exact" (exact
    optimum over beta at fixed alpha) or "none" (no optimality guarantee,
    e.g. beta = 1/mean); eps is the scan's guarantee slack.
    """

    seq: DelaySequence
    family: str
    levels: tuple[int, ...]
    alpha: float
    beta: float
    gamma: float
    k: int
    score: float
    scan: str
    eps: float = 0.0


@dataclass(frozen=True)
class Verdict:
    problems: tuple[str, ...]
    excess: float | None  # None when the fit has no guarantee or failed earlier


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _grid(fit: Fit) -> tuple[np.ndarray, np.ndarray]:
    seq, k = fit.seq, fit.k
    mu, n = seq.stats.mean, seq.n
    if fit.family == EXP:
        a_hi = max(seq.stats.maximum / seq.stats.minimum, 1.0) if fit.scan == "both" else fit.alpha
        alphas = np.geomspace(1.0, a_hi, JOINT_GRID[0]) if fit.scan == "both" else np.array([fit.alpha])
        beta_range = (1 / (a_hi ** k * mu), 1 / mu)
    else:
        sigma = mu / (mu + 1 / n)
        if fit.scan == "both":
            alphas = np.concatenate([[0.0], np.geomspace(1 / (1 + n * k), sigma ** (0.01 / k), JOINT_GRID[0])])
        else:
            alphas = np.array([fit.alpha])
        beta_range = (mu / (mu + 1), sigma)
    size = JOINT_GRID[1] if fit.scan == "both" else BETA_GRID
    return alphas, np.geomspace(*beta_range, size)


def check_fit(fit: Fit) -> Verdict:
    """Run every check that applies to fit; an empty problem list means it passed."""
    n, k = fit.seq.n, fit.k
    levels = fit.levels
    if len(levels) != n or any(not isinstance(v, int) or not 0 <= v <= k for v in levels):
        return Verdict((f"levels not {n} integers in [0, {k}]",), None)
    try:
        params = BurstParams(fit.family, fit.alpha, fit.beta, fit.gamma, k)
        recomputed = score_total(levels, fit.seq, params)
    except ValueError as exc:
        return Verdict((f"score_total failed: {exc}",), None)
    if not _close(fit.score, recomputed):
        return Verdict((f"score {fit.score!r} != score_total {recomputed!r}",), None)
    if fit.scan == "none":
        return Verdict((), None)

    problems = []
    shift = fit.seq.stats.psi if fit.family == EXP else 0.0
    alphas, betas = _grid(fit)
    grid_score = grid_search(fit.seq, fit.family, fit.gamma, k, alphas, betas)[0] - shift
    score = fit.score - shift
    if score > (1 + fit.eps) * grid_score + REL_TOL * abs(grid_score):
        problems.append(f"shifted score {score!r} > (1 + {fit.eps}) * grid {grid_score!r}")
    reference = grid_score
    if fit.scan == "exact":
        scanned = exp_alpha(fit.seq, fit.alpha, fit.gamma, k, EXACT_CHECK_EPS).score - shift
        if score > scanned + REL_TOL * abs(scanned):
            problems.append(f"exact shifted score {score!r} > exp_alpha {scanned!r}")
    elif fit.family == EXP and n <= EXACT_MAX_N and fit.alpha > 1:
        exact = solve_exp_alpha_exact(fit.seq, fit.alpha, fit.gamma, k).score - shift
        reference = min(reference, exact)
    return Verdict(tuple(problems), (score - reference) / reference)


def self_test() -> float:
    """Return failed_frac over 4 deliberately built fits, of which 3 must fail.

    The good fit is a beta scan's result; the others corrupt its score, set
    one level to k + 1, or take levels and score from a beta far from the
    scanned range while still claiming the scan's guarantee.  Raises
    AssertionError if the checks pass a bad fit or fail the good one.
    """
    rng = np.random.default_rng(7)
    delays = np.concatenate([rng.exponential(2.0, 20), rng.exponential(0.25, 12), rng.exponential(2.0, 20)])
    seq = DelaySequence.from_values(delays.tolist(), kind="real")
    sol = exp_alpha(seq, 2.0, 1.0, 1, 0.05)
    good = Fit(seq, EXP, sol.levels.levels, sol.alpha, sol.beta, 1.0, 1, sol.score, "beta", 0.05)
    far = viterbi(seq, BurstParams(EXP, 2.0, 50 / seq.stats.mean, 1.0, 1))
    fits = [
        good,
        replace(good, score=good.score * (1 + 1e-6)),
        replace(good, levels=(good.k + 1,) + good.levels[1:]),
        replace(good, levels=far.levels.levels, beta=far.beta, score=far.score),
    ]
    failed = [bool(check_fit(f).problems) for f in fits]
    if failed != [False, True, True, True]:
        raise AssertionError(f"output checks do not bite: failed flags {failed}, want [F, T, T, T]")
    return sum(failed) / len(fits)
