"""Approximation scans for the geometric family.

geo_alpha fixes alpha and scans base rates from eta = mu / (mu + 1) up to
sigma = mu / (mu + 1/n), the bracket of the optimal beta.  For fixed levels
the score splits into -S log beta (S the sum of the delays), the terms
-log(1 - beta * alpha**l_i), the alpha term -sum s_i l_i log alpha and the
rise penalties.  Stationarity at the optimum beta* gives
S = sum x_i / (1 - x_i) with x_i = beta* alpha**l_i <= beta*, so the second
term is at least g(beta*) * S, where g(x) = (1 - x)(-log(1 - x)) / x
decreases.  Lowering beta from beta* to a candidate b costs at most
S log(beta* / b), since the -log(1 - x_i) terms only fall, hence b already
scores within (1 + eps) of the optimum when

    log(beta* / b) <= eps * (-log beta* + g(beta*)).

beta_schedule steps as far as this allows: the next candidate is the largest
beta with (1 + eps) log beta - eps g(beta) <= log of the previous one.
Dropping g gives the plain step beta**(1/(1 + eps)), so the scan never tests
more candidates than that one.

approx_geo probes alpha = 0, then runs geo_alpha along an ascending grid
(_ascending_powers).  The alpha grid spends its eps on the alpha term only:
moving alpha down to the grid point below alpha* scales that term by at most
(1 + eps) and can only lower the -log(1 - beta alpha**l) terms, so the beta
argument above, which never touches the alpha term, still applies.  Above the
last alpha candidate, sigma**(eps/k), the alpha term is instead bounded by
(1 + eps) eps S (-log sigma) <= (1 + eps) eps S (-log beta*), which loosens
the joint bound there to (1 + eps)**2.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

from .model import (GEO, BurstParams, DelaySequence, LevelSequence, Solution, best_of,
                    check_scan_args)
from .viterbi import viterbi


def _ascending_powers(base: float, stop: float, ratio: float) -> list[float]:
    """base**c for c = 1, 1/ratio, 1/ratio**2, ... while the value is <= stop.

    With base in (0, 1) and ratio > 1 the values increase strictly toward
    stop; the first one is exactly base.
    """
    out = []
    c = 1.0
    while (value := base ** c) <= stop:
        out.append(value)
        c /= ratio
    return out


def _next_beta_coordinate(v: float, epsilon: float) -> float:
    """The schedule step in the coordinate v = -log(1 - beta).

    In v both -log beta = -log(-expm1(-v)) and g(beta) = v / expm1(v) are
    convex and decreasing, so the step condition
    (1 + eps)(-log beta) + eps g(beta) >= -log beta_prev is convex and
    decreasing too.  Newton's method started at the plain step, which meets
    the condition, climbs monotonically to the boundary without crossing it
    (up to rounding), so every iterate is a valid, never shorter, step.
    """
    t_prev = -math.log(-math.expm1(-v))
    v = -math.log(-math.expm1(-t_prev / (1 + epsilon)))
    while True:
        e = math.expm1(v)
        excess = (1 + epsilon) * -math.log(-math.expm1(-v)) + epsilon * v / e - t_prev
        slope = -(1 + epsilon) / e + epsilon * (e - v * (e + 1)) / (e * e)
        step = -excess / slope
        if not step > 1e-12 * v:
            return v
        v += step


@lru_cache(maxsize=128)
def beta_schedule(mean: float, n: int, epsilon: float) -> tuple[float, ...]:
    """Base rates geo_alpha tests: eta = mean / (mean + 1) first, then each
    next candidate as far above the last as the (1 + eps) argument in the
    module docstring allows, while the candidate is <= mean / (mean + 1/n).

    The schedule depends only on the mean, n and eps, not on alpha, so the
    result is cached (an immutable tuple, shared by every caller) and the
    alpha scan of approx_geo builds it once.
    """
    stop = mean / (mean + 1 / n)
    betas = [mean / (mean + 1)]
    v = math.log1p(mean)  # -log(1 - eta)
    while True:
        v = _next_beta_coordinate(v, epsilon)
        beta = -math.expm1(-v)
        if beta > stop:
            return tuple(betas)
        betas.append(beta)


def geo_alpha(seq: DelaySequence, alpha: float, gamma: float, k: int, epsilon: float) -> Solution:
    """Scan beta at fixed alpha; best score is within (1 + eps) of the beta-optimum.

    Makes one DP call per beta_schedule candidate, never more than the plain
    schedule eta**(1/(1 + eps)**j), which needs
    floor(log_{1+eps}(log(eta) / log(sigma))) + 1 calls.  For n <= 120, every
    integer delay sum S <= 6n and eps in {0.01, 0.05, 0.2, 0.5, 1, 3} the
    count stays within ceil(log_{1+eps}(log(n + 1) / log 2)) + 1, but that
    cap is not a bound for every n: the worst count grows like
    2 log_{1+eps}(1 + log(n)/2), reaches the cap near n = 2e4 and exceeds it
    by n = 1e5 (at n = 1e6 by 5 calls at eps = 0.05 and 1 call at eps = 0.5).
    """
    check_scan_args(seq, GEO, alpha, gamma, k, epsilon)
    mu = seq.stats.mean
    if mu == 0:
        # All delays are 0: rate 0 at level 0 scores every position 0, which is
        # the global optimum, so no scan is needed.
        return Solution(levels=LevelSequence((0,) * seq.n, k), alpha=alpha, beta=0.0, score=0.0,
                        viterbi_calls=0, diagnostics={"beta_candidates": 0})
    best = best_of((viterbi(seq, BurstParams(GEO, alpha, beta, gamma, k))
                    for beta in beta_schedule(mu, seq.n, epsilon)), "beta")
    return replace(best, diagnostics={"beta_candidates": best.viterbi_calls})


def approx_geo(seq: DelaySequence, gamma: float, k: int, epsilon: float) -> Solution:
    """Scan alpha and beta jointly; best score is within (1 + eps) of the optimum.

    alpha = 0 is probed first: it is optimal exactly when some optimal
    assignment prices every positive delay at level 0, a case no positive
    alpha candidate covers.
    """
    check_scan_args(seq, GEO, 0.0, gamma, k, epsilon)
    alphas = [0.0]
    mu = seq.stats.mean
    if mu > 0 and k > 0:
        sigma = mu / (mu + 1 / seq.n)
        alphas += _ascending_powers(1 / (1 + seq.n * k), sigma ** (epsilon / k), 1 + epsilon)
    best = best_of((geo_alpha(seq, alpha, gamma, k, epsilon) for alpha in alphas), "alpha")
    return replace(best, diagnostics={"alpha_candidates": len(alphas),
                                      "beta_candidates": best.viterbi_calls})
