"""Acceptance gate: end-to-end checks on random instance populations.

Each test prints one ``[acceptance] <name>: PASS|FAIL (...)`` line before
asserting, so running ``pytest tests/test_acceptance.py -s`` shows the whole
scorecard even when a gate fails.
"""

from __future__ import annotations

import math
import time

import numpy as np

import burstopt as b
from burstopt import EXP, GEO

from conftest import random_exp_instance, random_geo_instance


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-12)


def test_viterbi_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    level_mismatches = 0
    for i in range(500):
        if i % 2 == 0:
            seq, params = random_exp_instance(rng)
        else:
            seq, params = random_geo_instance(rng)
        got = b.viterbi(seq, params)
        want = b.brute_force_viterbi(seq, params)
        worst = max(worst, _rel_gap(got.score, want.score))
        if got.levels.levels != want.levels.levels:
            level_mismatches += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and level_mismatches == 0 and elapsed < 30
    _report("viterbi-vs-brute-force", ok,
            f"500 instances, worst score rel err {worst:.2e}, "
            f"{level_mismatches} level mismatches, {elapsed:.1f}s (<30s)")
    assert worst <= 1e-9
    assert level_mismatches == 0
    assert elapsed < 30


def test_exact_solver_within_dense_beta_grid():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst_gap = -math.inf
    beta_mismatches = 0
    for _ in range(100):
        seq, params = random_exp_instance(rng, low=0.1, high=10.0)
        sol = b.solve_exp_alpha_exact(seq, params.alpha, params.gamma, params.k)
        mu = seq.stats.mean
        betas = np.geomspace(1 / (params.alpha ** params.k * mu), 1 / mu, 10_000)
        grid = float(b.scan_scores(seq, EXP, np.full(betas.size, params.alpha),
                                   betas, params.gamma, params.k).min())
        worst_gap = max(worst_gap, sol.score - grid)
        if sol.beta != b.refit_beta(seq, sol.levels, params.alpha):
            beta_mismatches += 1
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-9 and beta_mismatches == 0 and elapsed < 120
    _report("exact-solver-vs-beta-grid", ok,
            f"100 instances, worst score - grid gap {worst_gap:.2e} (tol 1e-9), "
            f"{beta_mismatches} non-stationary betas, {elapsed:.1f}s (<120s)")
    assert worst_gap <= 1e-9
    assert beta_mismatches == 0
    assert elapsed < 120


def test_scans_meet_epsilon_guarantees():
    rng = np.random.default_rng(303)
    start = time.monotonic()
    failures = {"geo_alpha": 0, "approx_geo": 0, "exp_alpha": 0, "approx_exp": 0}
    worst = {key: 0.0 for key in failures}  # score / allowed-bound, want <= 1

    def check(key: str, score: float, bound: float) -> None:
        if bound <= 0:  # zero-mean geometric instances have optimum 0
            if score > bound:
                failures[key] += 1
            return
        worst[key] = max(worst[key], score / bound)
        if score > bound:
            failures[key] += 1

    for eps in (0.05, 0.5):
        for _ in range(100):
            seq, params = random_geo_instance(rng, min_n=2)
            sol = b.geo_alpha(seq, params.alpha, params.gamma, params.k, eps)
            opt = b.grid_opt(seq, GEO, params.gamma, params.k, alpha=params.alpha)
            check("geo_alpha", sol.score, (1 + eps) * opt)
            joint = b.approx_geo(seq, params.gamma, params.k, eps)
            jopt = b.grid_opt(seq, GEO, params.gamma, params.k)
            check("approx_geo", joint.score, (1 + eps) * jopt)

            seq2, params2 = random_exp_instance(rng, min_n=2)
            psi = seq2.stats.psi
            esol = b.exp_alpha(seq2, params2.alpha, params2.gamma, params2.k, eps)
            eopt = b.solve_exp_alpha_exact(seq2, params2.alpha, params2.gamma, params2.k).score
            check("exp_alpha", esol.score - psi, (1 + eps) * (eopt - psi))
            ejoint = b.approx_exp(seq2, params2.gamma, params2.k, eps)
            ejopt = b.grid_opt(seq2, EXP, params2.gamma, params2.k)
            check("approx_exp", ejoint.score - psi, (1 + eps) * (ejopt - psi))
    elapsed = time.monotonic() - start
    ok = not any(failures.values()) and elapsed < 300
    ratios = ", ".join(f"{key} {worst[key]:.3f}" for key in worst)
    _report("epsilon-guarantees", ok,
            f"200 geo + 200 exp instances, worst score/bound: {ratios}, "
            f"{elapsed:.1f}s (<300s)")
    assert failures == {key: 0 for key in failures}
    assert elapsed < 300


def test_scan_call_counts_within_stated_bounds():
    rng = np.random.default_rng(404)
    geo_over = exp_over = outer_over = 0
    geo_total = exp_total = 0
    worst_geo = (0, 0)  # (calls, bound) of the largest excess
    for eps in (0.05, 0.5):
        for _ in range(100):
            seq, params = random_geo_instance(rng, min_n=2)
            sol = b.geo_alpha(seq, params.alpha, params.gamma, params.k, eps)
            n = seq.n
            bound = math.ceil((math.log(math.log(n + 1)) - math.log(math.log(2)))
                              / math.log(1 + eps)) + 1
            geo_total += 1
            if sol.viterbi_calls > bound:
                geo_over += 1
                if sol.viterbi_calls - bound > worst_geo[0] - worst_geo[1]:
                    worst_geo = (sol.viterbi_calls, bound)

            seq2, params2 = random_exp_instance(rng, min_n=2)
            esol = b.exp_alpha(seq2, params2.alpha, params2.gamma, params2.k, eps)
            ebound = math.ceil(params2.k * math.log(params2.alpha) / math.log(1 + eps)) + 1
            exp_total += 1
            if esol.viterbi_calls > ebound:
                exp_over += 1
            ejoint = b.approx_exp(seq2, params2.gamma, params2.k, eps)
            ratio = seq2.stats.maximum / seq2.stats.minimum
            obound = 2 * params2.k * math.log(ratio) / math.log(1 + eps) + 1
            if ejoint.diagnostics["alpha_candidates"] > obound:
                outer_over += 1
    ok = geo_over == 0 and exp_over == 0 and outer_over == 0
    _report("call-count-bounds", ok,
            f"geo scan over bound on {geo_over}/{geo_total} instances "
            f"(worst {worst_geo[0]} > {worst_geo[1]}); "
            f"exp scan {exp_over}/{exp_total}; joint outer {outer_over}/{exp_total}")
    assert exp_over == 0
    assert outer_over == 0
    # The doubly-logarithmic cap holds for these small instances (n <= 8); it
    # is not a bound for every n: the base-rate scan's worst count grows like
    # 2 log_{1+eps}(1 + log(n)/2), reaches the cap near n = 2e4 and exceeds it
    # by n = 1e5.  See README.
    assert geo_over == 0


def test_pruned_scan_matches_plain_and_saves_work():
    rng = np.random.default_rng(505)
    start = time.monotonic()
    worst_rel = 0.0
    tested_excess = 0
    for i in range(100):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(0, 5))
        seq = b.DelaySequence.from_values(rng.uniform(0.05, 10.0, n).tolist())
        alpha = float(rng.uniform(1.0, 4.0))
        gamma = float(rng.uniform(0.05, 2.0))
        eps = 0.05 if i % 2 == 0 else 2.0 ** -8
        plain = b.exp_alpha(seq, alpha, gamma, k, eps)
        pruned = b.prune_scan(seq, alpha, gamma, k, eps)
        worst_rel = max(worst_rel, _rel_gap(pruned.score, plain.score))
        if pruned.diagnostics["tested"] > plain.viterbi_calls:
            tested_excess += 1

    spec = b.PlantSpec(n=2000, burst_start=700, burst_end=1300,
                       base_rate=0.5, burst_rate=1.0, seed=2026)
    bursty, _ = b.generate(spec)
    sol = b.prune_scan(bursty, 2.0, 1.0, 5, 2.0 ** -13)
    tested = sol.diagnostics["tested"]
    total = sol.diagnostics["beta_candidates"]
    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-9 and tested_excess == 0 and tested <= 0.10 * total
    _report("scan-pruning", ok,
            f"100 instances, worst score rel gap {worst_rel:.2e}, "
            f"{tested_excess} over plain count; bursty scan tested "
            f"{tested}/{total} = {tested / total:.2%} (<=10%), {elapsed:.1f}s")
    assert worst_rel <= 1e-9
    assert tested_excess == 0
    assert tested <= 0.10 * total


def test_optimized_base_rate_tracks_planted_bursts():
    start = time.monotonic()
    rows = b.run_burst_length_experiment(burst_lengths=(50, 100, 150, 200, 230, 250),
                                         trials=100, n=500, seed=0)
    means = b.mean_hamming(rows)
    elapsed = time.monotonic() - start
    above = [length for length in (150, 200, 230, 250)
             if means[(length, "opt")] > means[(length, "mean")]]
    anchor = means[(230, "opt")]
    ok = not above and 8 <= anchor <= 33 and elapsed < 600
    pairs = "; ".join(f"{length}: {means[(length, 'opt')]:.1f} vs "
                      f"{means[(length, 'mean')]:.1f}"
                      for length in (50, 100, 150, 200, 230, 250))
    _report("burst-length-trend", ok,
            f"mean error opt vs baseline at {pairs}; anchor at 230 = {anchor:.1f} "
            f"in [8, 33]; {elapsed:.0f}s (<600s)")
    assert not above
    assert 8 <= anchor <= 33
    assert elapsed < 600


def test_normalized_error_trend_over_sequence_length():
    start = time.monotonic()
    rows = b.run_sequence_length_experiment(trials=300, seed=0)
    means = b.mean_hamming(rows)
    elapsed = time.monotonic() - start
    opt50 = means[(50, "opt")] / 50
    base50 = means[(50, "mean")] / 50
    not_below = [n for n in (300, 350, 400, 450, 500)
                 if not means[(n, "opt")] < means[(n, "mean")]]
    ok = (0.10 <= opt50 <= 0.35 and 0.10 <= base50 <= 0.35 and not not_below)
    _report("sequence-length-trend", ok,
            f"normalized error at n=50: opt {opt50:.3f}, baseline {base50:.3f} "
            f"(both in [0.10, 0.35]); opt < baseline at n>=300: "
            f"{'yes' if not not_below else f'no ({not_below})'}; {elapsed:.0f}s")
    assert 0.10 <= opt50 <= 0.35
    assert 0.10 <= base50 <= 0.35
    assert not not_below


def test_structural_properties():
    rng = np.random.default_rng(808)

    pen_bad = 0
    for _ in range(2000):
        x, y = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        gamma = float(rng.uniform(0.01, 3.0))
        n = int(rng.integers(2, 1000))
        p = b.penalty(x, y, gamma, n)
        if p < 0 or (y <= x and p != 0.0):
            pen_bad += 1

    geo_range_bad = 0
    for _ in range(40):
        seq, params = random_geo_instance(rng, min_n=2)
        mu = seq.stats.mean
        if mu == 0:
            continue
        n = seq.n
        lo, hi = mu / (1 + mu), mu / (1 / n + mu)
        wide = np.geomspace(max(lo / 50, 1e-6), min(hi * 50, 0.999999), 4000)
        scores = b.scan_scores(seq, GEO, np.full_like(wide, params.alpha), wide,
                               params.gamma, params.k)
        best_beta = float(wide[int(np.argmin(scores))])
        if not lo / 1.05 <= best_beta <= hi * 1.05:  # neighbour ratio < 5%
            geo_range_bad += 1

    exp_range_bad = 0
    for _ in range(30):
        seq, params = random_exp_instance(rng, min_n=2)
        sol = b.solve_exp_alpha_exact(seq, params.alpha, params.gamma, params.k)
        mu = seq.stats.mean
        lo, hi = 1 / (params.alpha ** params.k * mu), 1 / mu
        if not lo * (1 - 1e-9) <= sol.beta <= hi * (1 + 1e-9):
            exp_range_bad += 1

    mono_bad = 0
    for _ in range(25):
        seq, params = random_exp_instance(rng, min_n=2)
        mu = seq.stats.mean
        betas = np.geomspace(1 / (params.alpha ** params.k * mu) / 10, 10 / mu, 400)
        prev = 0.0
        for beta in betas:
            fit = b.viterbi(seq, b.BurstParams(EXP, params.alpha, float(beta),
                                               params.gamma, params.k))
            refit = b.refit_beta(seq, fit.levels, params.alpha)
            if refit < prev * (1 - 1e-12):
                mono_bad += 1
                break
            prev = refit

    safety_bad = 0
    for i in range(30):
        n = int(rng.integers(2, 61))
        k = int(rng.integers(0, 5))
        seq = b.DelaySequence.from_values(rng.uniform(0.05, 10.0, n).tolist())
        alpha = float(rng.uniform(1.0, 4.0))
        gamma = float(rng.uniform(0.05, 2.0))
        eps = 0.05 if i % 2 == 0 else 0.3
        sol = b.prune_scan(seq, alpha, gamma, k, eps)
        cands = b.beta_candidates(seq.stats.mean, alpha, k, eps)
        for idx in sol.diagnostics["skipped_indices"]:
            score = b.viterbi(seq, b.BurstParams(EXP, alpha, cands[idx], gamma, k)).score
            if score < sol.score - 1e-9 * max(1.0, abs(sol.score)):
                safety_bad += 1

    ok = pen_bad == geo_range_bad == exp_range_bad == mono_bad == safety_bad == 0
    _report("property-suite", ok,
            f"penalty {pen_bad}/2000 bad; geo beta-range {geo_range_bad}/40; "
            f"exp beta-range {exp_range_bad}/30; refit monotone {mono_bad}/25; "
            f"prune safety {safety_bad}/30")
    assert pen_bad == 0
    assert geo_range_bad == 0
    assert exp_range_bad == 0
    assert mono_bad == 0
    assert safety_bad == 0
