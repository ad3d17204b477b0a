"""Budgeted DP and the exact exponential-family optimum."""

import itertools
import math

import numpy as np
import pytest

import burstopt as b
from burstopt import exact as exact_module
from burstopt.errors import CapacityError, DomainError

from conftest import random_exp_instance


def enumerate_f_by_budget(values, alpha, k):
    """Minimal f = sum(s_i alpha**l_i) per (final level, rises, level sum)."""
    best = {}
    n = len(values)
    for levels in itertools.product(range(k + 1), repeat=n):
        f = sum(s * alpha ** l for s, l in zip(values, levels))
        prev = 0
        rises = 0
        for l in levels:
            rises += max(l - prev, 0)
            prev = l
        key = (levels[-1], rises, sum(levels))
        if key not in best or f < best[key][0]:
            best[key] = (f, levels)
    return best


def test_table_single_element():
    seq = b.DelaySequence.from_values([3.0])
    table = b.solve_bndburst(seq, 2.0, 1)
    assert table.values[1, 0, 0, 0] == 3.0
    assert table.values[1, 1, 1, 1] == 6.0
    assert not np.isfinite(table.values[1, 1, 0, 0])


def test_table_two_elements():
    seq = b.DelaySequence.from_values([1.0, 1.0])
    table = b.solve_bndburst(seq, 2.0, 1)
    assert table.values[2, 1, 1, 2] == 4.0     # levels (1, 1)
    assert table.values[2, 0, 0, 0] == 2.0     # levels (0, 0)
    assert table.values[2, 1, 1, 1] == 3.0     # levels (0, 1)
    assert table.values[2, 0, 1, 1] == 3.0     # levels (1, 0)


def test_every_finite_cell_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 3))
        vals = rng.uniform(0.2, 5.0, n).tolist()
        alpha = float(rng.uniform(1.1, 3.0))
        seq = b.DelaySequence.from_values(vals)
        table = b.solve_bndburst(seq, alpha, k)
        oracle = enumerate_f_by_budget(vals, alpha, k)
        for j in range(k + 1):
            for a in range(table.rise_cap + 1):
                for m in range(table.sum_cap + 1):
                    cell = table.values[n, j, a, m]
                    if (j, a, m) in oracle:
                        assert cell == pytest.approx(oracle[(j, a, m)][0], rel=1e-12)
                        levels = b.reconstruct(table, j, a, m)
                        got = sum(s * alpha ** l for s, l in zip(vals, levels))
                        assert got == pytest.approx(cell, rel=1e-12)
                    else:
                        assert not np.isfinite(cell)


def test_reconstructed_budgets_within_caps():
    rng = np.random.default_rng(22)
    for _ in range(20):
        seq, params = random_exp_instance(rng, max_n=8, min_n=1, low=0.2)
        k = max(params.k, 1)
        alpha = max(params.alpha, 1.1)
        sol = b.solve_exp_alpha_exact(seq, alpha, params.gamma, k)
        n = seq.n
        assert sol.levels.rises() <= k * (n + 1) / 2
        assert sol.levels.total() <= k * n
        assert sol.diagnostics["rises"] == sol.levels.rises()
        assert sol.diagnostics["level_sum"] == sol.levels.total()


def test_constant_sequence_flat_closed_form():
    for c in (0.5, 2.0, 7.0):
        seq = b.DelaySequence.from_values([c] * 5)
        sol = b.solve_exp_alpha_exact(seq, 2.0, 1.0, 2)
        assert sol.levels.levels == (0,) * 5
        assert sol.beta == pytest.approx(1 / c, rel=1e-12)
        assert sol.score == pytest.approx(5 * (1 + math.log(c)), rel=1e-12)


def test_beta_is_exactly_stationary():
    rng = np.random.default_rng(23)
    for _ in range(20):
        seq, params = random_exp_instance(rng, min_n=2, low=0.2)
        alpha = max(params.alpha, 1.1)
        k = max(params.k, 1)
        sol = b.solve_exp_alpha_exact(seq, alpha, params.gamma, k)
        assert sol.beta == b.refit_beta(seq, sol.levels, alpha)


def test_score_consistent_with_score_total():
    rng = np.random.default_rng(24)
    for _ in range(20):
        seq, params = random_exp_instance(rng, min_n=2, low=0.2)
        alpha = max(params.alpha, 1.1)
        k = max(params.k, 1)
        sol = b.solve_exp_alpha_exact(seq, alpha, params.gamma, k)
        recomputed = b.score_total(sol.levels, seq, b.BurstParams(b.EXP, alpha, sol.beta, params.gamma, k))
        assert sol.score == pytest.approx(recomputed, rel=1e-9)
        assert sol.score == pytest.approx(sol.diagnostics["cell_score"], rel=1e-9)


def test_dominates_beta_grid():
    rng = np.random.default_rng(25)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        seq = b.DelaySequence.from_values(rng.uniform(0.1, 10, n).tolist())
        alpha, gamma, k = 2.0, 1.0, 2
        sol = b.solve_exp_alpha_exact(seq, alpha, gamma, k)
        mu = seq.stats.mean
        betas = np.geomspace(1 / (alpha ** k * mu), 1 / mu, 2000)
        grid = b.scan_scores(seq, b.EXP, np.full_like(betas, alpha), betas, gamma, k)
        assert sol.score <= grid.min() + 1e-9 * abs(grid.min())


def test_dominates_scan_solver():
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        seq = b.DelaySequence.from_values(rng.uniform(0.3, 6, n).tolist())
        alpha = float(rng.uniform(1.2, 3.0))
        scan = b.exp_alpha(seq, alpha, 1.0, 2, 0.05)
        exact = b.solve_exp_alpha_exact(seq, alpha, 1.0, 2)
        assert exact.score <= scan.score + 1e-9 * abs(scan.score)


def test_score_curve_never_beats_exact():
    # one larger qualitative check: the whole score-vs-beta curve sits above
    # the exact optimum
    rng = np.random.default_rng(27)
    seq = b.DelaySequence.from_values(rng.uniform(0.2, 4.0, 10).tolist())
    alpha, gamma, k = 2.0, 1.0, 4
    exact = b.solve_exp_alpha_exact(seq, alpha, gamma, k)
    mu = seq.stats.mean
    betas = np.geomspace(1 / (alpha ** k * mu) / 4, 4 / mu, 100)
    curve = b.scan_scores(seq, b.EXP, np.full_like(betas, alpha), betas, gamma, k)
    assert (curve >= exact.score - 1e-9 * abs(exact.score)).all()


def test_rejects_zero_delays_and_bad_alpha():
    seq = b.DelaySequence.from_values([0.0, 2.0])
    with pytest.raises(DomainError):
        b.solve_bndburst(seq, 2.0, 1)
    good = b.DelaySequence.from_values([1.0, 2.0])
    with pytest.raises(DomainError):
        b.solve_bndburst(good, 1.0, 1)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0])
def test_bad_gamma_rejected_before_the_table_is_built(monkeypatch, gamma):
    def no_table(*args, **kwargs):
        raise AssertionError("solve_bndburst ran")
    monkeypatch.setattr(exact_module, "solve_bndburst", no_table)
    seq = b.DelaySequence.from_values([1.0, 2.0, 0.5])
    with pytest.raises(DomainError, match="gamma"):
        b.solve_exp_alpha_exact(seq, 2.0, gamma, 1)


def test_capacity_cap():
    seq = b.DelaySequence.from_values([1.0] * 20)
    with pytest.raises(CapacityError):
        b.solve_exp_alpha_exact(seq, 2.0, 1.0, 1, max_n=8)
