"""Exponential-family scans, refit pruning, and their guarantees."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burstopt as b
from burstopt.approx_exp import _skip_range
from burstopt.errors import DomainError

from conftest import random_exp_instance

# the module itself: the package binds the name approx_exp to the function
approx_exp_module = importlib.import_module("burstopt.approx_exp")


def shifted(score: float, psi: float) -> float:
    return score - psi


class TestRefitBeta:
    def test_frozen_example(self):
        seq = b.DelaySequence.from_values([2, 4, 1, 1])
        assert b.refit_beta(seq, [0, 0, 1, 1], 3.0) == pytest.approx(1 / 3, rel=1e-15)

    def test_flat_levels_give_inverse_mean(self):
        seq = b.DelaySequence.from_values([1.0, 3.0, 2.0])
        assert b.refit_beta(seq, [0, 0, 0], 2.0) == pytest.approx(1 / 2.0, rel=1e-12)

    def test_length_mismatch(self):
        seq = b.DelaySequence.from_values([1.0, 2.0])
        with pytest.raises(DomainError):
            b.refit_beta(seq, [0], 2.0)

    def test_is_stationary_point_of_fixed_level_score(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            seq, params = random_exp_instance(rng, min_n=2)
            levels = [int(rng.integers(0, params.k + 1)) for _ in range(seq.n)]
            star = b.refit_beta(seq, levels, params.alpha)
            def at(beta):
                p = b.BurstParams(b.EXP, params.alpha, beta, params.gamma, params.k)
                return b.score_total(levels, seq, p)
            assert at(star) <= at(star * 1.001) + 1e-12
            assert at(star) <= at(star * 0.999) + 1e-12


class TestBetaCandidates:
    def test_first_candidate_is_inverse_mean(self):
        cands = b.beta_candidates(2.5, 2.0, 2, 0.1)
        assert cands[0] == 1 / 2.5

    def test_decreasing_and_spans_range(self):
        mu, alpha, k, eps = 1.7, 2.0, 3, 0.25
        cands = b.beta_candidates(mu, alpha, k, eps)
        assert all(x > y for x, y in zip(cands, cands[1:]))
        assert cands[-1] >= 1 / (alpha ** k * mu)
        assert cands[-1] / (1 + eps) < 1 / (alpha ** k * mu)

    def test_count_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            mu = float(rng.uniform(0.1, 10))
            alpha = float(rng.uniform(1.0, 5.0))
            k = int(rng.integers(0, 6))
            eps = float(rng.uniform(0.01, 1.0))
            t = len(b.beta_candidates(mu, alpha, k, eps))
            assert t <= math.ceil(k * math.log(alpha) / math.log(1 + eps)) + 1

    def test_overflowing_alpha_power_rejected(self):
        with pytest.raises(DomainError, match="overflow"):
            b.beta_candidates(2.0, 2.0, 2000, 0.1)
        with pytest.raises(DomainError, match="overflow"):
            b.beta_candidates(2.0, 1e300, 2, 0.1)

    def test_steps_are_exact_epsilon_ratios(self):
        # first 1/mu, neighbours a ratio of exactly 1 + eps apart, and the last
        # step the final one that stays at or above 1/(alpha**k mu)
        rng = np.random.default_rng(44)
        for _ in range(200):
            mu = float(rng.uniform(0.1, 10))
            alpha = float(rng.uniform(1.0, 5.0))
            k = int(rng.integers(0, 6))
            eps = float(rng.uniform(0.01, 1.0))
            cands = b.beta_candidates(mu, alpha, k, eps)
            floor = 1 / (alpha ** k * mu)
            assert cands[0] == 1 / mu
            for x, y in zip(cands, cands[1:]):
                assert x / y == pytest.approx(1 + eps, rel=1e-12)
            assert cands[-1] >= floor
            assert cands[-1] / (1 + eps) < floor

    def test_alpha_one_or_k_zero_single_candidate(self):
        assert b.beta_candidates(2.0, 1.0, 4, 0.1) == [0.5]
        assert b.beta_candidates(2.0, 3.0, 0, 0.1) == [0.5]


class TestExpAlpha:
    def test_constant_sequence_recovers_rate(self):
        c = 2.5
        seq = b.DelaySequence.from_values([c] * 5)
        sol = b.exp_alpha(seq, 2.0, 1.0, 2, 0.1)
        assert sol.levels.levels == (0,) * 5
        assert sol.beta == 1 / c
        assert sol.score == pytest.approx(5 * (1 + math.log(c)), rel=1e-12)

    def test_rejects_bad_inputs(self):
        seq = b.DelaySequence.from_values([1.0, 2.0])
        with pytest.raises(DomainError):
            b.exp_alpha(b.DelaySequence.from_values([0.0, 1.0]), 2.0, 1.0, 1, 0.1)
        with pytest.raises(DomainError):
            b.exp_alpha(seq, 0.5, 1.0, 1, 0.1)
        with pytest.raises(DomainError):
            b.exp_alpha(seq, 2.0, 1.0, 1, 0.0)
        with pytest.raises(DomainError):
            b.exp_alpha(seq, 2.0, 0.0, 1, 0.1)

    @pytest.mark.parametrize("scan", ["exp_alpha", "prune_scan", "approx_exp"])
    @pytest.mark.parametrize("gamma, epsilon", [(1.0, math.nan), (1.0, math.inf),
                                                (math.nan, 0.1), (math.inf, 0.1)])
    def test_rejects_non_finite_epsilon_and_gamma(self, scan, gamma, epsilon):
        seq = b.DelaySequence.from_values([1.0, 2.0, 0.5])
        args = (gamma, 2, epsilon) if scan == "approx_exp" else (2.0, gamma, 2, epsilon)
        with pytest.raises(DomainError, match="gamma" if epsilon == 0.1 else "epsilon"):
            getattr(b, scan)(seq, *args)

    @pytest.mark.parametrize("scan", ["exp_alpha", "prune_scan", "approx_exp"])
    @pytest.mark.parametrize("epsilon", [1e-17, 1e-16])
    def test_rejects_epsilon_lost_next_to_one(self, scan, epsilon):
        # 1 + eps == 1 used to make the candidate list repeat one value without end
        seq = b.DelaySequence.from_values([1.0, 2.0, 0.5])
        args = (1.0, 2, epsilon) if scan == "approx_exp" else (2.0, 1.0, 2, epsilon)
        with pytest.raises(DomainError, match="epsilon"):
            getattr(b, scan)(seq, *args)

    def test_call_count_bound(self):
        rng = np.random.default_rng(43)
        for eps in (0.05, 0.5):
            for _ in range(15):
                seq, params = random_exp_instance(rng)
                sol = b.exp_alpha(seq, params.alpha, params.gamma, params.k, eps)
                bound = math.ceil(params.k * math.log(params.alpha) / math.log(1 + eps)) + 1
                assert sol.viterbi_calls <= bound

    def test_shifted_guarantee_against_exact(self):
        rng = np.random.default_rng(44)
        for eps in (0.05, 0.5):
            for _ in range(12):
                seq, params = random_exp_instance(rng, min_n=2, max_k=2)
                alpha = max(params.alpha, 1.0 + 1e-9)
                sol = b.exp_alpha(seq, alpha, params.gamma, params.k, eps)
                opt = b.solve_exp_alpha_exact(seq, alpha, params.gamma, params.k).score
                psi = seq.stats.psi
                assert shifted(sol.score, psi) <= (1 + eps) * shifted(opt, psi) + 1e-9

    def test_exact_optimum_beta_in_scan_range(self):
        rng = np.random.default_rng(45)
        for _ in range(12):
            seq, params = random_exp_instance(rng, min_n=2)
            alpha = max(params.alpha, 1.0 + 1e-9)
            exact = b.solve_exp_alpha_exact(seq, alpha, params.gamma, params.k)
            mu = seq.stats.mean
            lo = 1 / (alpha ** params.k * mu)
            hi = 1 / mu
            assert lo * (1 - 1e-12) <= exact.beta <= hi * (1 + 1e-12)


def stride_loop_order(t: int) -> list[int]:
    # the stride-pass loop traversal_order replaced, kept as its reference
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


class TestTraversalOrder:
    def test_matches_stride_loop(self):
        for t in range(2000):
            assert b.traversal_order(t) == stride_loop_order(t), t

    def test_frozen_example(self):
        assert b.traversal_order(7) == [0, 4, 2, 6, 1, 3, 5]

    def test_small_sizes(self):
        assert b.traversal_order(0) == []
        assert b.traversal_order(1) == [0]
        assert b.traversal_order(2) == [0, 1]
        assert b.traversal_order(8) == [0, 4, 2, 6, 1, 3, 5, 7]

    def test_is_permutation_starting_at_zero(self):
        for t in range(1, 60):
            order = b.traversal_order(t)
            assert sorted(order) == list(range(t))
            assert order[0] == 0
            if t > 1:
                # the first stride jump lands on the largest power of two < t
                stride = 1
                while stride * 2 < t:
                    stride *= 2
                assert order[1] == stride


@st.composite
def skip_cases(draw):
    cands = sorted(draw(st.lists(st.floats(1e-6, 1e6), unique=True, max_size=40)), reverse=True)
    bound = st.floats(1e-7, 2e6)
    if cands:
        bound = st.one_of(st.sampled_from(cands), bound)
    lo = draw(bound)
    hi = draw(st.one_of(st.just(lo), bound))
    return cands, min(lo, hi), max(lo, hi)


class TestSkipRange:
    @settings(max_examples=500, deadline=None)
    @given(skip_cases())
    def test_is_the_open_interval(self, case):
        cands, lo, hi = case
        assert list(_skip_range(cands, lo, hi)) == [j for j, c in enumerate(cands) if lo < c < hi]

    def test_endpoints_on_candidates_are_excluded(self):
        cands = [8.0, 4.0, 2.0, 1.0, 0.5]
        assert _skip_range(cands, 1.0, 8.0) == range(1, 3)
        assert _skip_range(cands, 2.0, 2.0) == range(2, 2)
        assert _skip_range(cands, 0.7, 3.0) == range(2, 4)
        assert _skip_range(cands, 0.1, 9.0) == range(0, 5)


class TestPruneScan:
    def test_matches_plain_scan(self):
        rng = np.random.default_rng(46)
        for eps in (0.05, 0.4):
            for _ in range(15):
                seq, params = random_exp_instance(rng, min_n=2, max_n=12)
                alpha = max(params.alpha, 1.0 + 1e-9)
                plain = b.exp_alpha(seq, alpha, params.gamma, params.k, eps)
                pruned = b.prune_scan(seq, alpha, params.gamma, params.k, eps)
                assert pruned.score == plain.score
                assert pruned.diagnostics["tested"] <= plain.diagnostics["tested"]
                assert (pruned.diagnostics["tested"]
                        + len(pruned.diagnostics["skipped_indices"])
                        <= pruned.diagnostics["beta_candidates"])

    def test_prune_flag_routes_through_exp_alpha(self):
        seq = b.DelaySequence.from_values([0.5, 4.0, 0.2, 1.1, 2.2])
        via_flag = b.exp_alpha(seq, 2.0, 1.0, 2, 0.05, prune=True)
        direct = b.prune_scan(seq, 2.0, 1.0, 2, 0.05)
        assert via_flag.score == direct.score
        assert via_flag.viterbi_calls == direct.viterbi_calls

    def test_no_skipped_candidate_beats_best(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            seq, params = random_exp_instance(rng, min_n=3, max_n=10)
            alpha = max(params.alpha, 1.0 + 1e-9)
            sol = b.prune_scan(seq, alpha, params.gamma, params.k, 0.05)
            cands = b.beta_candidates(seq.stats.mean, alpha, params.k, 0.05)
            for idx in sol.diagnostics["skipped_indices"]:
                forced = b.viterbi(seq, b.BurstParams(b.EXP, alpha, cands[idx],
                                                      params.gamma, params.k))
                assert forced.score >= sol.score - 1e-9 * abs(sol.score)


class TestApproxExp:
    def test_constant_sequence_is_flat(self):
        seq = b.DelaySequence.from_values([1.5] * 4)
        sol = b.approx_exp(seq, 1.0, 2, 0.1)
        assert sol.levels.levels == (0,) * 4
        assert sol.alpha == 1.0
        assert sol.diagnostics["alpha_candidates"] == 1

    def test_k_zero_uses_single_flat_scan(self):
        seq = b.DelaySequence.from_values([0.7, 2.0, 1.2])
        sol = b.approx_exp(seq, 1.0, 0, 0.1)
        assert sol.levels.levels == (0, 0, 0)
        assert sol.alpha == 1.0
        # the same path as k > 0: one alpha, scanned with the full eps
        plain = b.exp_alpha(seq, 1.0, 1.0, 0, 0.1)
        assert (sol.score, sol.beta, sol.viterbi_calls) == (plain.score, plain.beta,
                                                            plain.viterbi_calls)
        assert sol.diagnostics == {"alpha_candidates": 1}

    def test_shifted_guarantee_against_joint_grid(self):
        rng = np.random.default_rng(48)
        for eps in (0.1, 0.5):
            for _ in range(8):
                seq, params = random_exp_instance(rng, min_n=2, max_k=2, min_k=1)
                sol = b.approx_exp(seq, params.gamma, params.k, eps)
                opt = b.grid_opt(seq, b.EXP, params.gamma, params.k)
                psi = seq.stats.psi
                assert shifted(sol.score, psi) <= (1 + eps) * shifted(opt, psi) + 1e-9

    def test_outer_candidate_bound(self):
        rng = np.random.default_rng(49)
        for eps in (0.1, 0.5):
            for _ in range(10):
                seq, params = random_exp_instance(rng, min_n=2, min_k=1)
                sol = b.approx_exp(seq, params.gamma, params.k, eps)
                stats = seq.stats
                ratio = stats.maximum / stats.minimum
                bound = 2 * params.k * math.log(ratio) / math.log(1 + eps) + 1
                assert sol.diagnostics["alpha_candidates"] <= bound + 1e-9

    @pytest.mark.parametrize("values, k, epsilon", [([0.3, 2.0, 9.0], 1, 0.05), ([1.0, 40.0], 3, 0.5),
                                                     ([0.01, 5.0, 7.0], 2, 0.2), ([2.0, 2.5], 4, 3.0)])
    def test_alpha_grid_steps(self, monkeypatch, values, k, epsilon):
        # the grid max(s)/min(s), then down by (1 + eps)**(1/2k) while >= 1,
        # each alpha scanned once with eps / 2
        seq = b.DelaySequence.from_values(values)
        seen = []

        def record(seq, alpha, gamma, k, eps, prune=False):
            seen.append((alpha, eps))
            return b.Solution(b.LevelSequence((0,) * seq.n, k), alpha, 1.0, 0.0, viterbi_calls=1)

        monkeypatch.setattr(approx_exp_module, "exp_alpha", record)
        sol = b.approx_exp(seq, 1.0, k, epsilon)
        alphas = [alpha for alpha, _ in seen]
        step = (1 + epsilon) ** (1 / (2 * k))
        assert alphas[0] == max(values) / min(values)
        assert all(eps == epsilon / 2 for _, eps in seen)
        for prev, cur in zip(alphas, alphas[1:]):
            assert prev / cur == pytest.approx(step, rel=1e-12)
        assert alphas[-1] >= 1 > alphas[-1] / step
        assert sol.diagnostics["alpha_candidates"] == sol.viterbi_calls == len(alphas)

    def test_overflowing_top_alpha_fails_before_its_grid_is_built(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a schedule was built")

        monkeypatch.setattr(approx_exp_module, "_descending", no_grid)
        seq = b.DelaySequence.from_values([1.0, 2.0, 0.5, 3.0, 0.2])
        with pytest.raises(DomainError, match="overflow"):
            b.approx_exp(seq, 1.0, 2000, 1e-9)

    def test_prune_flag_preserves_score(self):
        seq = b.DelaySequence.from_values([3.0, 0.4, 0.5, 2.8, 2.9, 0.3])
        plain = b.approx_exp(seq, 1.0, 2, 0.2)
        pruned = b.approx_exp(seq, 1.0, 2, 0.2, prune=True)
        assert pruned.score == plain.score
        assert pruned.viterbi_calls <= plain.viterbi_calls


class TestRefitMonotone:
    def test_refit_nondecreasing_along_beta(self):
        rng = np.random.default_rng(50)
        for _ in range(8):
            seq, params = random_exp_instance(rng, min_n=2, max_n=8, min_k=1)
            alpha = max(params.alpha, 1.0 + 1e-9)
            mu = seq.stats.mean
            betas = np.geomspace(1 / (alpha ** params.k * mu), 1 / mu, 400)
            refits = []
            for beta in betas:
                sol = b.viterbi(seq, b.BurstParams(b.EXP, alpha, float(beta),
                                                   params.gamma, params.k))
                refits.append(b.refit_beta(seq, sol.levels, alpha))
            for lo, hi in zip(refits, refits[1:]):
                assert hi >= lo * (1 - 1e-12)


class TestBurstRecovery:
    def test_planted_burst_overlap(self):
        hits = 0
        for trial in range(30):
            spec = b.PlantSpec(n=500, burst_start=100, burst_end=400,
                               base_rate=0.5, burst_rate=1.0, seed=(99, trial))
            seq, truth = b.generate(spec)
            sol = b.exp_alpha(seq, 2.0, 1.0, 1, 0.05)
            if b.overlap_fraction(sol.levels, truth) >= 0.8:
                hits += 1
        assert hits >= 27
