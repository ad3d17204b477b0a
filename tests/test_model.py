"""Scoring primitives and domain types."""

import math

import numpy as np
import pytest

import burstopt as b
from burstopt.errors import DomainError
from burstopt.model import best_of


class TestNegLoglikExp:
    def test_known_values(self):
        assert b.neg_loglik_exp(2.5, 0.4) == pytest.approx(1.916290731874155, rel=1e-12)
        # lam = 1/s is the pointwise minimizer: value 1 + log s
        assert b.neg_loglik_exp(4.0, 0.25) == pytest.approx(1 + math.log(4), rel=1e-12)
        # rates above e make the log term negative
        assert b.neg_loglik_exp(0.0, 5.0) == pytest.approx(-math.log(5.0), rel=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            b.neg_loglik_exp(1.0, 0.0)
        with pytest.raises(DomainError):
            b.neg_loglik_exp(1.0, -2.0)

    def test_pointwise_minimum_at_reciprocal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = float(rng.uniform(0.1, 10))
            best = b.neg_loglik_exp(s, 1 / s)
            for lam in rng.uniform(0.01, 10, 20):
                assert b.neg_loglik_exp(s, float(lam)) >= best - 1e-12


class TestNegLoglikGeo:
    def test_known_values(self):
        assert b.neg_loglik_geo(1, 0.5) == pytest.approx(2 * math.log(2), rel=1e-12)
        assert b.neg_loglik_geo(0, 0.5) == pytest.approx(math.log(2), rel=1e-12)
        assert b.neg_loglik_geo(3, 0.25) == pytest.approx(-math.log(0.75) - 3 * math.log(0.25), rel=1e-12)

    def test_zero_rate_conventions(self):
        assert b.neg_loglik_geo(0, 0.0) == 0.0
        assert b.neg_loglik_geo(5, 0.0) == math.inf

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            b.neg_loglik_geo(1, 1.0)
        with pytest.raises(DomainError):
            b.neg_loglik_geo(1, -0.1)
        with pytest.raises(DomainError):
            b.neg_loglik_geo(1.5, 0.5)
        with pytest.raises(DomainError):
            b.neg_loglik_geo(-1, 0.5)

    def test_always_nonnegative(self):
        # geometric probabilities never exceed 1
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = int(rng.integers(0, 20))
            lam = float(rng.uniform(0, 1))
            assert b.neg_loglik_geo(s, lam) >= 0.0


class TestPenalty:
    def test_known_values(self):
        assert b.penalty(1, 3, 0.5, 500) == pytest.approx(math.log(500), rel=1e-12)
        assert b.penalty(3, 1, 0.5, 500) == 0.0
        assert b.penalty(2, 2, 1.0, 10) == 0.0
        assert b.penalty(0, 1, 2.0, 100) == pytest.approx(2 * math.log(100), rel=1e-12)

    def test_nonnegative_and_zero_iff_no_rise(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            x = int(rng.integers(0, 6))
            y = int(rng.integers(0, 6))
            gamma = float(rng.uniform(0.01, 5))
            n = int(rng.integers(2, 1000))
            p = b.penalty(x, y, gamma, n)
            assert p >= 0.0
            assert (p == 0.0) == (y <= x)

    def test_n_one_is_free(self):
        assert b.penalty(0, 3, 2.0, 1) == 0.0


class TestSequenceStats:
    def test_known_values(self):
        stats = b.DelaySequence.from_values([1.0, 2.0, 4.0]).stats
        assert stats.mean == pytest.approx(7 / 3, rel=1e-12)
        assert stats.geo_mean == pytest.approx(2.0, rel=1e-12)
        assert stats.maximum == 4.0
        assert stats.minimum == 1.0
        assert stats.psi == pytest.approx(3 * math.log(2), rel=1e-12)

    def test_zero_delay_undefines_geo_mean(self):
        stats = b.DelaySequence.from_values([0.0, 2.0]).stats
        assert stats.geo_mean is None
        assert stats.psi is None
        assert stats.mean == 1.0

    def test_am_gm_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            vals = rng.uniform(0.1, 10, int(rng.integers(1, 12))).tolist()
            stats = b.DelaySequence.from_values(vals).stats
            assert stats.minimum <= stats.geo_mean * (1 + 1e-12)
            assert stats.geo_mean <= stats.mean * (1 + 1e-12)
            assert stats.mean <= stats.maximum * (1 + 1e-12)

    def test_cached_stats_match_recomputation(self):
        seq = b.DelaySequence.from_values([3.0, 1.0, 4.0, 1.0, 5.0])
        first = seq.stats
        assert first is seq.stats  # cached
        assert first == b.sequence_stats(seq)


class TestDelaySequence:
    def test_kind_detection(self):
        assert b.DelaySequence.from_values([1, 2, 3]).kind == "integer"
        assert b.DelaySequence.from_values([1.0, 2.5]).kind == "real"

    def test_rejects_empty_and_negative(self):
        with pytest.raises(DomainError):
            b.DelaySequence.from_values([])
        with pytest.raises(DomainError):
            b.DelaySequence.from_values([-1.0])
        with pytest.raises(DomainError):
            b.DelaySequence.from_values([math.inf])

    def test_integer_kind_enforced(self):
        with pytest.raises(DomainError):
            b.DelaySequence((1.5,), "integer")


class TestLevelSequence:
    def test_bounds_enforced(self):
        with pytest.raises(DomainError):
            b.LevelSequence((0, 3), 2)
        with pytest.raises(DomainError):
            b.LevelSequence((-1,), 2)

    def test_normalizes_like_the_checked_loop(self):
        # plain ints take the fast path; other integral values are converted
        assert b.LevelSequence([0, 2, 1], 2).levels == (0, 2, 1)
        assert b.LevelSequence((), 0).levels == ()
        mixed = b.LevelSequence((True, 2.0, np.int64(1)), 2)
        assert mixed.levels == (1, 2, 1)
        assert set(map(type, mixed.levels)) == {int}
        with pytest.raises(DomainError):
            b.LevelSequence((0, 1.5), 2)
        with pytest.raises(DomainError):
            b.LevelSequence((np.int64(3),), 2)

    def test_rises_counts_implicit_start(self):
        assert b.LevelSequence((2, 1, 3), 3).rises() == 4
        assert b.LevelSequence((0, 0), 1).rises() == 0
        assert b.LevelSequence((1, 0, 1), 1).rises() == 2


class TestBurstParams:
    def test_family_ranges(self):
        b.BurstParams(b.EXP, 1.0, 0.5, 1.0, 2)  # alpha = 1 allowed for scans
        with pytest.raises(DomainError):
            b.BurstParams(b.EXP, 0.9, 0.5, 1.0, 2)
        with pytest.raises(DomainError):
            b.BurstParams(b.EXP, 2.0, 0.0, 1.0, 2)
        b.BurstParams(b.GEO, 0.0, 0.0, 1.0, 2)
        with pytest.raises(DomainError):
            b.BurstParams(b.GEO, 1.0, 0.5, 1.0, 2)
        with pytest.raises(DomainError):
            b.BurstParams(b.GEO, 0.5, 1.0, 1.0, 2)

    def test_exp_top_rate_must_be_finite(self):
        # 2.0**2000 overflows; 1e300 * 1e10 rounds to inf
        with pytest.raises(DomainError, match="top rate"):
            b.BurstParams(b.EXP, 2.0, 0.5, 1.0, 2000)
        with pytest.raises(DomainError, match="top rate"):
            b.BurstParams(b.EXP, 1e10, 1e300, 1.0, 1)
        b.BurstParams(b.EXP, 2.0, 0.5, 1.0, 1000)
        b.BurstParams(b.GEO, 0.5, 0.5, 1.0, 2000)  # geometric rates only shrink

    def test_rate_level_zero_is_beta_even_for_alpha_zero(self):
        params = b.BurstParams(b.GEO, 0.0, 0.7, 1.0, 2)
        assert params.rate(0) == 0.7
        assert params.rate(1) == 0.0

    def test_gamma_and_k_validated(self):
        with pytest.raises(DomainError):
            b.BurstParams(b.EXP, 2.0, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            b.BurstParams(b.EXP, 2.0, 1.0, 1.0, -1)


class TestBestOf:
    @staticmethod
    def sol(score, alpha, beta, calls):
        return b.Solution(b.LevelSequence((0,), 1), alpha, beta, score, viterbi_calls=calls)

    def test_equal_scores_go_to_the_smaller_parameter_in_either_order(self):
        low, high = self.sol(1.5, 3.0, 0.2, 2), self.sol(1.5, 2.0, 0.4, 5)
        for by, winner in (("beta", low), ("alpha", high)):
            for sols in ([low, high], [high, low]):
                best = best_of(iter(sols), by)
                assert (best.alpha, best.beta, best.score) == (winner.alpha, winner.beta, 1.5)
                assert best.viterbi_calls == 7

    def test_lower_score_wins_over_smaller_parameter(self):
        sols = [self.sol(2.0, 1.0, 0.1, 1), self.sol(1.0, 4.0, 0.9, 1), self.sol(3.0, 1.0, 0.05, 1)]
        best = best_of(sols, "beta")
        assert (best.score, best.beta, best.viterbi_calls) == (1.0, 0.9, 3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            best_of([], "beta")


class TestScoreTotal:
    def test_known_values(self):
        seq = b.DelaySequence.from_values([2, 2, 2])
        params = b.BurstParams(b.GEO, 0.5, 0.5, 1.0, 1)
        assert b.score_total([0, 0, 0], seq, params) == pytest.approx(9 * math.log(2), rel=1e-12)

        seq2 = b.DelaySequence.from_values([1.0, 1.0])
        params2 = b.BurstParams(b.EXP, 2.0, 1.0, 1.0, 1)
        assert b.score_total([0, 1], seq2, params2) == pytest.approx(3.0, rel=1e-12)

    def test_infinite_for_impossible_geo_assignment(self):
        seq = b.DelaySequence.from_values([2, 0])
        params = b.BurstParams(b.GEO, 0.0, 0.5, 1.0, 1)
        assert b.score_total([1, 0], seq, params) == math.inf
        assert math.isfinite(b.score_total([0, 1], seq, params))

    def test_length_mismatch_rejected(self):
        seq = b.DelaySequence.from_values([1.0, 2.0])
        params = b.BurstParams(b.EXP, 2.0, 1.0, 1.0, 1)
        with pytest.raises(DomainError):
            b.score_total([0], seq, params)

    def test_streaming_matches_pairwise_summation(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(0, 4))
            seq = b.DelaySequence.from_values(rng.uniform(0.1, 5, n).tolist())
            params = b.BurstParams(b.EXP, float(rng.uniform(1, 3)), float(rng.uniform(0.1, 2)),
                                   float(rng.uniform(0.1, 2)), k)
            levels = [int(v) for v in rng.integers(0, k + 1, n)]
            streamed = b.score_total(levels, seq, params)
            terms = []
            prev = 0
            for s, lev in zip(seq.values, levels):
                terms.append(b.penalty(prev, lev, params.gamma, n))
                terms.append(b.neg_loglik_exp(s, params.rate(lev)))
                prev = lev
            assert streamed == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_appending_same_level_costs_no_transition(self):
        assert b.penalty(2, 2, 1.5, 50) == 0.0
        # with no rises anywhere, the score is exactly the likelihood sum,
        # so one more flat element adds exactly its own likelihood term
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            vals = rng.uniform(0.1, 5, n + 1).tolist()
            params = b.BurstParams(b.EXP, 2.0, float(rng.uniform(0.1, 2)), 1.0, 2)
            short = b.DelaySequence.from_values(vals[:-1])
            longer = b.DelaySequence.from_values(vals)
            flat_short = b.score_total([0] * n, short, params)
            flat_long = b.score_total([0] * (n + 1), longer, params)
            assert flat_long - flat_short == pytest.approx(
                b.neg_loglik_exp(vals[-1], params.beta), rel=1e-12)

    def test_refit_shift_lower_bound(self):
        # with the stationary beta for any fixed levels, the score stays
        # above n * log(geometric mean) + n
        import itertools
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            k = 2
            seq = b.DelaySequence.from_values(rng.uniform(0.2, 5, n).tolist())
            alpha = float(rng.uniform(1.1, 3))
            psi = seq.stats.psi
            for levels in itertools.product(range(k + 1), repeat=n):
                beta = b.refit_beta(seq, levels, alpha)
                params = b.BurstParams(b.EXP, alpha, beta, 1.0, k)
                score = b.score_total(levels, seq, params)
                assert score - psi >= n - 1e-9
