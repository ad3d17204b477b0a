"""Geometric-family scans and their guarantees."""

import importlib
import itertools
import math

import numpy as np
import pytest

import burstopt as b
from burstopt.approx_geo import _ascending_powers, beta_schedule
from burstopt.errors import DomainError

from conftest import random_positive_geo_seq

# the module itself: the package binds the name approx_geo to the function
approx_geo_module = importlib.import_module("burstopt.approx_geo")


def geo_scan_length(mu: float, n: int, epsilon: float) -> int:
    # closed form for the plain schedule base**(1/(1+eps)**j) while <= stop
    base = mu / (mu + 1)
    stop = mu / (mu + 1 / n)
    if base > stop:
        return 0
    return math.floor(math.log(math.log(base) / math.log(stop), 1 + epsilon)) + 1


def doubly_log_cap(n: int, epsilon: float) -> int:
    # the cap the acceptance gate asserts for the base-rate scan
    return math.ceil((math.log(math.log(n + 1)) - math.log(math.log(2))) / math.log(1 + epsilon)) + 1


class TestScanSchedule:
    # approx_geo's alpha grid
    def test_candidates_increase_toward_stop(self):
        values = _ascending_powers(base=0.5, stop=0.9, ratio=1.1)
        assert values[0] == 0.5
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(v <= 0.9 for v in values)
        # the next candidate after the last would overshoot
        assert values[-1] ** (1 / 1.1) > 0.9 or values[-1] == 0.9

    def test_empty_when_base_beyond_stop(self):
        assert _ascending_powers(base=0.5, stop=0.4, ratio=1.1) == []


class TestGeoAlpha:
    def test_all_zero_delays_short_circuit(self):
        seq = b.DelaySequence.from_values([0, 0, 0])
        sol = b.geo_alpha(seq, 0.3, 1.0, 2, 0.1)
        assert sol.levels.levels == (0, 0, 0)
        assert sol.beta == 0.0
        assert sol.score == 0.0
        assert sol.viterbi_calls == 0

    def test_single_element_scans_once(self):
        seq = b.DelaySequence.from_values([1])
        sol = b.geo_alpha(seq, 0.0, 1.0, 1, 0.1)
        assert sol.viterbi_calls == 1
        assert sol.beta == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_inputs(self):
        seq = b.DelaySequence.from_values([1.5, 2.0])
        with pytest.raises(DomainError):
            b.geo_alpha(seq, 0.5, 1.0, 1, 0.1)
        good = b.DelaySequence.from_values([1, 2])
        with pytest.raises(DomainError):
            b.geo_alpha(good, 1.0, 1.0, 1, 0.1)
        with pytest.raises(DomainError):
            b.geo_alpha(good, 0.5, 1.0, 1, 0.0)

    @pytest.mark.parametrize("scan", ["geo_alpha", "approx_geo"])
    @pytest.mark.parametrize("gamma, epsilon", [(1.0, math.nan), (1.0, math.inf),
                                                (math.nan, 0.1), (math.inf, 0.1)])
    def test_rejects_non_finite_epsilon_and_gamma(self, scan, gamma, epsilon):
        # a nan epsilon used to make the beta schedule grow without end
        seq = b.DelaySequence.from_values([1, 2, 0, 4])
        args = (gamma, 2, epsilon) if scan == "approx_geo" else (0.5, gamma, 2, epsilon)
        with pytest.raises(DomainError, match="gamma" if epsilon == 0.1 else "epsilon"):
            getattr(b, scan)(seq, *args)

    @pytest.mark.parametrize("scan", ["geo_alpha", "approx_geo"])
    @pytest.mark.parametrize("epsilon", [1e-17, 1e-16])
    def test_rejects_epsilon_lost_next_to_one(self, scan, epsilon):
        # 1 + eps == 1 used to make the beta schedule repeat one value without end
        seq = b.DelaySequence.from_values([1, 2, 0, 4])
        args = (1.0, 2, epsilon) if scan == "approx_geo" else (0.5, 1.0, 2, epsilon)
        with pytest.raises(DomainError, match="epsilon"):
            getattr(b, scan)(seq, *args)

    def test_guarantee_against_beta_grid(self):
        rng = np.random.default_rng(31)
        for epsilon in (0.1, 0.5):
            for _ in range(15):
                seq = random_positive_geo_seq(rng)
                alpha = float(rng.uniform(0, 0.95))
                sol = b.geo_alpha(seq, alpha, 1.0, 2, epsilon)
                opt = b.grid_opt(seq, b.GEO, 1.0, 2, alpha=alpha)
                assert sol.score <= (1 + epsilon) * opt + 1e-9

    def test_call_count_matches_schedule_length(self):
        rng = np.random.default_rng(32)
        for epsilon in (0.05, 0.3):
            for _ in range(15):
                seq = random_positive_geo_seq(rng, max_n=40)
                sol = b.geo_alpha(seq, 0.5, 1.0, 2, epsilon)
                mu, n = seq.stats.mean, seq.n
                assert sol.viterbi_calls == len(beta_schedule(mu, n, epsilon))
                # each step is at least the plain step beta**(1/(1+eps))
                assert sol.viterbi_calls <= geo_scan_length(mu, n, epsilon)
                assert sol.viterbi_calls <= doubly_log_cap(n, epsilon)
        # DP-free: the cap holds for every integer delay sum S <= 8n, n <= 40
        for epsilon in (0.05, 0.5):
            for n in range(1, 41):
                cap = doubly_log_cap(n, epsilon)
                for total in range(1, 8 * n + 1):
                    assert len(beta_schedule(total / n, n, epsilon)) <= cap, (n, total, epsilon)

    def test_schedule_is_a_shared_immutable_tuple(self):
        first = beta_schedule(1.5, 30, 0.2)
        assert isinstance(first, tuple)
        assert beta_schedule(1.5, 30, 0.2) is first

    def test_schedule_steps_are_maximal_epsilon_steps(self):
        # consecutive candidates meet (1+eps) log b' - eps g(b') <= log b,
        # the condition behind the (1 + eps) guarantee, with little to spare
        def lhs(beta, epsilon):
            g = (1 - beta) * -math.log1p(-beta) / beta
            return (1 + epsilon) * math.log(beta) - epsilon * g

        for mu, n, epsilon in ((0.05, 40, 0.05), (1.5, 7, 0.5), (3.0, 10_000, 0.1), (20.0, 500, 3.0)):
            betas = beta_schedule(mu, n, epsilon)
            assert betas[0] == mu / (mu + 1)
            assert betas[-1] <= mu / (mu + 1 / n)
            for prev, cur in zip(betas, betas[1:]):
                assert lhs(cur, epsilon) <= math.log(prev) + 1e-12
                assert lhs(cur * (1 + 1e-6), epsilon) > math.log(prev)

    def test_optimal_beta_lies_in_scan_range(self):
        # the schedule's endpoints bracket the stationary optimum
        rng = np.random.default_rng(33)
        for _ in range(10):
            seq = random_positive_geo_seq(rng, max_n=8)
            mu = seq.stats.mean
            n = seq.n
            alpha = float(rng.uniform(0, 0.9))
            wide = np.geomspace(max(mu / (1 + mu) / 50, 1e-6), min(mu / (1 / n + mu) * 50, 0.999999), 4000)
            scores = b.scan_scores(seq, b.GEO, np.full_like(wide, alpha), wide, 1.0, 2)
            best_beta = wide[int(np.argmin(scores))]
            spacing = 1.05  # ratio between neighbouring grid points is < 5%
            assert mu / (1 + mu) / spacing <= best_beta <= mu / (1 / n + mu) * spacing


class TestApproxGeo:
    def test_alpha_zero_wins_when_positive_delays_fit_level_zero(self):
        seq = b.DelaySequence.from_values([0, 0, 5])
        sol = b.approx_geo(seq, 1.0, 1, 0.1)
        assert sol.alpha == 0.0
        # exhaustive check over levels and a dense parameter grid
        best = math.inf
        for levels in itertools.product(range(2), repeat=3):
            for alpha in [0.0] + np.linspace(0.01, 0.99, 60).tolist():
                for beta in np.linspace(0.0, 0.99, 200):
                    params = b.BurstParams(b.GEO, float(alpha), float(beta), 1.0, 1)
                    best = min(best, b.score_total(levels, seq, params))
        assert sol.score <= (1 + 0.1) ** 3 * best + 1e-9

    def test_zero_mean_short_circuits(self):
        seq = b.DelaySequence.from_values([0, 0])
        sol = b.approx_geo(seq, 1.0, 3, 0.2)
        assert sol.score == 0.0
        assert sol.viterbi_calls == 0

    def test_guarantee_against_joint_grid(self):
        rng = np.random.default_rng(34)
        for epsilon in (0.1, 0.5):
            for _ in range(10):
                seq = random_positive_geo_seq(rng)
                sol = b.approx_geo(seq, 1.0, 2, epsilon)
                opt = b.grid_opt(seq, b.GEO, 1.0, 2)
                assert sol.score <= (1 + epsilon) ** 3 * opt + 1e-9

    def test_outer_candidate_bound(self):
        rng = np.random.default_rng(35)
        for epsilon in (0.1, 0.4):
            for _ in range(10):
                seq = random_positive_geo_seq(rng, max_n=30)
                sol = b.approx_geo(seq, 1.0, 2, epsilon)
                n, k = seq.n, 2
                mu = seq.stats.mean
                bound = (math.log(k) + math.log(1 + n * mu) - math.log(epsilon)
                         + math.log(math.log(1 + n * k))) / math.log(1 + epsilon) + 2
                assert sol.diagnostics["alpha_candidates"] <= bound

    @pytest.mark.parametrize("values, k, epsilon", [([1, 0, 3, 2], 1, 0.05), ([5, 9], 3, 0.5),
                                                     ([0, 0, 1] * 20, 2, 0.2), ([4] * 7, 4, 3.0)])
    def test_alpha_grid_steps(self, monkeypatch, values, k, epsilon):
        # alpha = 0, then 1/(1 + nk) ** c for c = 1, 1/(1 + eps), ... while
        # <= sigma**(eps/k), each alpha scanned once with the full eps
        seq = b.DelaySequence.from_values(values)
        seen = []

        def record(seq, alpha, gamma, k, eps):
            seen.append((alpha, eps))
            return b.Solution(b.LevelSequence((0,) * seq.n, k), alpha, 0.5, 0.0, viterbi_calls=1)

        monkeypatch.setattr(approx_geo_module, "geo_alpha", record)
        sol = b.approx_geo(seq, 1.0, k, epsilon)
        alphas = [alpha for alpha, _ in seen]
        n, mu = seq.n, seq.stats.mean
        stop = (mu / (mu + 1 / n)) ** (epsilon / k)
        assert alphas[:2] == [0.0, 1 / (1 + n * k)]
        assert all(eps == epsilon for _, eps in seen)
        for prev, cur in zip(alphas[1:], alphas[2:]):
            assert math.log(cur) / math.log(prev) == pytest.approx(1 / (1 + epsilon), rel=1e-12)
        assert alphas[-1] <= stop < alphas[-1] ** (1 / (1 + epsilon))
        assert sol.diagnostics["alpha_candidates"] == sol.viterbi_calls == len(alphas)

    def test_beta_candidates_count_every_alpha(self):
        # one DP call per beta candidate of every alpha, not only the winner's
        rng = np.random.default_rng(36)
        for _ in range(5):
            seq = random_positive_geo_seq(rng, max_n=20)
            sol = b.approx_geo(seq, 1.0, 1, 0.3)
            assert sol.diagnostics["alpha_candidates"] > 1
            assert sol.diagnostics["beta_candidates"] == sol.viterbi_calls

    def test_k_zero_is_flat(self):
        seq = b.DelaySequence.from_values([2, 3, 1])
        sol = b.approx_geo(seq, 1.0, 0, 0.1)
        assert sol.levels.levels == (0, 0, 0)
        assert sol.alpha == 0.0
