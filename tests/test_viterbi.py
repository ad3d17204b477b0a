"""Dynamic program for fixed parameters, against enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burstopt as b
import reference_dp
from burstopt.errors import DomainError, InfeasibleError
from reference_dp import _row_minima

from conftest import random_exp_instance, random_geo_instance


def test_heavy_penalty_keeps_levels_flat():
    seq = b.DelaySequence.from_values([1.0, 1.0, 1.0, 1.0])
    sol = b.viterbi(seq, b.BurstParams(b.EXP, 2.0, 1.0, 10.0, 2))
    assert sol.levels.levels == (0, 0, 0, 0)
    assert sol.score == pytest.approx(4.0, rel=1e-12)


def test_single_element_all_levels_enumerated():
    seq = b.DelaySequence.from_values([1.0])
    params = b.BurstParams(b.EXP, 2.0, 0.3, 1.0, 3)
    sol = b.viterbi(seq, params)
    by_hand = min(
        (b.score_total([j], seq, params), j) for j in range(4)
    )
    assert sol.score == by_hand[0]
    assert sol.levels.levels == (by_hand[1],)


def test_matches_brute_force_both_families():
    rng = np.random.default_rng(11)
    for trial in range(60):
        seq, params = (random_exp_instance if trial % 2 else random_geo_instance)(rng)
        try:
            dp = b.viterbi(seq, params)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                b.brute_force_viterbi(seq, params)
            continue
        bf = b.brute_force_viterbi(seq, params)
        assert dp.score == pytest.approx(bf.score, rel=1e-9, abs=1e-12)
        assert dp.levels.levels == bf.levels.levels


def test_row_minima_recurrences():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        prev = rng.uniform(-5, 5, m).tolist()
        if rng.random() < 0.3:
            prev[int(rng.integers(0, m))] = math.inf
        unit = float(rng.uniform(0.01, 3))
        down_val, down_arg, up_val, up_arg = _row_minima(prev, unit)
        for j in range(m):
            assert down_val[j] == min(prev[j:])
            assert down_arg[j] == j + prev[j:].index(min(prev[j:]))
            candidates = [prev[x] + (j - x) * unit for x in range(j + 1)]
            assert up_val[j] == min(candidates)
            assert up_arg[j] == candidates.index(min(candidates))
            # structural form of the recurrences
            if j + 1 < m:
                assert down_val[j] == min(prev[j], down_val[j + 1])
            if j > 0:
                assert up_arg[j] in (j, up_arg[j - 1])


def test_cell_update_count_is_n_times_width():
    rng = np.random.default_rng(13)
    for _ in range(20):
        seq, params = random_exp_instance(rng, max_n=30)
        sol = b.viterbi(seq, params)
        assert sol.diagnostics["cell_updates"] == seq.n * (params.k + 1)


def test_score_matches_score_total_of_levels():
    rng = np.random.default_rng(14)
    for trial in range(40):
        seq, params = (random_exp_instance if trial % 2 else random_geo_instance)(rng, max_n=20)
        try:
            sol = b.viterbi(seq, params)
        except InfeasibleError:
            continue
        assert sol.score == pytest.approx(b.score_total(sol.levels, seq, params), rel=1e-9)


def test_backtrace_reaches_the_tabled_minimum():
    rng = np.random.default_rng(15)
    for trial in range(30):
        seq, params = (random_exp_instance if trial % 2 else random_geo_instance)(
            rng, max_n=5, max_k=2)
        table = b.fill_table(seq, params)
        final = table.final
        if not min(final) < math.inf:
            continue
        levels = b.backtrace(table)
        assert b.score_total(levels, seq, params) == min(final)


def test_penalty_weight_monotonicity():
    # raising gamma never lowers the optimal score and never adds rises
    rng = np.random.default_rng(16)
    for _ in range(30):
        seq, params = random_exp_instance(rng, max_n=15, max_k=2)
        gammas = sorted(rng.uniform(0.05, 4, 3))
        scores, rises = [], []
        for g in gammas:
            sol = b.viterbi(seq, b.BurstParams(b.EXP, params.alpha, params.beta, float(g), params.k))
            scores.append(sol.score)
            rises.append(sol.levels.rises())
        assert scores == sorted(scores)
        assert rises == sorted(rises, reverse=True)


def test_infeasible_geo_raises():
    seq = b.DelaySequence.from_values([1, 2])
    with pytest.raises(InfeasibleError):
        b.viterbi(seq, b.BurstParams(b.GEO, 0.5, 0.0, 1.0, 2))


def test_geo_requires_integer_delays():
    seq = b.DelaySequence.from_values([1.5, 2.0])
    with pytest.raises(DomainError):
        b.viterbi(seq, b.BurstParams(b.GEO, 0.5, 0.5, 1.0, 1))


def test_alpha_one_collapses_to_flat():
    seq = b.DelaySequence.from_values([0.5, 3.0, 1.0, 2.0])
    sol = b.viterbi(seq, b.BurstParams(b.EXP, 1.0, 0.8, 1.0, 3))
    assert sol.levels.levels == (0, 0, 0, 0)


def test_tie_break_prefers_smaller_levels():
    # n = 1 and k >= 1 with log(1) = 0 penalty: all levels tie when alpha = 1
    seq = b.DelaySequence.from_values([2.0])
    sol = b.viterbi(seq, b.BurstParams(b.EXP, 1.0, 0.5, 1.0, 3))
    assert sol.levels.levels == (0,)


def test_brute_force_guard():
    seq = b.DelaySequence.from_values([1.0] * 30)
    with pytest.raises(b.CapacityError):
        b.brute_force_viterbi(seq, b.BurstParams(b.EXP, 2.0, 1.0, 1.0, 2))


def _same_as_reference(seq, params):
    """The kernel and the loop-version reference agree bit for bit, or both find no finite score.

    Every back-pointer must match too, so a changed tie-break shows even in
    cells that no returned level sequence passes through.
    """
    table = b.fill_table(seq, params)
    expected_table = reference_dp.fill_table(seq, params)
    assert table.final == expected_table.scores[-1]
    assert list(table.back) == [pred for row in expected_table.back[1:] for pred in row]
    try:
        expected = reference_dp.viterbi(seq, params)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            b.viterbi(seq, params)
        return
    sol = b.viterbi(seq, params)
    assert sol.levels.levels == expected.levels.levels
    assert sol.score == expected.score
    assert sol.diagnostics == expected.diagnostics


# gamma = 5e-324 makes every rise cost less than one rounding step of the
# scores, so predecessor levels tie and each tie-break decides the result
_gammas = st.one_of(st.just(5e-324), st.floats(0.01, 3.0))
_delay_lists = st.integers(1, 60).flatmap(lambda n: st.lists(st.integers(0, 8), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(delays=_delay_lists, k=st.integers(0, 6),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       gamma=_gammas)
def test_kernel_matches_reference_geo(delays, k, alpha, beta, gamma):
    # beta = 0 or alpha = 0 puts rate 0 on some levels: cells, rows or the whole table go infinite
    seq = b.DelaySequence.from_values(delays)
    _same_as_reference(seq, b.BurstParams(b.GEO, alpha, beta, gamma, k))


@settings(max_examples=300, deadline=None)
@given(delays=st.integers(1, 60).flatmap(
           lambda n: st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n)),
       k=st.integers(0, 6),
       alpha=st.one_of(st.just(1.0), st.floats(1.0, 6.0)),
       beta=st.floats(0.01, 5.0),
       gamma=_gammas)
def test_kernel_matches_reference_exp(delays, k, alpha, beta, gamma):
    seq = b.DelaySequence.from_values(delays)
    _same_as_reference(seq, b.BurstParams(b.EXP, alpha, beta, gamma, k))


def test_kernel_matches_reference_above_byte_back_pointers():
    # k >= 256 stores predecessor levels in an int array instead of a bytearray
    # the short delays want rate 100, level 463, so they climb to the top level 300
    seq = b.DelaySequence.from_values([1.0] * 5 + [0.01] * 10 + [1.0] * 10)
    params = b.BurstParams(b.EXP, 1.01, 1.0, 0.001, 300)
    table = b.fill_table(seq, params)
    assert not isinstance(table.back, bytearray)
    assert max(table.back) > 255
    _same_as_reference(seq, params)
    assert max(b.viterbi(seq, params).levels) == 300
