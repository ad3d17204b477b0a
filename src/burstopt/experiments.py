"""Planted-burst benchmark protocols comparing optimized and mean-fit base rates.

Both protocols generate exponential sequences with one centered burst
(base rate 1/2 outside, rate 1 inside), run two methods per trial, and
report the Hamming distance between the fitted and planted levels:

  opt   scan the base rate at fixed alpha (exp_alpha)
  mean  fix the base rate at 1/mean and run the dynamic program once

run_burst_length_experiment varies the burst length at fixed n;
run_sequence_length_experiment varies n with the burst one third of it.
Trial t at setting x seeds the generator with (seed, x, t), so any subset
of settings reproduces identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .approx_exp import exp_alpha
from .errors import DomainError
from .model import EXP, BurstParams
from .synth import PlantSpec, generate, hamming
from .viterbi import viterbi

DEFAULT_BASE_RATE = 0.5
DEFAULT_BURST_RATE = 1.0
DEFAULT_BURST_LENGTHS = (50, 100, 150, 200, 250)
DEFAULT_SEQUENCE_LENGTHS = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500)


@dataclass(frozen=True)
class TrialResult:
    x: int           # the varied quantity: burst length or sequence length
    trial: int
    seed_label: str
    method: str
    n: int
    hamming: int


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")


def _run_trial(n: int, burst_len: int, x: int, trial: int, base_seed: int,
               alpha: float, gamma: float, k: int, epsilon: float,
               base_rate: float, burst_rate: float) -> list[TrialResult]:
    start = (n - burst_len) // 2
    spec = PlantSpec(n=n, burst_start=start, burst_end=start + burst_len,
                     base_rate=base_rate, burst_rate=burst_rate,
                     seed=(base_seed, x, trial))
    seq, truth = generate(spec)
    label = f"{base_seed}:{x}:{trial}"
    out = []
    opt = exp_alpha(seq, alpha, gamma, k, epsilon)
    out.append(TrialResult(x, trial, label, "opt", n, hamming(opt.levels, truth)))
    mean_fit = viterbi(seq, BurstParams(EXP, alpha, 1 / seq.stats.mean, gamma, k))
    out.append(TrialResult(x, trial, label, "mean", n, hamming(mean_fit.levels, truth)))
    return out


def run_burst_length_experiment(burst_lengths: Sequence[int] = DEFAULT_BURST_LENGTHS,
                                trials: int = 100, n: int = 500, seed: int = 0,
                                alpha: float = 2.0, gamma: float = 1.0, k: int = 1,
                                epsilon: float = 0.05,
                                base_rate: float = DEFAULT_BASE_RATE,
                                burst_rate: float = DEFAULT_BURST_RATE) -> list[TrialResult]:
    """Hamming distance vs planted-burst length at fixed sequence length."""
    _check_trials(trials)
    for length in burst_lengths:
        if length > n:
            raise DomainError(f"burst length {length} exceeds n = {n}")
    rows = []
    for length in burst_lengths:
        for trial in range(trials):
            rows.extend(_run_trial(n, length, length, trial, seed, alpha, gamma, k,
                                   epsilon, base_rate, burst_rate))
    return rows


def run_sequence_length_experiment(sequence_lengths: Sequence[int] = DEFAULT_SEQUENCE_LENGTHS,
                                   trials: int = 300, seed: int = 0,
                                   alpha: float = 2.0, gamma: float = 1.0, k: int = 1,
                                   epsilon: float = 0.05,
                                   base_rate: float = DEFAULT_BASE_RATE,
                                   burst_rate: float = DEFAULT_BURST_RATE) -> list[TrialResult]:
    """Hamming distance vs sequence length, with the burst one third of it."""
    _check_trials(trials)
    rows = []
    for n in sequence_lengths:
        for trial in range(trials):
            rows.extend(_run_trial(n, n // 3, n, trial, seed, alpha, gamma, k,
                                   epsilon, base_rate, burst_rate))
    return rows


def mean_hamming(rows: Iterable[TrialResult]) -> dict[tuple[int, str], float]:
    """Mean Hamming distance grouped by (x, method)."""
    sums: dict[tuple[int, str], list[float]] = {}
    for row in rows:
        sums.setdefault((row.x, row.method), []).append(row.hamming)
    return {key: sum(vals) / len(vals) for key, vals in sums.items()}


def write_trials_tsv(rows: Sequence[TrialResult], out: TextIO, x_name: str) -> None:
    out.write(f"{x_name}\ttrial\tseed\tmethod\tn\thamming\n")
    for r in rows:
        out.write(f"{r.x}\t{r.trial}\t{r.seed_label}\t{r.method}\t{r.n}\t{r.hamming}\n")


def write_summary_tsv(rows: Sequence[TrialResult], out: TextIO, x_name: str) -> None:
    means = mean_hamming(rows)
    n_by_x = {r.x: r.n for r in rows}
    out.write(f"{x_name}\tmethod\tmean_hamming\tmean_hamming_per_position\n")
    for (x, method) in sorted(means):
        m = means[(x, method)]
        out.write(f"{x}\t{method}\t{m:.12g}\t{m / n_by_x[x]:.12g}\n")
