"""Burst detection for event sequences with likelihood-optimized rate parameters.

Delays between events are scored against per-level rates beta * alpha**level
with a penalty of gamma * log(n) per level raised.  The package provides the
O(nk) dynamic program for fixed parameters, scans over beta and (alpha, beta)
with multiplicative approximation guarantees for the exponential and
geometric families, an exact exponential-family solver, a refit-based scan
pruner, synthetic planted-burst benchmarks, and a command-line interface.
"""

from .approx_exp import (approx_exp, beta_candidates, exp_alpha, prune_scan, refit_beta,
                         traversal_order)
from .approx_geo import approx_geo, geo_alpha
from .errors import CapacityError, DomainError, InfeasibleError
from .exact import reconstruct, solve_bndburst, solve_exp_alpha_exact
from .experiments import (TrialResult, mean_hamming, run_burst_length_experiment,
                          run_sequence_length_experiment)
from .model import (EXP, GEO, BurstParams, DelaySequence, LevelSequence, Solution,
                    neg_loglik_exp, neg_loglik_geo, penalty, score_total, sequence_stats)
from .oracles import brute_force_viterbi, grid_opt, scan_scores
from .synth import PlantSpec, generate, hamming, overlap_fraction
from .viterbi import backtrace, fill_table, viterbi

__version__ = "0.1.0"

__all__ = [
    "BurstParams", "CapacityError", "DelaySequence", "DomainError", "EXP", "GEO",
    "InfeasibleError", "LevelSequence", "PlantSpec", "Solution", "TrialResult",
    "approx_exp", "approx_geo", "backtrace", "beta_candidates", "brute_force_viterbi",
    "exp_alpha", "fill_table", "generate", "geo_alpha", "grid_opt",
    "hamming", "mean_hamming", "neg_loglik_exp", "neg_loglik_geo", "overlap_fraction",
    "penalty", "prune_scan", "reconstruct", "refit_beta", "run_burst_length_experiment",
    "run_sequence_length_experiment", "scan_scores", "score_total", "sequence_stats",
    "solve_bndburst", "solve_exp_alpha_exact", "traversal_order", "viterbi",
]
