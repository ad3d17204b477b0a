"""Command-line interface.

burstopt run        fit burst levels to a delay or timestamp file
burstopt experiment regenerate the planted-burst benchmarks

run writes three files to --output-dir: levels.tsv (index, level),
segments.tsv (start, end, level for each constant-level run) and
summary.json (parameters, score, call counts, runtime).  Numbers are
serialized with 12 significant digits.

The model checks its own rules (DelaySequence the delays, check_family the
--alpha range, BurstParams the rest); only the command line's rules live
here: mode fixed needs --beta, mode exact is exp-only, exp input may hold no
zero delay, and geo input is rounded to whole numbers within 1e-9.

Exit codes: 0 success, 2 bad input or parameter domain (a non-finite value
or an --epsilon with 1 + epsilon == 1 among them), 3 infeasible model,
4 over a capacity limit, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .approx_exp import approx_exp, exp_alpha
from .approx_geo import approx_geo, geo_alpha
from .errors import CapacityError, DomainError, InfeasibleError
from .exact import solve_exp_alpha_exact
from .experiments import (DEFAULT_BURST_LENGTHS, DEFAULT_SEQUENCE_LENGTHS,
                          run_burst_length_experiment,
                          run_sequence_length_experiment, write_summary_tsv,
                          write_trials_tsv)
from .model import EXP, GEO, BurstParams, DelaySequence, LevelSequence, Solution, check_family
from .viterbi import viterbi

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_DOMAIN = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4

_GRANULARITY_DIVISORS = {"seconds": 1.0, "minutes": 60.0, "days": 86400.0}

MODES = ("fixed", "opt-beta", "opt-both", "exact", "mean")


@dataclass(frozen=True)
class SegmentRun:
    """A maximal run of constant level, covering [start, end)."""

    start: int
    end: int
    level: int


def levels_to_segments(levels: LevelSequence | Sequence[int]) -> list[SegmentRun]:
    """Run-length encode a level sequence; the runs tile [0, n)."""
    levs = list(levels)
    segments = []
    start = 0
    for i in range(1, len(levs) + 1):
        if i == len(levs) or levs[i] != levs[start]:
            segments.append(SegmentRun(start, i, levs[start]))
            start = i
    return segments


def _parse_numbers(path: Path) -> list[float]:
    values = []
    try:
        text = path.read_text()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in line.replace(",", " ").split():
            try:
                values.append(float(token))
            except ValueError:
                raise DomainError(f"{path}:{lineno}: not a number: {token!r}") from None
    if not values:
        raise DomainError(f"{path}: no numeric values found")
    return values


def ingest(path: Path, model: str, timestamps: bool = False, granularity: str = "seconds",
           shift: float | None = None) -> DelaySequence:
    """Load delays, or convert timestamps to delays, and validate them for the model.

    Timestamps must be non-decreasing; consecutive differences are divided by
    the granularity (seconds, minutes or days).  --shift-delays adds a
    constant to every delay, the standard remedy when zero delays meet the
    exponential model.  DelaySequence rejects a non-finite or negative delay
    before the geometric model rounds its delays to whole numbers.
    """
    values = _parse_numbers(path)
    delays = values
    if timestamps:
        if len(values) < 2:
            raise DomainError("need at least two timestamps to form one delay")
        divisor = _GRANULARITY_DIVISORS[granularity]
        delays = []
        for i in range(1, len(values)):
            if values[i] < values[i - 1]:
                raise DomainError(f"timestamps decrease at position {i}: "
                                  f"{values[i]} < {values[i - 1]}")
            delays.append((values[i] - values[i - 1]) / divisor)
    if shift is not None:
        delays = [d + shift for d in delays]
    seq = DelaySequence.from_values(delays)
    if model == EXP and 0 in seq.values:
        raise DomainError(
            "zero delays are degenerate under the exponential model: raising the "
            "level of a zero delay always pays off, so no finite optimum exists; "
            "shift the delays by a small amount (--shift-delays) to remove zeros"
        )
    if model == GEO:
        rounded = []
        for d in seq.values:
            r = round(d)
            if abs(d - r) > 1e-9:
                raise DomainError(f"geo model requires integer delays, got {d!r}")
            rounded.append(float(r))
        seq = DelaySequence(tuple(rounded), "integer")
    return seq


def _solve(args: argparse.Namespace, seq: DelaySequence) -> Solution:
    model, mode = args.model, args.mode
    if mode == "fixed":
        return viterbi(seq, BurstParams(model, args.alpha, args.beta, args.gamma, args.k))
    if mode == "mean":
        mu = seq.stats.mean
        beta = 1 / mu if model == EXP else mu / (mu + 1)
        return viterbi(seq, BurstParams(model, args.alpha, beta, args.gamma, args.k))
    if mode == "opt-beta":
        if model == EXP:
            return exp_alpha(seq, args.alpha, args.gamma, args.k, args.epsilon, prune=args.prune)
        return geo_alpha(seq, args.alpha, args.gamma, args.k, args.epsilon)
    if mode == "opt-both":
        if model == EXP:
            return approx_exp(seq, args.gamma, args.k, args.epsilon, prune=args.prune)
        return approx_geo(seq, args.gamma, args.k, args.epsilon)
    return solve_exp_alpha_exact(seq, args.alpha, args.gamma, args.k, max_n=args.max_exact_n)


def _fmt(value: float) -> float:
    """Round-trip a float through 12 significant digits."""
    return float(f"{value:.12g}")


def _write_outputs(args: argparse.Namespace, seq: DelaySequence, sol: Solution,
                   runtime_ms: float) -> None:
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "levels.tsv", "w") as fh:
        fh.write("index\tlevel\n")
        for i, lev in enumerate(sol.levels):
            fh.write(f"{i}\t{lev}\n")
    with open(outdir / "segments.tsv", "w") as fh:
        fh.write("start\tend\tlevel\n")
        for seg in levels_to_segments(sol.levels):
            fh.write(f"{seg.start}\t{seg.end}\t{seg.level}\n")
    summary = {
        "mode": args.mode,
        "model": args.model,
        "n": seq.n,
        "alpha": _fmt(sol.alpha),
        "beta": _fmt(sol.beta),
        "gamma": _fmt(args.gamma),
        "k": args.k,
        "epsilon": _fmt(args.epsilon),
        "score": _fmt(sol.score) if math.isfinite(sol.score) else repr(sol.score),
        "viterbi_calls": sol.viterbi_calls,
        "runtime_ms": _fmt(runtime_ms),
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.alpha is None:
        args.alpha = 2.0 if args.model == EXP else 0.5
    check_family(args.model, args.alpha)
    if args.mode == "fixed" and args.beta is None:
        raise DomainError("mode fixed requires --beta")
    if args.mode == "exact" and args.model != EXP:
        raise DomainError("mode exact supports only the exp model")
    seq = ingest(Path(args.input), args.model, timestamps=args.timestamps,
                 granularity=args.granularity, shift=args.shift_delays)
    start = time.perf_counter()
    sol = _solve(args, seq)
    runtime_ms = (time.perf_counter() - start) * 1000
    _write_outputs(args, seq, sol, runtime_ms)
    print(f"n={seq.n} mode={args.mode} alpha={sol.alpha:.6g} beta={sol.beta:.6g} "
          f"score={sol.score:.6g} viterbi_calls={sol.viterbi_calls} -> {args.output_dir}")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.protocol in ("burst-length", "fig3"):
        lengths = _parse_int_list(args.lengths) if args.lengths else DEFAULT_BURST_LENGTHS
        rows = run_burst_length_experiment(burst_lengths=lengths, trials=args.trials,
                                           n=args.n, seed=args.seed, alpha=args.alpha,
                                           gamma=args.gamma, k=args.k, epsilon=args.epsilon)
        x_name = "burst_length"
    else:
        lengths = _parse_int_list(args.lengths) if args.lengths else DEFAULT_SEQUENCE_LENGTHS
        rows = run_sequence_length_experiment(sequence_lengths=lengths, trials=args.trials,
                                              seed=args.seed, alpha=args.alpha,
                                              gamma=args.gamma, k=args.k, epsilon=args.epsilon)
        x_name = "sequence_length"
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "trials.tsv", "w") as fh:
        write_trials_tsv(rows, fh, x_name)
    with open(outdir / "summary.tsv", "w") as fh:
        write_summary_tsv(rows, fh, x_name)
    print(f"{len(rows)} trial rows -> {outdir}")
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="burstopt",
                                     description="Burst detection with optimized rate parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="fit burst levels to an event sequence")
    run.add_argument("--input", required=True, help="file of delays (or timestamps), whitespace/comma separated")
    run.add_argument("--output-dir", default=".", help="directory for levels.tsv, segments.tsv, summary.json")
    run.add_argument("--model", choices=(EXP, GEO), default=EXP)
    run.add_argument("--mode", choices=MODES, default="opt-beta",
                     help="fixed: alpha,beta given; opt-beta: scan beta; opt-both: scan alpha and beta; "
                          "exact: exact beta optimum (exp only); mean: beta from the sample mean")
    run.add_argument("--alpha", type=float, default=None,
                     help="level multiplier (default 2 for exp, 0.5 for geo)")
    run.add_argument("--beta", type=float, default=None, help="base rate (mode fixed)")
    run.add_argument("--gamma", type=float, default=1.0, help="level-rise penalty weight")
    run.add_argument("--k", type=int, default=1, help="maximum burst level")
    run.add_argument("--epsilon", type=float, default=0.05, help="approximation slack for scans")
    run.add_argument("--timestamps", action="store_true",
                     help="input holds non-decreasing timestamps; use their differences")
    run.add_argument("--granularity", choices=sorted(_GRANULARITY_DIVISORS), default="seconds",
                     help="unit that timestamp differences are expressed in")
    run.add_argument("--shift-delays", type=float, default=None,
                     help="add this constant to every delay (remedy for zero delays)")
    prune = run.add_mutually_exclusive_group()
    prune.add_argument("--prune", dest="prune", action="store_true", default=True,
                       help="skip provably suboptimal beta candidates (default)")
    prune.add_argument("--no-prune", dest="prune", action="store_false")
    run.add_argument("--max-exact-n", type=int, default=64,
                     help="largest n accepted by mode exact")
    run.set_defaults(func=_cmd_run)

    exp = sub.add_parser("experiment", help="regenerate the planted-burst benchmarks")
    exp.add_argument("protocol", choices=("burst-length", "sequence-length", "fig3", "fig4"),
                     help="burst-length (alias fig3) varies the burst; "
                          "sequence-length (alias fig4) varies n")
    exp.add_argument("--output-dir", default=".")
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--n", type=int, default=500, help="sequence length (burst-length protocol)")
    exp.add_argument("--lengths", default=None,
                     help="override the varied lengths, e.g. 50,100,150")
    exp.add_argument("--alpha", type=float, default=2.0)
    exp.add_argument("--gamma", type=float, default=1.0)
    exp.add_argument("--k", type=int, default=1)
    exp.add_argument("--epsilon", type=float, default=0.05)
    exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.trials is None:
        args.trials = 100 if args.protocol in ("burst-length", "fig3") else 300
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as exc:  # pragma: no cover - last-resort reporting
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
