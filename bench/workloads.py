"""The four benchmark workloads and the inputs they are built from.

A workload is a fixed list of jobs made from the seed; one pass solves
every job once, in order, in a single closed loop (the next call starts
when the previous one returns).  A job's solve() is the timed call into the
package; capture() turns its raw result into a signature, which must repeat
exactly in every pass, and the data that fits() later checks.  Calls go
through module attributes looked up at call time, so a traced pass sees
the wrapped entry points.

Delays are planted bursts drawn by stratified sampling: each segment holds
the exponential quantiles at (i + 0.5) / m of its rate, in an order
shuffled by the seed.  The mean, minimum and maximum, which fix every scan
schedule, are then the same at every seed, while the order the dynamic
program sees changes; this keeps a workload's DP call count, and so its
run time, nearly independent of the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from burstopt.model import EXP, GEO, BurstParams, DelaySequence
from burstopt.synth import PlantSpec, hamming

from checks import Fit


def _mod(name: str) -> Any:
    return importlib.import_module(f"burstopt.{name}")


@dataclass(frozen=True)
class Captured:
    signature: tuple
    data: Any


@dataclass(frozen=True)
class Job:
    label: str
    solve: Callable[[], Any]
    capture: Callable[[Any], Captured]
    fits: Callable[[Any], tuple[list[Fit], list[str]]]  # (fits, extra problems)
    group: str = ""  # jobs of one shape on different inputs share a group; "" means the label


@dataclass
class Workload:
    name: str
    why: str
    shape: dict
    jobs: list[Job]
    quality: Callable[[list[Captured]], dict[str, float]] = lambda captured: {}


def planted_delays(rng: np.random.Generator, n: int, base_rate: float, burst_rate: float) -> np.ndarray:
    """Exponential delays with one centred burst of n // 3 positions, stratified per segment."""
    burst = n // 3
    start = (n - burst) // 2
    out = np.empty(n)
    for lo, hi, rate in ((0, start, base_rate), (start, start + burst, burst_rate),
                         (start + burst, n, base_rate)):
        m = hi - lo
        quantiles = -np.log1p(-(np.arange(m) + 0.5) / m) / rate
        out[lo:hi] = rng.permutation(quantiles)
    return out


def planted_counts(rng: np.random.Generator, n: int, base_mean: float, burst_mean: float) -> np.ndarray:
    """Geometric (integer) delays: floors of stratified exponential delays with the given means."""
    # floor(X) for X exponential with rate r is geometric with mean 1 / (e**r - 1).
    rates = [math.log1p(1 / mean) for mean in (base_mean, burst_mean)]
    return np.floor(planted_delays(rng, n, *rates))


def _solution_capture(sol: Any) -> Captured:
    signature = (sol.levels.levels, sol.score, sol.alpha, sol.beta, sol.viterbi_calls)
    return Captured(signature, sol)


# --- joint -----------------------------------------------------------------

# The pruned exponential scan's DP call count varies with the order of the
# delays (about 10% between seeds at n = 20), while the geometric scan's
# depends only on n and the mean, and a geometric solve costs about twice
# an exponential one.  A pass solves two exponential and four geometric
# inputs, interleaved, so that the median and the tail solve are geometric
# solves whatever the seed, and short solves give some 50 solves a run.
JOINT_N, JOINT_K, JOINT_EPS, GAMMA = 20, 1, 0.05, 1.0
JOINT_FAMILIES = (EXP, GEO, GEO, EXP, GEO, GEO)


def make_joint(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cases = [(family, (planted_delays(rng, JOINT_N, 0.5, 2.0) if family == EXP
                       else planted_counts(rng, JOINT_N, 4.0, 0.5)).tolist())
             for family in JOINT_FAMILIES]

    def job(idx: int, family: str, values: list[float]) -> Job:
        kind = "real" if family == EXP else "integer"

        def solve() -> Any:
            seq = DelaySequence.from_values(values, kind=kind)
            if family == EXP:
                return _mod("approx_exp").approx_exp(seq, GAMMA, JOINT_K, JOINT_EPS, prune=True)
            return _mod("approx_geo").approx_geo(seq, GAMMA, JOINT_K, JOINT_EPS)

        def fits(sol: Any) -> tuple[list[Fit], list[str]]:
            seq = DelaySequence.from_values(values, kind=kind)
            return [Fit(seq, family, sol.levels.levels, sol.alpha, sol.beta, GAMMA, JOINT_K,
                        sol.score, "both", JOINT_EPS)], []

        return Job(f"opt-both-{family}-n{len(values)}-{idx}", solve, _solution_capture, fits, group=family)

    jobs = [job(idx, *case) for idx, case in enumerate(cases)]
    return Workload(
        name="joint",
        why="opt-both on two exp and four geo planted sequences of n 20: thousands of DP calls "
            "each on small n, so per-call overhead and the scan loops dominate",
        shape={"families": list(JOINT_FAMILIES), "n": JOINT_N, "k": JOINT_K, "eps": JOINT_EPS,
               "gamma": GAMMA, "prune": True, "solves_per_pass": len(jobs)},
        jobs=jobs,
    )


# --- long ------------------------------------------------------------------

LONG_EXP_N, LONG_GEO_N, LONG_K = 20_000, 5_000, 3
# At the default eps = 0.05, refit pruning tests 23, 25 and 25 of the 43
# beta candidates on the three exponential inputs at seed 0, so pruning has
# little to skip there; eps = 2**-10 gives 2131 candidates, of which it tests
# 102, 81 and 68.  That count follows the order of the delays (67 to 106
# at seeds 1-5), so three inputs are scanned to average it.  Three
# geometric inputs make the median solve the median of three geometric
# scans, whose DP call count (172) does not depend on the seed.
LONG_FILES = 3
LONG_EXP_EPS = 2.0 ** -10
LONG_GEO_EPS = 0.05


def _read_run(out: Path) -> tuple[tuple[int, ...], dict]:
    summary = json.loads((out / "summary.json").read_text())
    lines = (out / "levels.tsv").read_text().splitlines()[1:]
    return tuple(int(line.split("\t")[1]) for line in lines), summary


def make_long(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    work = out_dir / f"long-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    runs = []
    for i in range(LONG_FILES):
        values = planted_delays(rng, LONG_EXP_N, 0.5, 2.0)
        path = work / f"exp{i}.txt"
        path.write_text("\n".join(repr(v) for v in values.tolist()) + "\n")
        runs += [(f"exp{i}-opt-beta", EXP, path, values, "beta", LONG_EXP_EPS),
                 (f"exp{i}-mean", EXP, path, values, "none", 0.0)]
    for i in range(LONG_FILES):
        values = planted_counts(rng, LONG_GEO_N, 4.0, 0.5)
        path = work / f"geo{i}.txt"
        path.write_text("\n".join(str(int(v)) for v in values) + "\n")
        runs.append((f"geo{i}-opt-beta", GEO, path, values, "beta", LONG_GEO_EPS))

    def job(label: str, family: str, path: Path, values: np.ndarray, scan: str, eps: float) -> Job:
        out = work / label
        argv = ["run", "--input", str(path), "--output-dir", str(out), "--model", family,
                "--k", str(LONG_K), "--gamma", repr(GAMMA)]
        argv += ["--mode", "mean"] if scan == "none" else ["--mode", "opt-beta", "--epsilon", repr(eps)]

        def solve() -> Any:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = _mod("cli").main(argv)
            if code != 0:
                raise RuntimeError(f"burstopt {' '.join(argv)} exited {code}: {stderr.getvalue().strip()}")
            return code

        def capture(_: Any) -> Captured:
            levels, summary = _read_run(out)
            signature = (levels, summary["score"], summary["alpha"], summary["beta"], summary["viterbi_calls"])
            return Captured(signature, (levels, summary))

        def fits(data: Any) -> tuple[list[Fit], list[str]]:
            levels, summary = data
            seq = DelaySequence.from_values(values.tolist(), kind="real" if family == EXP else "integer")
            return [Fit(seq, family, levels, summary["alpha"], summary["beta"], summary["gamma"],
                        summary["k"], float(summary["score"]), scan, eps)], []

        return Job(label, solve, capture, fits, group=f"{family}-{argv[argv.index('--mode') + 1]}")

    jobs = [job(*run) for run in runs]
    return Workload(
        name="long",
        why="burstopt run via cli.main on long files (opt-beta and mean): few DP calls over long n, "
            "so cost per DP cell, backtrace, DP-table memory, ingest and output writing dominate",
        shape={"runs": [{"label": r[0], "family": r[1], "mode": "mean" if r[4] == "none" else "opt-beta",
                         "n": len(r[3]), "eps": r[5] or None} for r in runs],
               "k": LONG_K, "gamma": GAMMA, "prune": True, "solves_per_pass": len(jobs)},
        jobs=jobs,
    )


# --- planted ---------------------------------------------------------------

PLANTED_TRIALS = 4
PLANTED_BURST_N = 500


def make_planted(seed: int, out_dir: Path) -> Workload:
    ex = _mod("experiments")
    settings = [("burst-length", length, PLANTED_BURST_N, length) for length in ex.DEFAULT_BURST_LENGTHS]
    settings += [("sequence-length", n, n, n // 3) for n in ex.DEFAULT_SEQUENCE_LENGTHS]
    alpha, k, eps = 2.0, 1, 0.05  # the protocols' defaults

    def job(protocol: str, x: int, n: int, burst: int, trial: int) -> Job:
        base_seed = seed * 1000 + trial  # one protocol trial per call; trials stay distinct

        def solve() -> Any:
            mod = _mod("experiments")
            if protocol == "burst-length":
                return mod.run_burst_length_experiment(burst_lengths=[x], trials=1, n=n, seed=base_seed)
            return mod.run_sequence_length_experiment(sequence_lengths=[x], trials=1, seed=base_seed)

        def capture(rows: Any) -> Captured:
            return Captured(tuple((r.method, r.n, r.hamming) for r in rows), rows)

        def fits(rows: Any) -> tuple[list[Fit], list[str]]:
            # Regenerate the trial's sequence and re-solve it, so that the
            # protocol's Hamming distances are checked against levels whose
            # scores can be checked.
            start = (n - burst) // 2
            seq, truth = _mod("synth").generate(PlantSpec(
                n=n, burst_start=start, burst_end=start + burst, base_rate=ex.DEFAULT_BASE_RATE,
                burst_rate=ex.DEFAULT_BURST_RATE, seed=(base_seed, x, 0)))
            opt = _mod("approx_exp").exp_alpha(seq, alpha, GAMMA, k, eps)
            mean = _mod("viterbi").viterbi(seq, BurstParams(EXP, alpha, 1 / seq.stats.mean, GAMMA, k))
            reported = {r.method: r.hamming for r in rows}
            problems = []
            for method, sol in (("opt", opt), ("mean", mean)):
                found = hamming(sol.levels, truth)
                if reported.get(method) != found:
                    problems.append(f"{method} hamming {reported.get(method)} != re-solved {found}")
            return [Fit(seq, EXP, sol.levels.levels, sol.alpha, sol.beta, GAMMA, k, sol.score, scan, eps)
                    for sol, scan in ((opt, "beta"), (mean, "none"))], problems

        return Job(f"{protocol}-{x}-t{trial}", solve, capture, fits)

    jobs = [job(*s, trial) for s in settings for trial in range(PLANTED_TRIALS)]

    def quality(captured: list[Captured]) -> dict[str, float]:
        per_method: dict[str, list[float]] = {"opt": [], "mean": []}
        for c in captured:
            for r in c.data:
                per_method[r.method].append(r.hamming / r.n)
        return {f"hamming_{m}": sum(v) / len(v) for m, v in per_method.items()}

    return Workload(
        name="planted",
        why="both planted-burst protocols at reduced trials: many short sequences, so synth, "
            "sequence validation and the unpruned exp_alpha scan dominate; pruning must not move it",
        shape={"protocols": {"burst-length": {"n": PLANTED_BURST_N, "burst": list(ex.DEFAULT_BURST_LENGTHS)},
                             "sequence-length": {"n": list(ex.DEFAULT_SEQUENCE_LENGTHS), "burst": "n // 3"}},
               "trials_per_setting": PLANTED_TRIALS, "alpha": alpha, "k": k, "eps": eps, "gamma": GAMMA,
               "family": EXP, "solves_per_pass": len(jobs)},
        jobs=jobs,
        quality=quality,
    )


# --- exact -----------------------------------------------------------------

EXACT_NS, EXACT_KS, EXACT_ALPHA = (48, 56, 64), (1, 2, 3), 2.0


def make_exact(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    cases = [(n, k, planted_delays(rng, n, 0.5, 2.0).tolist()) for n in EXACT_NS for k in EXACT_KS]

    def job(n: int, k: int, values: list[float]) -> Job:
        def fits(sol: Any) -> tuple[list[Fit], list[str]]:
            seq = DelaySequence.from_values(values, kind="real")
            return [Fit(seq, EXP, sol.levels.levels, sol.alpha, sol.beta, GAMMA, k, sol.score, "exact")], []

        return Job(f"exact-n{n}-k{k}", lambda: _mod("exact").solve_exp_alpha_exact(
                       DelaySequence.from_values(values, kind="real"), EXACT_ALPHA, GAMMA, k),
                   _solution_capture, fits)

    jobs = [job(*case) for case in cases]
    return Workload(
        name="exact",
        why="solve_exp_alpha_exact on planted n 48-64, k 1-3: the only user of the numpy budget DP "
            "and its O(n^3 k^3) table; viterbi and scan changes must not move it",
        shape={"family": EXP, "n": list(EXACT_NS), "k": list(EXACT_KS), "alpha": EXACT_ALPHA,
               "gamma": GAMMA, "solves_per_pass": len(jobs)},
        jobs=jobs,
    )


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "joint": make_joint,
    "long": make_long,
    "planted": make_planted,
    "exact": make_exact,
}
