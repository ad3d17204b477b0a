"""Benchmark for burstopt: one workload per run, closed loop, outputs checked.

    python3 bench/run.py --workload joint --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25   # every workload in turn

A run imports the package from src/ of the checkout it sits in, builds the
workload's inputs from --seed (set-up, repeated SETUP_REPS times, each with
a timed import of burstopt in a fresh interpreter; setup_s is the median),
then solves the workload's jobs in passes for at most --seconds.  One
caller issues each solve when the previous one returns; there are no
threads.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced and traced passes; in traced passes every public entry
point is wrapped (see spans.py) and the per-layer metrics come from those
spans, with trace.overhead_frac the traced over the untraced pass wall,
minus 1.

After the timed phase every distinct output is checked (see checks.py).
A solve that raised or whose output failed a check counts in `failed`.
Every signature (levels, score, parameters, DP call count, Hamming
distances) must repeat in every pass, and every count must match the
record an earlier run at the same seed and source left in bench/out/; a
mismatch, or traced self times that do not add up to the traced wall time,
is reported on stderr and the run exits 3 without a result.

The report goes to stdout, the last line being one JSON object with the
keys correct, attempted, failed and metrics.  The full run record (machine
fingerprint, workload shape, all metrics) and, for traced runs, the spans
of the last traced pass are written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 5
# numpy is imported first: its own import time can vary by half between
# runs, and it is not the package's set-up work.
IMPORT_TIMER = "import time, numpy; t = time.perf_counter(); import burstopt; print(time.perf_counter() - t)"
WORKLOAD_NAMES = ("joint", "long", "planted", "exact")

# End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class NondeterminismError(RuntimeError):
    """An output or count differed between passes or runs at one seed."""


@dataclass
class Solve:
    job: int
    seconds: float
    traced: bool
    signature: tuple
    captured: Any = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    traced: bool
    wall: float
    stats: Any = None  # spans.PassStats for a traced pass


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fingerprint() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def set_up(make: Callable[[int, Path], Any], seed: int) -> tuple[Any, list[float]]:
    """Build the workload SETUP_REPS times; returns it and the set-up times.

    Each set-up imports burstopt in a fresh interpreter that has already
    imported numpy, timed inside that interpreter so that its start and exit
    are not counted, then builds the inputs here.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT, check=True,
                               timeout=120, capture_output=True, text=True)
        start = time.perf_counter()
        workload = make(seed, OUT_DIR)
        samples.append(float(child.stdout) + time.perf_counter() - start)
    return workload, samples


def run_passes(workload: Any, seconds: float, tracer: Any) -> tuple[list[Solve], list[Pass]]:
    """Solve every job once per pass for at most `seconds`.

    A pass starts only if half of the mean pass so far still fits within
    `seconds`, so a run overruns by at most about half a pass; at least one
    pass runs.  With a tracer, passes alternate untraced and traced,
    starting untraced, and at least one of each runs.
    """
    from spans import PassStats, subtree_viterbi_counts

    solves: list[Solve] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        pass_solves = []
        try:
            for idx, job in enumerate(workload.jobs):
                lo = len(tracer.spans) if traced else 0
                t0 = time.perf_counter()
                try:
                    raw, error = job.solve(), None
                except Exception as exc:  # a failed solve is counted, not fatal
                    raw, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                solve = Solve(idx, elapsed, traced, ("error", error))
                if error is None:
                    try:
                        solve.captured = job.capture(raw)
                        solve.signature = solve.captured.signature
                    except Exception as exc:
                        error = f"reading output failed: {type(exc).__name__}: {exc}"
                        solve.signature = ("error", error)
                if error is not None:
                    solve.problems.append(error)
                if traced and "viterbi.viterbi" not in tracer.missing:
                    hi = len(tracer.spans)
                    for wrapped, reported in subtree_viterbi_counts(tracer.spans, lo, hi):
                        if wrapped != reported:
                            solve.problems.append(f"wrapped viterbi calls {wrapped} != "
                                                  f"reported viterbi_calls {reported}")
                pass_solves.append(solve)
        finally:
            if traced:
                tracer.uninstall()
        wall = sum(s.seconds for s in pass_solves)
        passes.append(Pass(traced, wall, PassStats(tracer.spans, wall) if traced else None))
        solves.extend(pass_solves)
        elapsed = time.perf_counter() - start
        done = elapsed * (len(passes) + 0.5) / len(passes) > seconds
        if done and (tracer is None or any(p.traced for p in passes)):
            return solves, passes


def tail(solves: list[Solve], groups: list[str]) -> tuple[float, float | None]:
    """(value, percentile): the highest percentile with at least 10 solves beyond it.

    Below 21 solves that percentile would be under the median, so the tail
    is instead the median solve time of the slowest group of jobs
    (groups[job]), and the percentile is None.
    """
    xs = sorted(s.seconds for s in solves)
    n = len(xs)
    if n >= 21:
        return xs[n - 11], 100.0 * (n - 10) / n
    by_group: dict[str, list[float]] = {}
    for s in solves:
        by_group.setdefault(groups[s.job], []).append(s.seconds)
    return max(statistics.median(v) for v in by_group.values()), None


def check_outputs(workload: Any, solves: list[Solve]) -> tuple[dict[int, list[str]], float | None, dict]:
    """Check each job's first successful output once; returns (problems by job, score_excess, quality)."""
    from checks import check_fit

    first: dict[int, Solve] = {}
    for s in solves:
        if s.captured is not None:
            first.setdefault(s.job, s)
    problems: dict[int, list[str]] = {}
    excesses = []
    for idx, job in enumerate(workload.jobs):
        if idx not in first:
            continue
        try:
            fits, extra = job.fits(first[idx].captured.data)
            found = list(extra)
            for fit in fits:
                verdict = check_fit(fit)
                found.extend(verdict.problems)
                if verdict.excess is not None:
                    excesses.append(verdict.excess)
        except Exception as exc:  # output the checker cannot handle is a failed check
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[idx] = [f"{job.label}: {p}" for p in found]
    quality = workload.quality([first[i].captured for i in sorted(first)])
    return problems, (max(excesses) if excesses else None), quality


def check_determinism(workload: Any, solves: list[Solve]) -> str:
    """Raise NondeterminismError unless each job's signature repeats; return their digest."""
    signatures: dict[int, tuple] = {}
    for s in solves:
        seen = signatures.setdefault(s.job, s.signature)
        if seen != s.signature:
            raise NondeterminismError(f"job {workload.jobs[s.job].label}: output differs between passes")
    return hashlib.sha256(repr([signatures[i] for i in sorted(signatures)]).encode()).hexdigest()


def check_record(name: str, seed: int, outputs: str, counts: dict | None) -> None:
    """Compare with the record of an earlier run at this seed and source, then update it."""
    path = OUT_DIR / f"record-{name}-seed{seed}.json"
    source = source_digest()
    record = {"source": source}
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except ValueError:
            old = {}
        if old.get("source") == source:
            record = old
    if record.setdefault("outputs", outputs) != outputs:
        raise NondeterminismError(f"outputs differ from the earlier run recorded in {path.name}")
    if counts is not None:
        for key, value in counts.items():
            if record.setdefault("counts", {}).setdefault(key, value) != value:
                raise NondeterminismError(f"count {key} = {value} differs from {record['counts'][key]} "
                                          f"recorded in {path.name}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    os.replace(tmp, path)


def end_to_end(workload: Any, solves: list[Solve], passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    untraced = [s for s in solves if not s.traced]
    latencies = [s.seconds for s in untraced]
    tail_value, tail_pct = tail(untraced, [job.group or job.label for job in workload.jobs])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes if not p.traced),
        "solves_per_s": len(latencies) / sum(latencies),
        "solve_ms_p50": statistics.median(latencies) * 1e3,
        "solve_ms_tail": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    notes = {"tail_percentile": tail_pct, "samples": len(latencies), "setup_samples_s": setup}
    return metrics, notes


def run_workload(args: argparse.Namespace) -> int:
    import checks
    import spans
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    self_test_frac = checks.self_test()
    workload, setup = set_up(WORKLOADS[args.workload], args.seed)
    tracer = spans.Tracer() if args.trace else None
    solves, passes = run_passes(workload, args.seconds, tracer)
    e2e, e2e_notes = end_to_end(workload, solves, passes, setup)  # read peak RSS before the checks run

    problems, excess, quality = check_outputs(workload, solves)
    failed = sum(1 for s in solves if s.problems or s.job in problems)
    attempted = len(solves)
    outputs = check_determinism(workload, solves)
    extra = {"failed_frac": failed / attempted, **quality}
    if excess is not None:
        extra["score_excess"] = excess
    notes: list[str] = []
    if args.trace:
        traced = [p.stats for p in passes if p.traced]
        values, units, notes = spans.layer_metrics(traced, tracer.missing)
        untraced_wall = statistics.median(p.wall for p in passes if not p.traced)
        values["trace.overhead_frac"] = statistics.median(p.wall for p in traced) / untraced_wall - 1
        units["trace.overhead_frac"] = "frac"
        counts = {m.name: values[m.name] for m in spans.METRICS if m.is_count and m.name in values}
        check_record(workload.name, args.seed, outputs, counts)
        write_spans(workload.name, args.seed, tracer)
    else:
        values, units = e2e, END_TO_END
        check_record(workload.name, args.seed, outputs, None)

    correct = failed == 0
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": fingerprint(), "shape": workload.shape,
        "passes": len(passes), "pass_walls_s": [(p.wall, p.traced) for p in passes],
        "attempted": attempted, "failed": failed, "correct": correct,
        "self_test_failed_frac": self_test_frac, "metrics": values, "units": units,
        "extra": extra, "notes": notes, "problems": sorted({p for ps in problems.values() for p in ps}
                                                           | {p for s in solves for p in s.problems}),
        **({} if args.trace else e2e_notes),
    }
    (OUT_DIR / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print_report(record)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


def write_spans(name: str, seed: int, tracer: Any) -> None:
    """Spans of the last traced pass, one per line: index, parent, entry point, start, end."""
    with open(OUT_DIR / f"spans-{name}-seed{seed}.tsv", "w") as fh:
        fh.write("index\tparent\tentry_point\tstart_s\tend_s\n")
        for i, (key, parent, start, end, _, _) in enumerate(tracer.spans):
            fh.write(f"{i}\t{parent}\t{key}\t{start:.9f}\t{end:.9f}\n")


def print_report(record: dict) -> None:
    machine = record["machine"]
    print(f"burstopt bench: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}")
    print(f"  machine: nproc={machine['nproc']} cpu={machine['cpu']!r} python={machine['python']} "
          f"numpy={machine['numpy']}")
    print(f"  why: {record['why']}")
    print(f"  shape: {json.dumps(record['shape'])}")
    print(f"  passes={record['passes']} attempted={record['attempted']} failed={record['failed']} "
          f"correct={str(record['correct']).lower()} self_test_failed_frac={record['self_test_failed_frac']:g}")
    for name, value in record["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {record['units'][name]}")
    for name, value in record["extra"].items():
        print(f"  {name:32s} {value:>16.6g} frac")
    if "tail_percentile" in record:
        pct = record["tail_percentile"]
        what = (f"p{pct:.4g}, 10 solves beyond it" if pct is not None
                else "the median of the slowest group of jobs (fewer than 21 solves)")
        print(f"  solve_ms_tail is {what}; {record['samples']} solves")
    for line in record["notes"] + record["problems"]:
        print(f"  note: {line}")


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own process, in turn, and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "burstopt" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'burstopt'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from spans import TraceError

    try:
        return run_workload(args)
    except (NondeterminismError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
