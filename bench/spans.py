"""In-memory span tracer over the package's public entry points.

Tracer.install replaces each entry point named in ENTRY_POINTS with a
wrapper, in every burstopt module that holds a reference to it (so
approx_exp's call to viterbi is traced as well as the CLI's), and
uninstall puts the originals back.  The source tree is not edited.

A span is (key, parent index, start, end, amount, viterbi_calls): amount is
a size taken from the call's result (DP cells, candidates, values read) and
viterbi_calls is the count a returned Solution reports, kept so that the
benchmark can compare it with the wrapped call count.  An entry point that
no longer exists is recorded in Tracer.missing, and every metric that needs
it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

Span = tuple  # (key, parent, start, end, amount, viterbi_calls)


class TraceError(RuntimeError):
    """Traced counts differ between passes, or self times do not add up."""


def _cells(sol: Any) -> int:
    return len(sol.levels) * (sol.levels.k + 1)


def _table(table: Any) -> tuple[int, int]:
    return table.values.size, table.values.nbytes + table.back.nbytes


def _trials(rows: Any) -> int:
    return len({(r.x, r.trial) for r in rows})


# "module.attribute" -> function computing the span's amount from the result.
ENTRY_POINTS: dict[str, Callable[[Any], Any] | None] = {
    "viterbi.viterbi": _cells,
    "viterbi.fill_table": None,
    "viterbi.backtrace": None,
    "approx_exp.approx_exp": None,
    "approx_exp.exp_alpha": None,
    "approx_exp.prune_scan": None,
    "approx_exp.beta_candidates": len,
    "approx_exp.refit_beta": None,
    "approx_geo.approx_geo": None,
    "approx_geo.geo_alpha": None,
    "exact.solve_exp_alpha_exact": None,
    "exact.solve_bndburst": _table,
    "exact.reconstruct": None,
    "cli.main": None,
    "cli.ingest": lambda seq: seq.n,
    "model.DelaySequence.from_values": lambda seq: seq.n,
    "synth.generate": None,
    "experiments.run_burst_length_experiment": _trials,
    "experiments.run_sequence_length_experiment": _trials,
}

LAYERS = sorted({key.partition(".")[0] for key in ENTRY_POINTS})  # one layer per module


class Tracer:
    """Wraps the entry points while installed; spans go to self.spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, key: str, orig: Callable, measure: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the index: a child always follows its parent
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                spans[idx] = (key, parent, start, clock(), 0, None)
                raise
            finally:
                stack.pop()
            end = clock()
            amount = measure(result) if measure is not None else 0
            spans[idx] = (key, parent, start, end, amount, getattr(result, "viterbi_calls", None))
            return result

        return wrapper

    def install(self) -> None:
        """Start a fresh span list and patch every entry point that exists."""
        self.spans = []
        self._stack = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "burstopt" or name.startswith("burstopt."))]
        for key, measure in ENTRY_POINTS.items():
            modname, _, attr = key.partition(".")
            try:
                owner: Any = importlib.import_module(f"burstopt.{modname}")
            except ImportError:
                self.missing.add(key)
                continue
            if "." in attr:  # a classmethod: patch the class attribute itself
                cls_name, _, attr = attr.partition(".")
                owner = getattr(owner, cls_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if not isinstance(raw, classmethod):
                    self.missing.add(key)
                    continue
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self._wrap(key, raw.__func__, measure)))
                continue
            orig = getattr(owner, attr, None)
            if not callable(orig):
                self.missing.add(key)
                continue
            wrapper = self._wrap(key, orig, measure)
            for module in modules:
                for name in [n for n, v in vars(module).items() if v is orig]:
                    self._patches.append((module, name, orig))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches = []


def subtree_viterbi_counts(spans: list[Span], lo: int, hi: int) -> list[tuple[int, int]]:
    """(wrapped viterbi calls, reported viterbi_calls) for every Solution span in spans[lo:hi].

    Spans are appended when a call starts, so a child always follows its
    parent and one reverse sweep accumulates subtree counts.
    """
    counts = [0] * (hi - lo)
    for i in range(hi - 1, lo - 1, -1):
        key, parent = spans[i][0], spans[i][1]
        if key == "viterbi.viterbi":
            counts[i - lo] += 1
        if parent >= lo:
            counts[parent - lo] += counts[i - lo]
    return [(counts[i - lo], spans[i][5]) for i in range(lo, hi) if spans[i][5] is not None]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    is_count: bool
    requires: tuple[str, ...]
    compute: Callable[["PassStats"], float]


class PassStats:
    """Totals over the spans of one traced pass."""

    def __init__(self, spans: list[Span], wall: float) -> None:
        self.wall = wall
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.amount: dict[str, list[Any]] = {}
        self.child_count: dict[tuple[str, str], int] = {}
        child = [0.0] * len(spans)
        for i, (key, parent, start, end, amount, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                pair = (spans[parent][0], key)
                self.child_count[pair] = self.child_count.get(pair, 0) + 1
        top = 0.0
        for i, (key, parent, start, end, amount, _) in enumerate(spans):
            self.count[key] = self.count.get(key, 0) + 1
            self.total[key] = self.total.get(key, 0.0) + (end - start)
            self.self_time[key] = self.self_time.get(key, 0.0) + (end - start - child[i])
            self.amount.setdefault(key, []).append(amount)
            if parent < 0:
                top += end - start
        self.remainder = wall - top

    def n(self, key: str) -> int:
        return self.count.get(key, 0)

    def t(self, key: str) -> float:
        return self.total.get(key, 0.0)

    def sum_amount(self, key: str, part: int | None = None) -> int:
        values = self.amount.get(key, [])
        return sum(v[part] for v in values) if part is not None else sum(values)

    def children(self, parents: tuple[str, ...], key: str) -> int:
        return sum(self.child_count.get((p, key), 0) for p in parents)

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.partition(".")[0] == layer)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


_EXP_SCANS = ("approx_exp.exp_alpha", "approx_exp.prune_scan")
_V = "viterbi.viterbi"

# Per-layer metrics, each with the entry points it needs.  A ratio whose
# denominator is zero (the layer did not run in this workload) reads 0.
METRICS: tuple[Metric, ...] = (
    Metric("viterbi.calls", "count", True, (_V,), lambda p: p.n(_V)),
    Metric("viterbi.cells", "count", True, (_V,), lambda p: p.sum_amount(_V)),
    Metric("viterbi.fill_s", "s", False, ("viterbi.fill_table",), lambda p: p.t("viterbi.fill_table")),
    Metric("viterbi.ns_per_cell", "ns", False, (_V, "viterbi.fill_table"),
           lambda p: _ratio(p.t("viterbi.fill_table"), p.sum_amount(_V), 1e9)),
    Metric("viterbi.backtrace_s", "s", False, ("viterbi.backtrace",), lambda p: p.t("viterbi.backtrace")),
    Metric("viterbi.self_us_per_call", "us", False, (_V,),
           lambda p: _ratio(p.self_time.get(_V, 0.0), p.n(_V), 1e6)),
    Metric("viterbi.self_s", "s", False, (), lambda p: p.layer_self("viterbi")),
    Metric("approx_exp.alpha_candidates", "count", True, ("approx_exp.exp_alpha",),
           lambda p: p.n("approx_exp.exp_alpha")),
    Metric("approx_exp.beta_candidates", "count", True, ("approx_exp.beta_candidates",),
           lambda p: p.sum_amount("approx_exp.beta_candidates")),
    Metric("approx_exp.tested", "count", True, _EXP_SCANS + (_V,), lambda p: p.children(_EXP_SCANS, _V)),
    Metric("approx_exp.tested_frac", "frac", True, _EXP_SCANS + (_V, "approx_exp.beta_candidates"),
           lambda p: _ratio(p.children(_EXP_SCANS, _V), p.sum_amount("approx_exp.beta_candidates"))),
    Metric("approx_exp.refit_calls", "count", True, ("approx_exp.refit_beta",),
           lambda p: p.n("approx_exp.refit_beta")),
    Metric("approx_exp.refit_s", "s", False, ("approx_exp.refit_beta",), lambda p: p.t("approx_exp.refit_beta")),
    Metric("approx_exp.self_s", "s", False, (), lambda p: p.layer_self("approx_exp")),
    Metric("approx_geo.alpha_candidates", "count", True, ("approx_geo.geo_alpha",),
           lambda p: p.n("approx_geo.geo_alpha")),
    Metric("approx_geo.beta_candidates", "count", True, ("approx_geo.geo_alpha", _V),
           lambda p: p.children(("approx_geo.geo_alpha",), _V)),
    Metric("approx_geo.self_s", "s", False, (), lambda p: p.layer_self("approx_geo")),
    Metric("exact.cells", "count", True, ("exact.solve_bndburst",),
           lambda p: p.sum_amount("exact.solve_bndburst", 0)),
    Metric("exact.fill_s", "s", False, ("exact.solve_bndburst",), lambda p: p.t("exact.solve_bndburst")),
    Metric("exact.ns_per_cell", "ns", False, ("exact.solve_bndburst",),
           lambda p: _ratio(p.t("exact.solve_bndburst"), p.sum_amount("exact.solve_bndburst", 0), 1e9)),
    Metric("exact.table_mb", "MB", True, ("exact.solve_bndburst",),
           lambda p: max((v[1] for v in p.amount.get("exact.solve_bndburst", [])), default=0) / 1e6),
    Metric("exact.reconstruct_s", "s", False, ("exact.reconstruct",), lambda p: p.t("exact.reconstruct")),
    Metric("exact.self_s", "s", False, (), lambda p: p.layer_self("exact")),
    Metric("cli.ingest_s", "s", False, ("cli.ingest",), lambda p: p.t("cli.ingest")),
    Metric("cli.ingest_values_per_s", "1/s", False, ("cli.ingest",),
           lambda p: _ratio(p.sum_amount("cli.ingest"), p.t("cli.ingest"))),
    Metric("cli.self_s", "s", False, (), lambda p: p.layer_self("cli")),
    Metric("model.seq_build_s", "s", False, ("model.DelaySequence.from_values",),
           lambda p: p.t("model.DelaySequence.from_values")),
    Metric("model.seq_build_values_per_s", "1/s", False, ("model.DelaySequence.from_values",),
           lambda p: _ratio(p.sum_amount("model.DelaySequence.from_values"),
                            p.t("model.DelaySequence.from_values"))),
    Metric("model.self_s", "s", False, (), lambda p: p.layer_self("model")),
    Metric("synth.generate_calls", "count", True, ("synth.generate",), lambda p: p.n("synth.generate")),
    Metric("synth.generate_s", "s", False, ("synth.generate",), lambda p: p.t("synth.generate")),
    Metric("synth.self_s", "s", False, (), lambda p: p.layer_self("synth")),
    Metric("experiments.trials", "count", True,
           ("experiments.run_burst_length_experiment", "experiments.run_sequence_length_experiment"),
           lambda p: p.sum_amount("experiments.run_burst_length_experiment")
           + p.sum_amount("experiments.run_sequence_length_experiment")),
    Metric("experiments.self_s", "s", False, (), lambda p: p.layer_self("experiments")),
    Metric("trace.wall_s", "s", False, (), lambda p: p.wall),
    Metric("trace.remainder_s", "s", False, (), lambda p: p.remainder),
)


def layer_metrics(passes: list[PassStats], missing: set[str]) -> tuple[dict[str, float], dict[str, str], list[str]]:
    """Median of each time metric and the repeated value of each count metric.

    Returns (values, units, notes).  Raises TraceError when a count differs
    between traced passes, or when layer self times and the remainder do not
    add up to the traced wall time.
    """
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    notes: list[str] = []
    for p in passes:
        total = sum(p.layer_self(layer) for layer in LAYERS) + p.remainder
        if abs(total - p.wall) > 1e-6 * max(p.wall, 1e-3):
            raise TraceError(f"layer self times + remainder = {total!r} s, traced wall = {p.wall!r} s")
    for metric in METRICS:
        absent = [key for key in metric.requires if key in missing]
        if absent:
            notes.append(f"{metric.name} absent: entry point {', '.join(absent)} not found")
            continue
        per_pass = [metric.compute(p) for p in passes]
        if metric.is_count:
            if len(set(per_pass)) != 1:
                raise TraceError(f"count {metric.name} differs between traced passes: {per_pass}")
            values[metric.name] = per_pass[0]
        else:
            values[metric.name] = statistics.median(per_pass)
        units[metric.name] = metric.unit
    return values, units, notes
