"""Span tracer that times the program's layers from outside.

``install`` replaces each public call site listed in ``CALL_SITES`` with a
wrapper that records a span (name, start, end, parent, run id) around the
original call, in every ``testprio`` module namespace that refers to it.
The same wrapper can also hand each replay call's result to the caller, so
untraced replays are checked through it too.
Nothing inside the program changes; ``restore`` puts the originals back.  A
call site that a later refactor removes is reported as absent, never as an
error.

Spans stay in memory; ``write_jsonl`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# span name, defining module, attribute, work count taken from the result
CALL_SITES = (
    ("ingest.parse", "testprio.ingest", "parse_canonical", "executions"),
    ("domain.validate", "testprio.domain", "validate_history", None),
    ("features.training_set", "testprio.features", "build_training_set", "examples"),
    ("features.matrix", "testprio.features", "feature_matrix", None),
    ("rankers.score", "testprio.rankers.base", "score_matrix", None),
    ("rankers.rocket", "testprio.rankers.base", "rocket_priorities", None),
    ("rankers.tie_break", "testprio.rankers.base", "rank_with_tie_break", None),
    ("rankers.random", "testprio.rankers.base", "random_rank", None),
    ("replay.walk", "testprio.replay", "walk_forward_budgets", "pairs"),
    ("replay.cut", "testprio.replay", "cut_by_budget", None),
    ("metrics.score", "testprio.metrics", "apfd", None),
    ("metrics.score", "testprio.metrics", "napfd", None),
    ("metrics.score", "testprio.metrics", "tdff", None),
    ("metrics.score", "testprio.metrics", "tdlf", None),
    ("metrics.aggregate", "testprio.metrics", "aggregate", None),
    ("bench.grid", "testprio.bench", "run_grid", None),
    ("bench.unit", "testprio.bench", "_run_unit", None),
    ("bench.emit", "testprio.bench", "emit_report", "bytes"),
)
FIT_KINDS = ("svm", "ann", "gbdt", "lrn")  # keys of rankers.FITTERS, by value

# Reported self-time metric of each span name.  bench.unit is the grid's own
# per-unit glue, so it counts as grid time.
SELF_TIME_METRIC = {
    "ingest.parse": "ingest.parse_s",
    "domain.validate": "domain.validate_s",
    "features.training_set": "features.training_set_s",
    "features.matrix": "features.matrix_s",
    **{f"rankers.fit.{k}": f"rankers.fit_s.{k}" for k in FIT_KINDS},
    "rankers.score": "rankers.score_s",
    "rankers.rocket": "rankers.rocket_s",
    "rankers.tie_break": "rankers.tie_break_s",
    "rankers.random": "rankers.random_s",
    "replay.walk": "replay.self_s",
    "replay.cut": "replay.cut_s",
    "metrics.score": "metrics.score_s",
    "metrics.aggregate": "metrics.aggregate_s",
    "bench.grid": "bench.grid_s",
    "bench.unit": "bench.grid_s",
    "bench.emit": "bench.emit_s",
    "trace.root": "trace.other_s",
}


def _count(kind: str | None, result) -> int:
    if kind == "executions":
        return result.n_executions
    if kind == "examples":
        return result.n_examples
    if kind == "pairs":
        return len(result[0]) if result else 0
    if kind == "bytes":
        return sum(p.stat().st_size for p in result.values())
    return 0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root
    run: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}  # (run, span name) -> work
        self.run = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def add_count(self, name: str, n: int) -> None:
        key = (self.run, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def spool_to(self, fn, directory: Path):
        """Wrap a pool worker's task entry so the spans each task records
        in the worker are appended to ``directory/<pid>.jsonl``.  Parent
        indices in those spans are only meaningful within one task."""
        @functools.wraps(fn)
        def spooled(*args, **kwargs):
            first = len(self.spans)
            try:
                return fn(*args, **kwargs)
            finally:
                path = directory / f"{os.getpid()}.jsonl"
                write_jsonl(self.spans[first:], path, mode="a")
                del self.spans[first:]

        return spooled


def wrap(fn, tracer: Tracer | None, name: str, count: str | None = None,
         sink: list | None = None):
    """Wrap ``fn`` so each call records a span on ``tracer`` (if any) and
    appends its (args, kwargs, result) to ``sink`` (if any)."""
    # functools.wraps keeps the original's module and qualified name, so
    # pool workers can still unpickle a wrapped task function by name.
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        index = tracer.open(name) if tracer is not None else -1
        try:
            result = fn(*args, **kwargs)
        finally:
            if tracer is not None:
                tracer.close(index)
        if tracer is not None and count is not None:
            tracer.add_count(name, _count(count, result))
        if sink is not None:
            sink.append((args, kwargs, result))
        return result

    return wrapped


def _replace_everywhere(original, replacement) -> list[tuple[object, str]]:
    """Point every ``testprio`` module attribute that is ``original`` at
    ``replacement``; returns the (module, attribute) pairs changed."""
    changed = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "testprio" or mod_name.startswith("testprio.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


class Installation:
    """The wrappers one ``install`` put in place, and the layers it found absent."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []  # (owner, key, original)

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


def install(tracer: Tracer | None, walks: list | None = None,
            spool_dir: Path | None = None) -> Installation:
    """Wrap the call sites.  With a tracer every site in ``CALL_SITES`` and
    every fitter records spans; with ``walks`` each ``walk_forward_budgets``
    call's (args, kwargs, result) is appended there; with ``spool_dir``
    pool workers write their spans to files in it."""
    inst = Installation()
    found = set()
    for name, mod_name, attr, count in CALL_SITES:
        sink = walks if name == "replay.walk" else None
        if tracer is None and sink is None:
            continue
        try:
            original = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError):
            continue
        found.add(name)
        wrapper = wrap(original, tracer, name, count, sink)
        for module, key in _replace_everywhere(original, wrapper):
            inst._undo.append((module, key, original))
    if tracer is None:
        return inst
    inst.absent = sorted({name for name, *_ in CALL_SITES} - found)

    try:
        fitters = importlib.import_module("testprio.rankers").FITTERS
    except (ImportError, AttributeError):
        fitters = {}
    for kind in FIT_KINDS:
        key = next((k for k in fitters if getattr(k, "value", k) == kind), None)
        if key is None:
            inst.absent.append(f"rankers.fit.{kind}")
            continue
        inst._undo.append((fitters, key, fitters[key]))
        fitters[key] = wrap(fitters[key], tracer, f"rankers.fit.{kind}")

    if spool_dir is not None:
        bench = sys.modules.get("testprio.bench")
        original = getattr(bench, "_run_unit_in_worker", None)
        if original is None:
            inst.absent.append("bench.worker")
        else:
            inst._undo.append((bench, "_run_unit_in_worker", original))
            bench._run_unit_in_worker = tracer.spool_to(original, spool_dir)
    return inst


# --- arithmetic -------------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_self_times(spans: list[Span], run: str) -> dict[str, float]:
    """Self time per reported metric over the spans of one run; span names
    without a metric are summed under ``trace.other_s``."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.run == run:
            metric = SELF_TIME_METRIC.get(s.name, "trace.other_s")
            out[metric] = out.get(metric, 0.0) + t
    return out


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, n); None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# --- output -----------------------------------------------------------------------

def write_jsonl(spans: list[Span], path: Path, mode: str = "w") -> None:
    with open(path, mode) as f:
        for s in spans:
            f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "run": s.run}) + "\n")


def read_jsonl(path: Path) -> list[Span]:
    with open(path) as f:
        return [Span(**json.loads(line)) for line in f if line.strip()]
