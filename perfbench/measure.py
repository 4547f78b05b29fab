"""One measured run of one workload, in a process of its own.

Reads the workload's canonical CSV bytes on stdin, then alternates
replays of the parsed history with short bursts of parsing (set-up), so
both sample the same stretch of machine time.  Checks every output and
prints one JSON document on stdout.  ``run.py`` starts this
process so that its peak RSS covers the program only, not input
generation.

Usage: measure.py WORKLOAD VARIANT SECONDS TRACE SPANS_FILE
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from testprio import bench, ingest, replay  # noqa: E402
from testprio.domain import average_suite_duration  # noqa: E402
from testprio.rankers import RankerKind, params_from_config  # noqa: E402

SETUP_BURST_SECONDS = 0.2
SETUP_SHARE = 1 / 3  # largest share of the measuring time that parse bursts take
REPLAY_MIN_REPS = 2
POOL_WORKERS = 2

# The acceptance grid's reduced training effort (tests/data/acceptance_grid.cfg).
GRID_EFFORT = {
    "svm.epochs": "20",
    "ann.epochs": "15",
    "ann.restarts": "3",
    "lrn.epochs": "15",
    "lrn.restarts": "3",
    "gbdt.n_estimators": "40",
}
GRID_RANKERS = ("random", "rocket", "svm", "ann", "gbdt", "lrn")
BUDGET_FRACTIONS = bench.DEFAULT_FRACTIONS

# name -> (ranker, history fraction, eval fraction); None marks the grid
WORKLOADS = {
    "fixture-grid": None,
    "wide-rocket": ("rocket", 1.0, 0.1),
    "wide-gbdt": ("gbdt", 0.05, 0.0125),
}
GRID_EVAL_FRACTION = 0.01  # two eval cycles, both failing, on the cut fixture


def grid_spec(variant: int) -> bench.GridSpec:
    kinds = [RankerKind(name) for name in GRID_RANKERS]
    return bench.GridSpec(
        rankers=tuple((k, params_from_config(k, GRID_EFFORT)) for k in kinds),
        eval_fraction=GRID_EVAL_FRACTION,
        base_seed=variant,
    )


def replay_workload(workload: str, h, variant: int, out_dir: Path, workers: int = 1):
    """The measured replay: history -> outcomes (and, for the grid, the
    written report).  Calls go through module attributes so wrappers apply."""
    if WORKLOADS[workload] is None:
        result = bench.run_grid(h, grid_spec(variant), workers=workers)
        return bench.emit_report(result, out_dir)
    ranker, h_frac, e_frac = WORKLOADS[workload]
    b5 = average_suite_duration(h)
    cfg = replay.ReplayConfig(ranker=RankerKind(ranker), budget_s=b5,
                              history_fraction=h_frac, eval_fraction=e_frac,
                              base_seed=variant)
    return replay.walk_forward_budgets(h, cfg, [f * b5 for f in BUDGET_FRACTIONS])


# --- outcome checks -----------------------------------------------------------------

def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def pair_records(calls: list, cycles_by_id: dict) -> dict[str, dict]:
    """One record per evaluated (unit, cycle) pair from the observed
    ``walk_forward_budgets`` calls, with its output checks applied."""
    records = {}
    for args, kwargs, per_budget in calls:
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        budgets = args[2] if len(args) > 2 else kwargs["budgets"]
        unit = f"{cfg.ranker.value}/H{cfg.history_fraction}"
        for j, first in enumerate(per_budget[0]):
            outs = [per_budget[b][j] for b in range(len(budgets))]
            ids = first.ranking.test_ids
            cycle_ids = cycles_by_id[first.cycle_id]
            detected = [set(o.detected_positions) for o in outs]
            checks = {
                "ranking is a permutation of the cycle": (
                    len(ids) == len(cycle_ids) and set(ids) == set(cycle_ids)),
                "one ranking across budgets": all(o.ranking == first.ranking for o in outs),
                "elapsed within budget": all(o.elapsed_s <= b for o, b in zip(outs, budgets)),
                "detected faults nest": all(a <= b for a, b in zip(detected, detected[1:])),
            }
            records[f"{unit}/{first.cycle_id}"] = {
                "kind": cfg.ranker.value,
                "broken": [name for name, ok in checks.items() if not ok],
                "ranking": _digest(ids),
                "outcome": _digest((
                    [(e.test_id, e.score, e.duration_s) for e in first.ranking.entries],
                    [(o.executed, o.elapsed_s, o.detected_positions, o.metrics,
                      o.train_seconds, o.rank_seconds, o.degenerate) for o in outs],
                )),
                "prio_s": first.wall_train_seconds + first.wall_rank_seconds,
                "train_s": first.train_seconds,
                "wall_train_s": first.wall_train_seconds,
                "trains": cfg.ranker.trains,
                "degenerate": first.degenerate,
                "apfd": first.metrics.apfd,
                "napfd": [o.metrics.napfd for o in outs if o.metrics.napfd is not None],
            }
    return records


def read_reports(paths: dict) -> dict[str, bytes]:
    return {name: Path(p).read_bytes() for name, p in sorted(paths.items())}


# --- the run ----------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, variant: int, seconds: float, trace: bool,
                 out_dir: Path, data: bytes):
        self.workload = workload
        self.variant = variant
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.data = data
        self.attempted = 0
        self.failed = 0
        self.tracer = spans.Tracer()
        self.absent: list[str] = []
        self.pool_efficiency: float | None = None
        self.setup_times: list[float] = []
        self.parse_self: list[float] = []
        self.validate_self: list[float] = []

    def _fail_unless(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    # set-up: bytes -> validated history
    def parse_burst(self):
        """Parse the bytes at least once and for at least
        ``SETUP_BURST_SECONDS``; returns the last history.  Bursts run
        between replays, so set-up samples the same machine speed phases
        as the replays do."""
        t_burst = time.perf_counter()
        while True:
            h = inst = None
            if self.trace:
                self.tracer.run = f"setup-{len(self.setup_times)}"
                inst = spans.install(self.tracer)
            t0 = time.perf_counter()
            try:
                h = ingest.parse_canonical(self.data)
            finally:
                elapsed = time.perf_counter() - t0
                if inst is not None:
                    inst.restore()
            self.setup_times.append(elapsed)
            self.attempted += 1
            if self.trace:
                layers = spans.layer_self_times(self.tracer.spans, self.tracer.run)
                self.parse_self.append(layers.get("ingest.parse_s", 0.0))
                self.validate_self.append(layers.get("domain.validate_s", 0.0))
                self.absent = inst.absent
            if time.perf_counter() - t_burst >= SETUP_BURST_SECONDS:
                return h

    def replay_rep(self, h, traced: bool, tag: str, workers: int = 1):
        """One replay; returns its seconds, its checked pair records, the
        report bytes (grid only) and the spans pool workers sent back."""
        calls: list = []
        rep_dir = Path(tempfile.mkdtemp(prefix="report-", dir=self.out_dir))
        if traced:
            self.tracer.run = tag
        inst = spans.install(self.tracer if traced else None,
                             walks=calls if workers == 1 else None,
                             spool_dir=rep_dir if traced and workers > 1 else None)
        try:
            t0 = time.perf_counter()
            root = self.tracer.open("trace.root") if traced else -1
            result = replay_workload(self.workload, h, self.variant, rep_dir, workers)
            if traced:
                self.tracer.close(root)
            elapsed = time.perf_counter() - t0
        finally:
            inst.restore()
        reports = read_reports(result) if isinstance(result, dict) else None
        worker_spans = []
        for path in rep_dir.glob("*.jsonl"):
            worker_spans.extend(spans.read_jsonl(path))
        shutil.rmtree(rep_dir)
        # the calls hold the history: keep only the records built from them
        return elapsed, pair_records(calls, self.cycles_by_id), reports, worker_spans

    def measure(self) -> dict:
        h = self.parse_burst()
        self.cycles_by_id = {c.cycle_id: c.test_ids for c in h.cycles}
        self.history = ingest.dataset_stats(h).as_dict()

        untraced, traced = [], []   # (seconds, pair records, run id) per replay
        reports0 = None
        setup_before = sum(self.setup_times)
        t_start = time.perf_counter()
        while True:
            for is_traced in ((False, True) if self.trace else (False,)):
                tag = f"replay-{len(traced)}"
                secs, records, reports, _ = self.replay_rep(h, is_traced, tag)
                (traced if is_traced else untraced).append((secs, records, tag))
                if reports is not None:
                    if reports0 is None:
                        reports0 = reports
                    else:
                        self._fail_unless(reports == reports0, "report bytes differ between replays")
            if len(untraced) == 1:
                # peak of one parse and one replay; later re-parses land in a
                # heap the replays have fragmented, a cost of this loop only
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - t_start
            if sum(self.setup_times) - setup_before < SETUP_SHARE * elapsed:
                # release the history first, so that only one is resident
                h = None
                h = self.parse_burst()
                elapsed = time.perf_counter() - t_start
            last = elapsed / len(untraced)
            if self.trace:
                # traced runs feed per-layer numbers only: stop when the
                # next round would overrun the budget
                if elapsed + last > self.seconds:
                    break
            elif len(untraced) >= REPLAY_MIN_REPS and elapsed >= self.seconds:
                break

        base = untraced[0][1]
        for _, records, _ in untraced + traced:
            for key, rec in records.items():
                same = key in base and rec["outcome"] == base[key]["outcome"]
                broken = rec["broken"] + ([] if same else ["same outcome as the first replay"])
                self._fail_unless(not broken, f"{key}: {', '.join(broken)}")
            self._fail_unless(set(records) == set(base), "evaluated pairs differ between replays")
        self.pairs = base
        self.untraced = untraced
        self.traced = traced
        self.reports0 = reports0
        if self.trace and WORKLOADS[self.workload] is None:
            self.pool_run(h)
        return self.metrics()

    def pool_run(self, h) -> None:
        """The grid on a process pool: report bytes must equal the serial
        run's (C8), and unit spans come back from the workers."""
        secs, _, reports, worker_spans = self.replay_rep(h, True, "grid-w2", POOL_WORKERS)
        self._fail_unless(reports == self.reports0, "pool report bytes differ from serial (C8)")
        grid = [s for s in self.tracer.spans if s.run == "grid-w2" and s.name == "bench.grid"]
        busy = sum(s.end - s.start for s in worker_spans if s.name == "bench.unit")
        self.pool_efficiency = (
            busy / (POOL_WORKERS * (grid[0].end - grid[0].start)) if grid and busy else None
        )

    # --- metrics ---

    def per_pair_median(self, field: str) -> dict[str, float]:
        return {key: statistics.median(r[key][field] for _, r, _ in self.untraced if key in r)
                for key in self.pairs}

    def metrics(self) -> dict:
        if self.trace:
            return self.layer_metrics()
        pairs = self.pairs.values()
        apfds = [p["apfd"] for p in pairs if p["apfd"] is not None]
        napfds = [v for p in pairs for v in p["napfd"]]
        if not apfds or not napfds:
            raise RuntimeError("no evaluated cycle contains a failure")
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "replay_s": (statistics.median(s for s, _, _ in self.untraced), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "apfd_mean": (statistics.fmean(apfds), "1"),
            "napfd_mean": (statistics.fmean(napfds), "1"),
        }

    def layer_metrics(self) -> dict:
        # the median traced replay supplies every self time, so they sum
        # to its duration
        secs, records, tag = sorted(self.traced, key=lambda r: r[0])[(len(self.traced) - 1) // 2]
        layers = spans.layer_self_times(self.tracer.spans, tag)
        rep = [s for s in self.tracer.spans if s.run == tag]
        counts = {name: n for (run, name), n in self.tracer.counts.items() if run == tag}
        parse_rows = self.history["n_executions"]

        out: dict[str, tuple[float, str]] = {}
        for metric in sorted(set(spans.SELF_TIME_METRIC.values())):
            out[metric] = (layers.get(metric, 0.0), "s")
        out["ingest.parse_s"] = (statistics.median(self.parse_self), "s")
        out["domain.validate_s"] = (statistics.median(self.validate_self), "s")
        out["ingest.rows_per_s"] = (parse_rows / statistics.median(self.setup_times), "1/s")
        out["features.examples"] = (counts.get("features.training_set", 0), "count")

        fits = [p for p in records.values() if p["trains"]]
        out["rankers.fit.calls"] = (sum(1 for s in rep if s.name.startswith("rankers.fit.")), "count")
        out["rankers.degenerate_frac"] = (
            sum(p["degenerate"] for p in fits) / len(fits) if fits else 0.0, "1")
        out["replay.cut.calls"] = (sum(1 for s in rep if s.name == "replay.cut"), "count")
        out["replay.cycles"] = (len(records), "count")
        out["replay.rankings_changed"] = (self.rankings_changed(), "count")
        wall_train = self.per_pair_median("wall_train_s")
        for kind in spans.FIT_KINDS:
            keys = [k for k, p in self.pairs.items() if p["kind"] == kind]
            wall = sum(wall_train[k] for k in keys)
            out[f"replay.cost_model_ratio.{kind}"] = (
                sum(self.pairs[k]["train_s"] for k in keys) / wall if wall else 0.0, "1")

        units = [s.end - s.start for s in rep if s.name == "bench.unit"]
        out["bench.units"] = (len(units), "count")
        out["bench.unit_s.max"] = (max(units, default=0.0), "s")
        out["bench.emit_bytes"] = (counts.get("bench.emit", 0), "count")
        pool = self.pool_efficiency
        out["bench.pool_efficiency"] = (pool if pool is not None else 0.0, "1")
        untraced_s = statistics.median(s for s, _, _ in self.untraced)
        out["trace.replay_s"] = (secs, "s")
        out["trace.overhead_frac"] = (
            statistics.median(s for s, _, _ in self.traced) / untraced_s - 1.0, "1")

        # a metric is absent when every call site feeding it is
        sources: dict[str, set[str]] = {}
        for name, metric in spans.SELF_TIME_METRIC.items():
            sources.setdefault(metric, set()).add(name)
        gone = {m for m, names in sources.items() if names <= set(self.absent)}
        gone |= {"bench.units", "bench.unit_s.max"} if "bench.unit" in self.absent else set()
        gone |= {"bench.pool_efficiency"} if WORKLOADS[self.workload] is None and pool is None else set()
        return {k: v for k, v in out.items() if k not in gone}

    def rankings_changed(self) -> int:
        path = HERE / "reference" / f"{self.workload}.json"
        try:
            ref = json.loads(path.read_text()).get(str(self.variant))
        except FileNotFoundError:
            ref = None
        if ref is None:
            return len(self.pairs)
        return sum(1 for k, p in self.pairs.items() if ref.get(k) != p["ranking"])

    def info(self) -> dict:
        samples = list(self.per_pair_median("prio_s").values())
        t = spans.tail(samples)
        prio = {"p50": statistics.median(samples), "n": len(samples),
                "tail": None if t is None else {"value": t[0], "percentile": t[1]}}
        return {
            "variant": self.variant,
            "history": self.history,
            "setup_reps": len(self.setup_times),
            "replay_reps": len(self.untraced),
            "traced_reps": len(self.traced),
            "prio_s": prio,
            "rankings": {k: p["ranking"] for k, p in self.pairs.items()},
            "rankings_changed": self.rankings_changed(),
            "absent": self.absent,
        }


def main(argv: list[str]) -> int:
    workload, variant, seconds, trace, spans_path = argv
    spans_path = Path(spans_path)
    run = Run(workload, int(variant), float(seconds), trace == "1", spans_path.parent,
              sys.stdin.buffer.read())
    metrics = run.measure()
    if run.trace:
        spans.write_jsonl(run.tracer.spans, spans_path)
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": run.info(),
    }))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "testprio").is_dir() or not Path(
            sys.modules["testprio"].__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"testprio sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
