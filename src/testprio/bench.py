"""Deterministic experiment grid: rankers x history fractions x budgets.

Each (ranker, history fraction) pair is one independent work unit: a full
walk-forward replay whose per-cycle rankings are shared across the budget
axis (budgets only cut the ranking, so detected faults nest as budgets
grow).  The random ranker ignores history, so it is computed once and
replicated across the history axis.  With ``workers`` above 1 the units run
on a process pool, the likely longest first; each unit's walk then runs its
eval cycles serially, so pools never nest.  Serially, each trained ranker's
eval windows are first fitted across all its units, in groups under the
serial walk's row cap (``replay.fit_walks``), and each unit's walk then
ranks its fitted cycles; every model is the one its unit alone fits.

Seeds: every unit's base seed is ``mix_seed(base_seed, ranker_name,
h_index)`` (the random ranker pins ``h_index`` to 0).  The budget axis
deliberately takes no part in seeding, otherwise rankings would differ
between budgets of the same cell.  Adding rankers or history fractions
never perturbs other units' randomness.

Reports (CSV, JSON, plot data files) are pure functions of the grid result
and are written atomically; two runs of the same spec produce byte-identical
files regardless of worker count.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Iterator

from . import __version__
from .domain import DEFAULT_FRACTIONS, TestHistory, average_suite_duration
from .errors import IncompleteGrid, IoFailure
from .features import FeatureConfig
from .ingest import dataset_stats
from .metrics import AggregateSummary, aggregate
from .rankers import RankerKind, RankerParams
from .replay import (
    DEFAULT_SEED,
    ReplayConfig,
    fit_walks,
    pool_map,
    pool_state,
    walk_forward_budgets,
)
from .seeding import mix_seed

REPORT_SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "ranker,h_index,h_fraction,b_index,b_seconds,mean_apfd,std_apfd,apfd_defined,"
    "mean_napfd,mean_tdff_pct,tdff_defined,mean_tdlf_pct,tdlf_defined,"
    "mean_train_s,mean_rank_s,cycles_evaluated,degenerate_cells"
)


@dataclass(frozen=True)
class GridSpec:
    rankers: tuple[tuple[RankerKind, RankerParams], ...]
    history_fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    budget_fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    eval_fraction: float = 0.2
    base_seed: int = DEFAULT_SEED
    features: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self) -> None:
        if not self.rankers:
            raise ValueError("grid needs at least one ranker")
        names = [kind.value for kind, _ in self.rankers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ranker kinds in grid spec")
        for axis_name, axis in (("history_fractions", self.history_fractions),
                                ("budget_fractions", self.budget_fractions)):
            if not axis:
                raise ValueError(f"{axis_name} must be non-empty")
            for frac in axis:
                if not (0.0 < frac <= 1.0):
                    raise ValueError(f"{axis_name} values must be in (0, 1], got {frac}")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{axis_name} must be strictly increasing, got {axis}")

    def config_hash(self) -> str:
        """Stable digest of everything that can change the grid's results."""
        parts = [f"schema={REPORT_SCHEMA_VERSION}"]
        for kind, params in self.rankers:
            items = ",".join(
                f"{f.name}={getattr(params, f.name)!r}" for f in fields(params)
            )
            parts.append(f"ranker.{kind.value}=({items})")
        parts.append(f"history_fractions={self.history_fractions!r}")
        parts.append(f"budget_fractions={self.budget_fractions!r}")
        parts.append(f"eval_fraction={self.eval_fraction!r}")
        parts.append(f"base_seed={self.base_seed}")
        parts.append(f"features=({','.join(map(repr, astuple(self.features)))})")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass(frozen=True)
class GridResult:
    ranker_names: tuple[str, ...]
    history_fractions: tuple[float, ...]
    budgets_s: tuple[float, ...]
    eval_fraction: float
    base_seed: int
    cells: dict[tuple[str, int, int], AggregateSummary]  # (ranker, h, b) 0-based
    provenance: dict

    def cell(self, ranker: str, h_index: int, b_index: int) -> AggregateSummary:
        return self.cells[(ranker, h_index, b_index)]


# --- grid execution -------------------------------------------------------------

# Pool order, so that no long unit starts last: the kinds by measured fit
# cost, each from its largest history window down.
_LONGEST_FIRST = (RankerKind.ANN, RankerKind.LRN, RankerKind.GBDT, RankerKind.SVM,
                  RankerKind.ROCKET, RankerKind.RANDOM)


def _unit_seed(base_seed: int, kind: RankerKind, h_idx: int) -> int:
    if kind is RankerKind.RANDOM:
        h_idx = 0  # history axis is not applicable to random ordering
    return mix_seed(base_seed, kind.value, h_idx)


def _unit_cfg(spec: GridSpec, budgets: tuple[float, ...], kind: RankerKind,
              params: RankerParams, h_idx: int) -> ReplayConfig:
    return ReplayConfig(
        ranker=kind,
        budget_s=budgets[-1],
        history_fraction=spec.history_fractions[h_idx],
        eval_fraction=spec.eval_fraction,
        base_seed=_unit_seed(spec.base_seed, kind, h_idx),
        params=params,
        features=spec.features,
    )


def _run_unit(history: TestHistory, spec: GridSpec, budgets: tuple[float, ...],
              kind: RankerKind, params: RankerParams, h_idx: int,
              cycles: Iterator | None = None) -> list[AggregateSummary]:
    """One unit's walk, on ``cycles`` from :func:`replay.fit_walks` when
    given."""
    cfg = _unit_cfg(spec, budgets, kind, params, h_idx)
    per_budget = walk_forward_budgets(history, cfg, list(budgets), workers=1, cycles=cycles)
    return [aggregate(outcomes) for outcomes in per_budget]


def _run_unit_in_worker(task: tuple[int, int]) -> tuple[tuple[int, int], list]:
    history, spec, budgets = pool_state()
    r_idx, h_idx = task
    kind, params = spec.rankers[r_idx]
    return task, _run_unit(history, spec, budgets, kind, params, h_idx)


def run_grid(history: TestHistory, spec: GridSpec, workers: int = 1) -> GridResult:
    """Execute every cell of the grid; results are independent of worker
    count and execution order."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    b5 = average_suite_duration(history)
    budgets = tuple(frac * b5 for frac in spec.budget_fractions)

    tasks: list[tuple[int, int]] = []
    for r_idx, (kind, _) in enumerate(spec.rankers):
        if kind.history_dependent:
            tasks.extend((r_idx, h_idx) for h_idx in range(len(spec.history_fractions)))
        else:
            tasks.append((r_idx, 0))  # computed once, replicated across H
    tasks.sort(key=lambda t: (_LONGEST_FIRST.index(spec.rankers[t[0]][0]), -t[1]))

    results: dict[tuple[int, int], list[AggregateSummary]] = {}
    if workers <= 1 or len(tasks) == 1:
        # a trained ranker's windows are fitted across its units first
        for r_idx, units in itertools.groupby(tasks, key=lambda t: t[0]):
            units = list(units)
            kind, params = spec.rankers[r_idx]
            fitted = (fit_walks(history, [_unit_cfg(spec, budgets, kind, params, h_idx)
                                          for _, h_idx in units])
                      if kind.trains else [None] * len(units))
            for task, cycles in zip(units, fitted):
                results[task] = _run_unit(history, spec, budgets, kind, params, task[1],
                                          cycles)
    else:
        results.update(pool_map(_run_unit_in_worker, tasks, workers, (history, spec, budgets)))

    cells: dict[tuple[str, int, int], AggregateSummary] = {}
    for r_idx, (kind, _) in enumerate(spec.rankers):
        for h_idx in range(len(spec.history_fractions)):
            unit = results[(r_idx, h_idx if kind.history_dependent else 0)]
            for b_idx, summary in enumerate(unit):
                cells[(kind.value, h_idx, b_idx)] = summary

    stats = dataset_stats(history)
    provenance = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "config_hash": spec.config_hash(),
        "base_seed": spec.base_seed,
        "dataset": stats.as_dict(),
    }
    return GridResult(
        ranker_names=tuple(kind.value for kind, _ in spec.rankers),
        history_fractions=spec.history_fractions,
        budgets_s=budgets,
        eval_fraction=spec.eval_fraction,
        base_seed=spec.base_seed,
        cells=cells,
        provenance=provenance,
    )


def select_best_history(result: GridResult, ranker: str) -> int:
    """0-based index of the history fraction with the highest mean APFD at
    the full budget; ties go to the smallest (cheapest) history."""
    last_b = len(result.budgets_s) - 1
    best_idx = None
    best_value = None
    for h_idx in range(len(result.history_fractions)):
        key = (ranker, h_idx, last_b)
        if key not in result.cells:
            raise IncompleteGrid(f"missing cell {key}")
        mean = result.cells[key].mean_apfd
        value = -float("inf") if mean is None else mean
        if best_value is None or value > best_value:
            best_idx, best_value = h_idx, value
    return int(best_idx)


# --- report emission --------------------------------------------------------------

def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _csv_rows(result: GridResult) -> list[str]:
    rows = [CSV_COLUMNS]
    summary_columns = CSV_COLUMNS.split(",")[5:]  # the names after b_seconds
    for ranker in result.ranker_names:
        for h_idx, h_frac in enumerate(result.history_fractions):
            for b_idx, b_s in enumerate(result.budgets_s):
                cell = summary_dict(result.cells[(ranker, h_idx, b_idx)])
                rows.append(",".join([ranker, str(h_idx + 1), _fmt(h_frac), str(b_idx + 1),
                                      _fmt(b_s), *(_fmt(cell[k]) for k in summary_columns)]))
    return rows


# The two summary fields that reports carry under another name.
_REPORT_NAMES = {"cycles": "cycles_evaluated", "degenerate_count": "degenerate_cells"}


def summary_dict(s: AggregateSummary) -> dict:
    """A cell summary's fields under their report names."""
    return {_REPORT_NAMES.get(name, name): value for name, value in asdict(s).items()}


def report_json_doc(result: GridResult) -> dict:
    grid: dict = {}
    for ranker in result.ranker_names:
        by_h: dict = {}
        for h_idx, h_frac in enumerate(result.history_fractions):
            by_b: dict = {}
            for b_idx, b_s in enumerate(result.budgets_s):
                cell = summary_dict(result.cells[(ranker, h_idx, b_idx)])
                cell["b_seconds"] = b_s
                by_b[f"B{b_idx + 1}"] = cell
            by_h[f"H{h_idx + 1}"] = {"h_fraction": h_frac, "budgets": by_b}
        grid[ranker] = by_h
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "provenance": result.provenance,
        "eval_fraction": result.eval_fraction,
        "history_fractions": list(result.history_fractions),
        "budgets_s": list(result.budgets_s),
        "grid": grid,
    }


def _plot_history_rows(result: GridResult) -> list[str]:
    """Mean APFD against history size at the full budget, per ranker."""
    last_b = len(result.budgets_s) - 1
    rows = ["ranker,h_index,h_fraction,mean_apfd"]
    for ranker in result.ranker_names:
        for h_idx, h_frac in enumerate(result.history_fractions):
            s = result.cells[(ranker, h_idx, last_b)]
            rows.append(f"{ranker},{h_idx + 1},{_fmt(h_frac)},{_fmt(s.mean_apfd)}")
    return rows


def _plot_budget_rows(result: GridResult) -> list[str]:
    """Mean APFD against budget at each ranker's best history size."""
    rows = ["ranker,best_h_index,b_index,b_seconds,mean_apfd"]
    for ranker in result.ranker_names:
        best_h = select_best_history(result, ranker)
        for b_idx, b_s in enumerate(result.budgets_s):
            s = result.cells[(ranker, best_h, b_idx)]
            rows.append(
                f"{ranker},{best_h + 1},{b_idx + 1},{_fmt(b_s)},{_fmt(s.mean_apfd)}"
            )
    return rows


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _make_out_dir(out_dir: str | Path) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise IoFailure(f"cannot write to {out}")
    return out


def emit_report(result: GridResult, out_dir: str | Path) -> dict[str, Path]:
    """Write report.csv, report.json and the plot data files; returns the
    paths keyed by artifact name.  Byte-deterministic for a given result."""
    out = _make_out_dir(out_dir)

    missing = [
        (r, h, b)
        for r in result.ranker_names
        for h in range(len(result.history_fractions))
        for b in range(len(result.budgets_s))
        if (r, h, b) not in result.cells
    ]
    if missing:
        raise IncompleteGrid(f"missing cells: {missing[:3]}...")

    artifacts = {
        "report.csv": ("\n".join(_csv_rows(result)) + "\n").encode(),
        "report.json": (
            json.dumps(report_json_doc(result), sort_keys=True, indent=2) + "\n"
        ).encode(),
        "plot_apfd_by_history.csv": ("\n".join(_plot_history_rows(result)) + "\n").encode(),
        "plot_apfd_by_budget.csv": ("\n".join(_plot_budget_rows(result)) + "\n").encode(),
    }
    paths = {}
    for name, data in artifacts.items():
        path = out / name
        _write_atomic(path, data)
        paths[name] = path
    return paths


def _csv_field(value: str) -> str:
    if any(ch in value for ch in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def emit_canonical(h: TestHistory) -> bytes:
    """Canonical CSV bytes; round-trips through ``ingest.parse_canonical``."""
    lines = ["cycle_id,test_id,verdict,duration_s"]
    for cyc in h.cycles:
        for tid, failed, dur in zip(cyc.test_ids, cyc.failed, cyc.duration_s):
            verdict = "fail" if failed else "pass"
            lines.append(f"{cyc.cycle_id},{_csv_field(tid)},{verdict},{_fmt(float(dur))}")
    return ("\n".join(lines) + "\n").encode()


def write_canonical(h: TestHistory, path: str | Path) -> None:
    _write_atomic(Path(path), emit_canonical(h))
