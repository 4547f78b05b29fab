"""Command-line interface: ``stats``, ``synth``, ``replay`` and ``grid``.

Exit codes are a stable contract: 0 success, 2 usage/config/parse errors,
3 dataset-shape errors (too little history to replay), 1 internal failures.
All commands honor ``--seed``; when omitted, a fixed documented constant is
used so default runs are reproducible (``grid`` first takes its config's
``seed``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import make_dataclass
from pathlib import Path

from . import __version__
from .bench import (
    DEFAULT_FRACTIONS,
    GridSpec,
    _fmt,
    _make_out_dir,
    _write_atomic,
    emit_report,
    run_grid,
    summary_dict,
    write_canonical,
)
from .config import load_config, read_dataclass
from .domain import TestHistory, average_suite_duration
from .errors import (
    AlphaOutOfRange,
    ConfigError,
    HistoryTooShort,
    IngestError,
    NonPositiveBudget,
    NoPriorHistory,
    TestPrioError,
    ValidationError,
)
from .features import FeatureConfig
from .ingest import (
    ColumnMapping,
    SyntheticSpec,
    dataset_stats,
    generate_synthetic,
    parse_external,
    parse_canonical,
    preset_mapping_path,
)
from .metrics import aggregate
from .rankers import PARAM_TYPES, RankerKind
from .replay import DEFAULT_SEED, ReplayConfig, check_history_length, walk_forward

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DATASET = 3

_USAGE_ERRORS = (IngestError, ConfigError, ValidationError, ValueError,
                 NonPositiveBudget, AlphaOutOfRange,
                 FileNotFoundError, IsADirectoryError, PermissionError)
_DATASET_ERRORS = (HistoryTooShort, NoPriorHistory)


def _load_history(path: str, mapping_arg: str | None) -> TestHistory:
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with source.open("rb") as fh:
        if mapping_arg is None:
            return parse_canonical(fh)
        mapping_path = Path(mapping_arg)
        if not mapping_path.exists():
            mapping_path = preset_mapping_path(mapping_arg)
        return parse_external(fh, ColumnMapping.from_file(mapping_path))


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = dataset_stats(_load_history(args.input, args.mapping))
    if args.json:
        print(json.dumps(stats.as_dict(), sort_keys=True))
    else:
        print(f"tests:            {stats.n_tests}")
        print(f"executions:       {stats.n_executions}")
        print(f"cycles:           {stats.n_cycles}")
        print(f"failed fraction:  {stats.failed_execution_fraction:.6f}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec.from_config(load_config(args.spec))
    history = generate_synthetic(spec, args.seed)
    write_canonical(history, args.out)
    if args.json:
        print(json.dumps(dataset_stats(history).as_dict(), sort_keys=True))
    else:
        print(f"wrote {history.n_executions} executions over {history.n_cycles} "
              f"cycles to {args.out}")
    return EXIT_OK


def _ranker_kind(name: str) -> RankerKind:
    try:
        return RankerKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in RankerKind)
        raise ConfigError(f"unknown ranker {name!r}; valid kinds: {valid}") from None


def _cmd_replay(args: argparse.Namespace) -> int:
    history = _load_history(args.input, args.mapping)
    kind = _ranker_kind(args.ranker)
    budget = args.budget_frac * average_suite_duration(history)
    cfg = ReplayConfig(
        ranker=kind,
        budget_s=budget,
        history_fraction=args.history_frac,
        eval_fraction=args.eval_frac,
        base_seed=args.seed,
    )
    check_history_length(history)
    out = _make_out_dir(args.out) if args.out else None  # fail before the walk, not after
    outcomes = walk_forward(history, cfg, workers=args.workers)
    summary = aggregate(outcomes)
    doc = {
        "ranker": kind.value,
        "history_fraction": args.history_frac,
        "budget_fraction": args.budget_frac,
        "budget_s": budget,
        "seed": args.seed,
        **summary_dict(summary),
    }
    del doc["napfd_defined"]  # not in replay's summary; the golden summary pins its keys

    if out is not None:
        _write_atomic(out / "summary.json",
                      (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())
        rows = ["cycle_id,faults_present,faults_detected,executed,elapsed_s,"
                "apfd,napfd,tdff_pct,tdlf_pct,train_s,rank_s,degenerate"]
        for o in outcomes:
            met = o.metrics
            rows.append(",".join(map(_fmt, (
                o.cycle_id, o.faults_present, o.faults_detected, o.executed, o.elapsed_s,
                met.apfd, met.napfd, met.tdff_pct, met.tdlf_pct, o.train_seconds,
                o.rank_seconds, int(o.degenerate),
            ))))
        _write_atomic(out / "cycles.csv", ("\n".join(rows) + "\n").encode())

    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        mean = "undefined" if doc["mean_apfd"] is None else f"{doc['mean_apfd']:.4f}"
        print(f"ranker {kind.value}: {summary.cycles} cycles, mean APFD {mean} "
              f"({summary.apfd_defined} defined)")
    return EXIT_OK


# The keys of a grid config; ``<kind>.*`` is read for every kind, listed or not.
_GridFile = make_dataclass("_GridFile", [
    ("rankers", str, ""),  # comma-separated kinds; blank for all six
    ("history_fractions", tuple[float, ...], DEFAULT_FRACTIONS),
    ("budget_fractions", tuple[float, ...], DEFAULT_FRACTIONS),
    ("eval_fraction", float, 0.2),
    ("seed", int, DEFAULT_SEED),
    ("features", FeatureConfig, FeatureConfig()),
    *((kind.value, cls, cls()) for kind, cls in PARAM_TYPES.items()),
], frozen=True)


def _grid_spec_from_args(args: argparse.Namespace) -> GridSpec:
    cfg = read_dataclass(_GridFile, load_config(args.config) if args.config else {})
    names = [t.strip() for t in cfg.rankers.split(",") if t.strip()]
    kinds = [_ranker_kind(n) for n in names] if names else list(RankerKind)
    return GridSpec(
        rankers=tuple((k, getattr(cfg, k.value)) for k in kinds),
        history_fractions=cfg.history_fractions,
        budget_fractions=cfg.budget_fractions,
        eval_fraction=cfg.eval_fraction,
        base_seed=cfg.seed if args.seed is None else args.seed,
        features=cfg.features,
    )


def _cmd_grid(args: argparse.Namespace) -> int:
    history = _load_history(args.input, args.mapping)
    spec = _grid_spec_from_args(args)
    check_history_length(history)
    _make_out_dir(args.out_dir)  # fail before the grid, not after
    result = run_grid(history, spec, workers=args.workers)
    paths = emit_report(result, args.out_dir)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="testprio",
        description="History-based test case prioritization replay and benchmark tool",
    )
    parser.add_argument("--version", action="version", version=f"testprio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset statistics of a history file")
    p_stats.add_argument("input")
    p_stats.add_argument("--mapping", help="column mapping file, or preset name (abb, google)")
    p_stats.add_argument("--json", action="store_true")
    p_stats.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help="accepted for interface uniformity; parsing is deterministic")
    p_stats.set_defaults(func=_cmd_stats)

    p_synth = sub.add_parser("synth", help="generate a synthetic history file")
    p_synth.add_argument("spec", help="synthetic spec in key-value config format")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_synth.add_argument("--json", action="store_true",
                         help="print the generated history's stats as JSON")
    p_synth.set_defaults(func=_cmd_synth)

    p_replay = sub.add_parser("replay", help="walk-forward replay of one configuration")
    p_replay.add_argument("input")
    p_replay.add_argument("--ranker", required=True,
                          help="one of: " + ", ".join(k.value for k in RankerKind))
    p_replay.add_argument("--history-frac", type=float, default=0.6)
    p_replay.add_argument("--budget-frac", type=float, default=1.0)
    p_replay.add_argument("--eval-frac", type=float, default=0.2)
    p_replay.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_replay.add_argument("--mapping")
    p_replay.add_argument("--workers", type=int, default=None,
                          help="processes for a trained ranker's eval cycles "
                               "(default: one per eval cycle up to one more "
                               "than the usable CPUs, else one per CPU); "
                               "outputs do not depend on it")
    p_replay.add_argument("--out", help="directory for cycles.csv and summary.json")
    p_replay.add_argument("--json", action="store_true")
    p_replay.set_defaults(func=_cmd_replay)

    p_grid = sub.add_parser("grid", help="full ranker x history x budget benchmark grid")
    p_grid.add_argument("input")
    p_grid.add_argument("--config", help="grid spec in key-value config format")
    p_grid.add_argument("--workers", type=int, default=1)
    p_grid.add_argument("--out-dir", default="grid-report")
    p_grid.add_argument("--seed", type=int, default=None,
                        help=f"default: the config's seed, else {DEFAULT_SEED}")
    p_grid.add_argument("--mapping")
    p_grid.set_defaults(func=_cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    try:
        return args.func(args)
    except _DATASET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TestPrioError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
