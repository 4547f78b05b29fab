"""testprio: history-based ML test case prioritization for CI, with a
walk-forward replay harness and a deterministic benchmark grid."""

__version__ = "0.1.0"

from .domain import (
    Cycle,
    HistoryWindow,
    TestHistory,
    average_suite_duration,
    slice_recent,
    validate_history,
)
from .features import (
    FeatureConfig,
    TrainingSet,
    build_training_set,
)
from .ingest import (
    ColumnMapping,
    DatasetStats,
    SyntheticSpec,
    dataset_stats,
    generate_synthetic,
    parse_canonical,
    parse_external,
    preset_mapping_path,
)
from .metrics import CycleMetrics, aggregate, apfd, napfd, tdff, tdlf
from .rankers import (
    Model,
    RankedSuite,
    RankerKind,
    fit_ann,
    fit_gbdt,
    fit_lambdarank,
    fit_svm,
    random_rank,
    rank_with_tie_break,
)
from .replay import (
    CycleOutcome,
    ReplayConfig,
    cut_by_budget,
    replay_cycle,
    walk_forward,
    walk_forward_budgets,
)

__all__ = [
    "ColumnMapping",
    "CycleMetrics",
    "Cycle",
    "CycleOutcome",
    "DatasetStats",
    "FeatureConfig",
    "HistoryWindow",
    "Model",
    "RankedSuite",
    "RankerKind",
    "ReplayConfig",
    "SyntheticSpec",
    "TestHistory",
    "TrainingSet",
    "aggregate",
    "apfd",
    "average_suite_duration",
    "build_training_set",
    "cut_by_budget",
    "dataset_stats",
    "fit_ann",
    "fit_gbdt",
    "fit_lambdarank",
    "fit_svm",
    "generate_synthetic",
    "napfd",
    "parse_canonical",
    "parse_external",
    "preset_mapping_path",
    "random_rank",
    "rank_with_tie_break",
    "replay_cycle",
    "slice_recent",
    "tdff",
    "tdlf",
    "validate_history",
    "walk_forward",
    "walk_forward_budgets",
]
