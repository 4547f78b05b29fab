"""Per-cycle and aggregate prioritization metrics.

APFD rewards orderings that place failing tests early; NAPFD extends it to
budget-cut prefixes by scaling with the fraction of faults actually
detected.  TDFF/TDLF report the simulated time to the first/last detected
fault as a percentage of the cycle's budget, from the executed prefix's
columns.  Each failing test counts as one unique fault (the histories carry
no fault-to-test mapping).

Metrics that are undefined for a cycle (no faults present, no fault
detected) are reported as ``None`` and excluded from aggregation, never
imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyOutcomeList,
    NoFaults,
    NonPositiveBudget,
    PositionOutOfRange,
)


@dataclass(frozen=True)
class CycleMetrics:
    apfd: float | None
    napfd: float | None
    tdff_pct: float | None
    tdlf_pct: float | None
    faults_present: int
    faults_detected: int


def apfd(fail_positions: Sequence[int], n: int) -> float:
    """APFD = 1 - sum(TF_i) / (n*m) + 1/(2n) for 1-based fault positions."""
    m = len(fail_positions)
    if m == 0:
        raise NoFaults("APFD undefined with no failing tests")
    if len(set(fail_positions)) != m:
        raise PositionOutOfRange("fault positions must be distinct")
    for p in fail_positions:
        if not (1 <= p <= n):
            raise PositionOutOfRange(f"position {p} outside [1, {n}]")
    return 1.0 - sum(fail_positions) / (n * m) + 1.0 / (2 * n)


def napfd(detected_positions: Sequence[int], n_executed: int, total_faults: int) -> float:
    """Budget-aware APFD over the executed prefix.

    p = detected/m scales the formula so undetected faults cost the full
    area; an empty prefix scores 0 by definition.
    """
    if total_faults <= 0:
        raise NoFaults("NAPFD undefined with no faults present")
    if n_executed == 0:
        return 0.0
    d = len(detected_positions)
    if len(set(detected_positions)) != d:
        raise PositionOutOfRange("detected positions must be distinct")
    for p in detected_positions:
        if not (1 <= p <= n_executed):
            raise PositionOutOfRange(f"position {p} outside [1, {n_executed}]")
    p = d / total_faults
    return p - sum(detected_positions) / (n_executed * total_faults) + p / (2 * n_executed)


def check_budget(budget: float) -> None:
    """Raise :class:`NonPositiveBudget` unless ``budget`` is positive and finite."""
    if not (budget > 0 and math.isfinite(budget)):
        raise NonPositiveBudget(f"budget must be positive, got {budget}")


def tdff(durations: Sequence[float], failed: Sequence[bool],
         budget: float) -> float | None:
    """Time (as % of budget) to reach the first executed failure, or ``None``
    when none failed; takes the executed prefix's columns in execution order."""
    check_budget(budget)
    return time_to_fault(np.cumsum(durations), failed, budget, last=False)


def tdlf(durations: Sequence[float], failed: Sequence[bool],
         budget: float) -> float | None:
    """Time (as % of budget) to reach the last executed failure."""
    check_budget(budget)
    return time_to_fault(np.cumsum(durations), failed, budget, last=True)


def time_to_fault(elapsed: np.ndarray, failed: Sequence[bool], budget: float,
                  last: bool) -> float | None:
    """TDFF (``last`` False) or TDLF from the executed prefix's cumulative
    durations ``elapsed``, for a budget already checked: the replay sums a
    ranking once for all budgets."""
    if len(elapsed) != len(failed):
        raise DimensionMismatch("durations and failed flags differ in length")
    hits = np.flatnonzero(failed)
    if not len(hits):
        return None
    return 100.0 * float(elapsed[hits[-1] if last else hits[0]]) / budget


@dataclass(frozen=True)
class AggregateSummary:
    """Means/stds over cycles where each metric is defined."""

    cycles: int
    mean_apfd: float | None
    std_apfd: float | None          # sample std; None when < 2 defined values
    apfd_defined: int
    mean_napfd: float | None
    napfd_defined: int
    mean_tdff_pct: float | None
    tdff_defined: int
    mean_tdlf_pct: float | None
    tdlf_defined: int
    mean_train_s: float
    mean_rank_s: float
    degenerate_count: int


def aggregate(outcomes: Iterable) -> AggregateSummary:
    """Aggregate a list of replay cycle outcomes (see ``replay.CycleOutcome``)."""
    outcomes = list(outcomes)
    if not outcomes:
        raise EmptyOutcomeList("nothing to aggregate")

    # each optional metric's values where defined; tdff_pct counts as tdff_defined
    defined = {name: [v for o in outcomes if (v := getattr(o.metrics, name)) is not None]
               for name in ("apfd", "napfd", "tdff_pct", "tdlf_pct")}
    apfds = defined["apfd"]
    return AggregateSummary(
        cycles=len(outcomes),
        std_apfd=float(np.std(apfds, ddof=1)) if len(apfds) > 1 else None,
        **{f"mean_{name}": float(np.mean(v)) if v else None for name, v in defined.items()},
        **{f"{name.removesuffix('_pct')}_defined": len(v) for name, v in defined.items()},
        mean_train_s=float(np.mean([o.train_seconds for o in outcomes])),
        mean_rank_s=float(np.mean([o.rank_seconds for o in outcomes])),
        degenerate_count=sum(1 for o in outcomes if o.degenerate),
    )
