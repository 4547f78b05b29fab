"""Core data model for CI test histories.

A :class:`TestHistory` is a chronologically ordered sequence of CI cycles.
Each cycle records, per test, a pass/fail verdict and an execution duration
in seconds.  A :class:`Cycle` holds its executions as three parallel
columns (test ids, bool failed flags, float64 durations), so that
histories with millions of executions stay cheap to hold and scan.

:func:`validate_history` codes each test id once, as its position in the
registry (first-run order); later stages index columns by these codes
(``TestHistory.codes``) instead of looking test ids up.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateCycleId,
    DuplicateTestInCycle,
    EmptyCycle,
    EmptyHistory,
    FractionOutOfRange,
    NonPositiveBudget,
    NonPositiveDuration,
)


@dataclass(frozen=True, eq=False)
class Cycle:
    """One CI cycle, stored column-wise.

    ``test_ids``, ``failed`` and ``duration_s`` are parallel: entry ``i``
    describes the i-th execution of the cycle, in recorded order.
    """

    cycle_id: int
    test_ids: tuple[str, ...]
    failed: np.ndarray      # bool, shape (n,)
    duration_s: np.ndarray  # float64, shape (n,)

    def __len__(self) -> int:
        return len(self.test_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cycle):
            return NotImplemented
        return (
            self.cycle_id == other.cycle_id
            and self.test_ids == other.test_ids
            and np.array_equal(self.failed, other.failed)
            and np.array_equal(self.duration_s, other.duration_s)
        )

    def __hash__(self) -> int:
        return hash((self.cycle_id, self.test_ids))


@dataclass(frozen=True, eq=False)
class TestHistory:
    """Validated CI history: cycles in strictly increasing cycle_id order plus
    a registry mapping every test id to its mean observed duration.
    ``codes[i][j]`` is the registry position of ``cycles[i].test_ids[j]``;
    being derived, codes take no part in equality."""

    cycles: tuple[Cycle, ...]
    registry: dict[str, float]  # test_id -> mean duration over all its runs
    codes: tuple[np.ndarray, ...]  # int64 per cycle, parallel to its test_ids

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def n_tests(self) -> int:
        return len(self.registry)

    @property
    def n_executions(self) -> int:
        return sum(len(c) for c in self.cycles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestHistory):
            return NotImplemented
        return self.cycles == other.cycles and self.registry == other.registry

    def __hash__(self) -> int:
        return hash(tuple(c.cycle_id for c in self.cycles))


@dataclass(frozen=True)
class HistoryWindow:
    """Half-open range ``[lo, hi)`` of cycle positions over ``source.cycles``,
    covering the most recent cycles of interest."""

    source: TestHistory
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi <= self.source.n_cycles):
            raise ValueError(
                f"window [{self.lo}, {self.hi}) invalid for {self.source.n_cycles} cycles"
            )

    @property
    def cycles(self) -> tuple[Cycle, ...]:
        return self.source.cycles[self.lo : self.hi]

    @property
    def codes(self) -> tuple[np.ndarray, ...]:
        return self.source.codes[self.lo : self.hi]

    @property
    def n_cycles(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class BudgetSchedule:
    """Five time budgets at 20%..100% of the full budget ``b5``."""

    b5: float
    budgets: tuple[float, float, float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        if not (self.b5 > 0 and math.isfinite(self.b5)):
            raise NonPositiveBudget(f"b5 must be positive and finite, got {self.b5}")
        object.__setattr__(
            self, "budgets", tuple(0.2 * (k + 1) * self.b5 for k in range(5))
        )


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (for positive x)."""
    return int(math.floor(x + 0.5))


def _with_registry(cycles: Sequence[Cycle], codes: Sequence[np.ndarray],
                   test_ids: Sequence[str]) -> TestHistory:
    """The history of ``cycles`` with its duration registry; each test's
    durations are summed chronologically, wherever the history was cut."""
    totals = np.zeros(len(test_ids))
    counts = np.zeros(len(test_ids))
    for cyc, idx in zip(cycles, codes):
        totals[idx] += cyc.duration_s
        counts[idx] += 1
    registry = dict(zip(test_ids, (totals / counts).tolist()))
    return TestHistory(cycles=tuple(cycles), registry=registry, codes=tuple(codes))


def validate_history(raw: TestHistory | Iterable[Cycle]) -> TestHistory:
    """Check every history invariant, code the test ids and return a history
    with the duration registry recomputed from the executions.

    Accepts either an existing :class:`TestHistory` or any iterable of
    :class:`Cycle`.  Idempotent: validating a valid history returns an equal
    value.
    """
    cycles = tuple(raw.cycles if isinstance(raw, TestHistory) else raw)
    if not cycles:
        raise EmptyHistory("history contains no cycles")

    code_of: dict[str, int] = {}
    codes = []
    prev_id: int | None = None
    for cyc in cycles:
        if prev_id is not None and cyc.cycle_id <= prev_id:
            raise DuplicateCycleId(
                f"cycle ids must be strictly increasing: {prev_id} then {cyc.cycle_id}"
            )
        prev_id = cyc.cycle_id
        if len(cyc) == 0:
            raise EmptyCycle(f"cycle {cyc.cycle_id} has no executions")
        if len(set(cyc.test_ids)) != len(cyc.test_ids):
            seen: set[str] = set()
            for tid in cyc.test_ids:
                if tid in seen:
                    raise DuplicateTestInCycle(
                        f"cycle {cyc.cycle_id}: test {tid!r} appears twice"
                    )
                seen.add(tid)
        bad = ~(np.isfinite(cyc.duration_s) & (cyc.duration_s > 0))
        if bad.any():
            tid = cyc.test_ids[int(np.argmax(bad))]
            raise NonPositiveDuration(
                f"cycle {cyc.cycle_id}: test {tid!r} has non-positive duration"
            )
        codes.append(np.fromiter((code_of.setdefault(t, len(code_of)) for t in cyc.test_ids),
                                 np.int64, len(cyc)))
    return _with_registry(cycles, codes, list(code_of))


def history_prefix(h: TestHistory, pos: int) -> TestHistory:
    """The history as it stood before cycle position ``pos``: its first
    ``pos`` cycles, with the registry of those cycles and the same codes."""
    if not (0 < pos <= h.n_cycles):
        raise IndexError(f"prefix length {pos} out of range for {h.n_cycles} cycles")
    codes = h.codes[:pos]
    n_tests = max(int(c.max()) for c in codes) + 1  # first-run order: they come first
    return _with_registry(h.cycles[:pos], codes, list(h.registry)[:n_tests])


def slice_recent(h: TestHistory, fraction: float) -> HistoryWindow:
    """Window over the last ``max(1, round_half_up(fraction * n))`` cycles."""
    if not (0.0 < fraction <= 1.0):
        raise FractionOutOfRange(f"fraction must be in (0, 1], got {fraction}")
    n = h.n_cycles
    k = max(1, round_half_up(fraction * n))
    k = min(k, n)
    return HistoryWindow(source=h, lo=n - k, hi=n)


def average_suite_duration(h: TestHistory) -> float:
    """Mean over cycles of the summed execution durations of that cycle."""
    if h.n_cycles == 0:
        raise EmptyHistory("history contains no cycles")
    per_cycle = [float(c.duration_s.sum()) for c in h.cycles]
    return float(np.mean(per_cycle))


def budget_schedule(b5: float) -> BudgetSchedule:
    """The five budgets [0.2, 0.4, 0.6, 0.8, 1.0] * b5."""
    return BudgetSchedule(b5=float(b5))
