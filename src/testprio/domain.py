"""Core data model for CI test histories.

A :class:`TestHistory` is a chronologically ordered sequence of CI cycles.
Each cycle records, per test, a pass/fail verdict and an execution duration
in seconds.  A :class:`Cycle` holds its executions as three parallel
columns (test ids, bool failed flags, float64 durations), so that
histories with millions of executions stay cheap to hold and scan.

:func:`validate_history` codes each test id once, as its position in the
registry (first-run order); later stages index columns by these codes
(``TestHistory.codes``) instead of looking test ids up.  The parsers hand it
flat :class:`ExecutionColumns`, which it groups by cycle; a list of
:class:`Cycle` is kept as it is.  Either way one coder codes every id, and
one loop checks the cycles in order.

A history carries its registry (each test's mean duration) as arrays by
code: the ids in code order (``TestHistory.test_ids``) and their means
(``TestHistory.means``).  The ``registry`` dict is derived from them on
first read and cached; the replay reads the arrays only.  Budgets B1..B5
are ``f * b5`` for ``f`` in :data:`DEFAULT_FRACTIONS`, where b5 is the
history's :func:`average_suite_duration`.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateCycleId,
    DuplicateTestInCycle,
    EmptyCycle,
    EmptyHistory,
    FractionOutOfRange,
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
    the registry of every test's mean observed duration, as arrays by code.
    ``codes[i][j]`` is the registry position of ``cycles[i].test_ids[j]``;
    being derived, codes take no part in equality."""

    cycles: tuple[Cycle, ...]
    codes: tuple[np.ndarray, ...]  # int64 per cycle, parallel to its test_ids
    test_ids: tuple[str, ...]  # registry ids by code (first-run order)
    means: np.ndarray  # float64 by code: mean duration over all the test's runs

    @cached_property
    def registry(self) -> dict[str, float]:
        """test_id -> mean duration, in code order; built on first read."""
        return dict(zip(self.test_ids, self.means.tolist()))

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @property
    def n_tests(self) -> int:
        return len(self.test_ids)

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


# The grid's default history and budget fractions: B1..B5 are these times b5.
DEFAULT_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (for positive x)."""
    return int(math.floor(x + 0.5))


def _prefixes(cycles: Sequence[Cycle], codes: Sequence[np.ndarray], test_ids: tuple[str, ...],
              positions: Iterable[int]) -> Iterator[TestHistory]:
    """For each of the non-decreasing ``positions``, the history of the first
    ``pos`` cycles with their codes and registry.  Each cycle's durations
    are added to running per-test totals once, so every registry sums each
    test's durations chronologically, wherever the history is cut."""
    totals = np.zeros(len(test_ids))
    counts = np.zeros(len(test_ids))
    n_tests = done = 0
    for pos in positions:
        if not (max(done, 1) <= pos <= len(cycles)):
            raise IndexError(f"prefix length {pos} out of range after {done} of {len(cycles)}")
        for cyc, idx in zip(cycles[done:pos], codes[done:pos]):
            totals[idx] += cyc.duration_s
            counts[idx] += 1
            n_tests = max(n_tests, int(idx.max()) + 1)  # first-run order: they come first
        done = pos
        yield TestHistory(cycles=tuple(cycles[:pos]), codes=tuple(codes[:pos]),
                          test_ids=test_ids[:n_tests],
                          means=totals[:n_tests] / counts[:n_tests])


def _check_rows(cyc: Cycle, codes: np.ndarray) -> None:
    """Raise the cycle's first row error, in row order: a test that runs
    twice, or a duration that is not positive and finite."""
    bad = ~(np.isfinite(cyc.duration_s) & (cyc.duration_s > 0))
    if bad.any() or (np.diff(np.sort(codes)) == 0).any():
        seen: set[str] = set()
        for tid in cyc.test_ids:
            if tid in seen:
                raise DuplicateTestInCycle(f"cycle {cyc.cycle_id}: test {tid!r} appears twice")
            seen.add(tid)
        tid = cyc.test_ids[int(np.argmax(bad))]
        raise NonPositiveDuration(f"cycle {cyc.cycle_id}: test {tid!r} has non-positive duration")


class ExecutionColumns(NamedTuple):
    """Every execution of a history as parallel columns, in recorded order;
    rows of one cycle need not be adjacent."""

    cycle_ids: np.ndarray  # int64
    test_ids: Sequence[str]
    failed: np.ndarray  # bool
    duration_s: np.ndarray  # float64


def _code(ids: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The registry (the distinct ``ids`` in first-run order) and each id's
    code, its position in the registry."""
    code_of = {tid: code for code, tid in enumerate(dict.fromkeys(ids))}
    return tuple(code_of), np.fromiter(map(code_of.__getitem__, ids), np.int64, len(ids))


def _checked(cycles: Sequence[Cycle], codes: Sequence[np.ndarray],
             registry: tuple[str, ...]) -> TestHistory:
    """Check the cycles in order, each before the next: its id above the
    previous one, at least one execution, then its rows."""
    prev_id: int | None = None
    for cyc, idx in zip(cycles, codes):
        if prev_id is not None and cyc.cycle_id <= prev_id:
            raise DuplicateCycleId(
                f"cycle ids must be strictly increasing: {prev_id} then {cyc.cycle_id}"
            )
        prev_id = cyc.cycle_id
        if len(cyc) == 0:
            raise EmptyCycle(f"cycle {cyc.cycle_id} has no executions")
        _check_rows(cyc, idx)
    return next(_prefixes(cycles, codes, registry, [len(cycles)]))


def _from_columns(cycle_ids: np.ndarray, test_ids: Sequence[str],
                  failed: np.ndarray, duration_s: np.ndarray) -> TestHistory:
    """The column constructor: rows are grouped stably by cycle id and test
    ids are coded in first-run order, all in vectorized passes; each cycle
    holds views of the columns and the registry's own id strings."""
    cycle_ids = np.asarray(cycle_ids, dtype=np.int64)
    failed, duration_s = np.asarray(failed), np.asarray(duration_s)
    if len(cycle_ids) == 0:
        raise EmptyHistory("history contains no cycles")
    if (cycle_ids[1:] < cycle_ids[:-1]).any():
        order = np.argsort(cycle_ids, kind="stable")
        cycle_ids, test_ids = cycle_ids[order], np.asarray(test_ids, dtype=object)[order]
        failed, duration_s = failed[order], duration_s[order]
    registry, codes = _code(test_ids)
    starts = np.flatnonzero(cycle_ids[1:] != cycle_ids[:-1]) + 1
    spans = list(zip([0, *starts.tolist()], [*starts.tolist(), len(codes)]))
    ids = np.array(registry, dtype=object)
    cycles = [Cycle(int(cycle_ids[a]), tuple(ids[codes[a:b]].tolist()), failed[a:b],
                    duration_s[a:b]) for a, b in spans]
    return _checked(cycles, [codes[a:b] for a, b in spans], registry)


def validate_history(raw: TestHistory | Iterable[Cycle] | ExecutionColumns) -> TestHistory:
    """Check every history invariant, code the test ids and return a history
    with the duration registry recomputed from the executions.

    Accepts an existing :class:`TestHistory`, any iterable of :class:`Cycle`
    (kept as they are), or :class:`ExecutionColumns` (the parsers' output).
    Idempotent: validating a valid history returns an equal value.
    """
    if isinstance(raw, ExecutionColumns):
        return _from_columns(*raw)
    cycles = tuple(raw.cycles if isinstance(raw, TestHistory) else raw)
    if not cycles:
        raise EmptyHistory("history contains no cycles")
    registry, codes = _code([tid for cyc in cycles for tid in cyc.test_ids])
    ends = np.cumsum([len(cyc) for cyc in cycles])
    return _checked(cycles, np.split(codes, ends[:-1]), registry)


def history_prefixes(h: TestHistory, positions: Iterable[int]) -> Iterator[TestHistory]:
    """:func:`history_prefix` at each of the non-decreasing ``positions``,
    summing each cycle's durations into the registry once."""
    return _prefixes(h.cycles, h.codes, h.test_ids, positions)


def history_prefix(h: TestHistory, pos: int) -> TestHistory:
    """The history as it stood before cycle position ``pos``: its first
    ``pos`` cycles, with the registry of those cycles and the same codes."""
    return next(history_prefixes(h, [pos]))


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
