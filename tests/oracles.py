"""Reference implementations the tests compare the program against.

The feature oracles compute one test's features by walking the window cycle
by cycle, the direct reading of the feature definitions in
``testprio.features``; the program computes every test at once from window
matrices.  The parse oracle reads the canonical CSV row by row with the csv
module and validates cycle by cycle; the program reads the columns with
numpy's C parser and validates them in vectorized passes.  The replay
oracle ranks an evaluated cycle test by test, from dicts keyed by test id,
and replays it with running-sum loops; the program ranks on registry codes
and reads cumulative sums.  The lambda oracle computes one cycle group's
LambdaRank lambdas from its own (restart, positive, negative) pair arrays;
the program computes a pass of groups at once from their pair takes.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from testprio.domain import Cycle, HistoryWindow, TestHistory, slice_recent
from testprio.errors import (
    AlphaOutOfRange,
    DuplicateTestInCycle,
    EmptyHistory,
    MalformedRow,
    NonPositiveDuration,
    UnknownVerdictToken,
    WindowTooSmall,
)
from testprio.features import FeatureConfig, build_training_set
from testprio.ingest import CANONICAL_HEADER
from testprio.metrics import CycleMetrics, apfd, napfd
from testprio.rankers import (FITTERS, RankedTest, RankerKind, constant_model, score_matrix,
                              with_seed)
from testprio.rankers.nets import _ranks_matrix
from testprio.seeding import mix_seed


def recency_failure_score(failed_most_recent_first: list[bool], alpha: float) -> float:
    """Sum of alpha**j over failing verdicts, j = 0 for the most recent."""
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0, 1), got {alpha}")
    return float(sum(alpha ** j for j, f in enumerate(failed_most_recent_first) if f))


def build_feature_vector(window: HistoryWindow, test_id: str, cfg: FeatureConfig,
                         as_of_cycle: int) -> np.ndarray:
    """Features of one test as of position ``as_of_cycle`` in the source
    history (must lie inside the window or one past its end); only cycles
    strictly before it contribute.
    """
    if not (window.lo <= as_of_cycle <= window.hi):
        raise ValueError(
            f"as_of_cycle {as_of_cycle} outside window [{window.lo}, {window.hi}]"
        )
    registry = window.source.registry
    if test_id not in registry:
        raise KeyError(test_id)

    F = cfg.verdict_window
    values = np.zeros(cfg.dimension)
    past = window.source.cycles[window.lo : as_of_cycle]

    present = 0
    fails = 0
    recency = 0.0
    # chronological Horner recurrence, bit-identical to the vectorized path
    for j, cyc in enumerate(past):
        failed_here = 0.0
        try:
            pos = cyc.test_ids.index(test_id)
        except ValueError:
            pos = -1
        if pos >= 0:
            present += 1
            if cyc.failed[pos]:
                failed_here = 1.0
                fails += 1
                dist = len(past) - 1 - j
                if dist < F:
                    values[dist] = 1.0
        recency = cfg.decay * recency + failed_here
    if past:
        values[F] = present / len(past)
        values[F + 1] = fails / present if present else 0.0
        values[F + 2] = recency
    values[F + 3] = registry[test_id] / max(registry.values())
    return values


def parse_canonical(stream) -> TestHistory:
    """The canonical CSV parsed one row at a time: every input kind is read
    as UTF-8 text with line endings untouched (``newline=""``), rows are
    grouped stably by cycle, and each cycle is validated in turn."""
    data = stream if isinstance(stream, (bytes, str)) else stream.read()
    if isinstance(data, str):
        data = data.encode("utf-8")
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    rows = []
    line_no = 0
    try:
        header = next(reader, None)
        line_no = 1
        if header is None:
            raise MalformedRow(1, "empty input")
        if tuple(h.strip() for h in header) != CANONICAL_HEADER:
            raise MalformedRow(1, f"expected header {','.join(CANONICAL_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise MalformedRow(line_no, f"expected 4 fields, got {len(row)}")
            cid_s, test_id, verdict_s, dur_s = row
            try:
                cid = int(cid_s)
            except ValueError:
                cid = None
            if cid is None or not -2**63 <= cid < 2**63:
                raise MalformedRow(line_no, f"bad cycle_id {cid_s!r}")
            token = verdict_s.strip().lower()
            if token not in ("pass", "fail"):
                raise UnknownVerdictToken(line_no, verdict_s.strip())
            try:
                duration = float(dur_s)
            except ValueError:
                raise MalformedRow(line_no, f"bad duration {dur_s!r}") from None
            rows.append((cid, test_id, token == "fail", duration))
    except csv.Error as exc:
        raise MalformedRow(line_no + 1, str(exc)) from None

    if not rows:
        raise EmptyHistory("history contains no cycles")
    by_cycle: dict[int, list] = {}
    for row in sorted(rows, key=lambda r: r[0]):  # sorted() is stable
        by_cycle.setdefault(row[0], []).append(row)
    code_of: dict[str, int] = {}
    cycles, codes = [], []
    for cid, cycle_rows in by_cycle.items():
        cyc = Cycle(cid, tuple(r[1] for r in cycle_rows),
                    np.array([r[2] for r in cycle_rows], dtype=bool),
                    np.array([r[3] for r in cycle_rows], dtype=np.float64))
        seen: set[str] = set()
        for tid in cyc.test_ids:
            if tid in seen:
                raise DuplicateTestInCycle(f"cycle {cid}: test {tid!r} appears twice")
            seen.add(tid)
        for tid, d in zip(cyc.test_ids, cyc.duration_s):
            if not (np.isfinite(d) and d > 0):
                raise NonPositiveDuration(f"cycle {cid}: test {tid!r} has non-positive duration")
        cycles.append(cyc)
        codes.append(np.array([code_of.setdefault(t, len(code_of)) for t in cyc.test_ids],
                              dtype=np.int64))
    registry = registry_loop(cycles)
    return TestHistory(cycles=tuple(cycles), codes=tuple(codes), test_ids=tuple(registry),
                       means=np.array(list(registry.values())))


def registry_loop(cycles) -> dict[str, float]:
    """Each test's mean duration, keyed in first-run order, by adding every
    execution to a per-test running total cycle by cycle."""
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for c in cycles:
        for tid, d in zip(c.test_ids, c.duration_s.tolist()):
            totals[tid] = totals.get(tid, 0.0) + d
            counts[tid] = counts.get(tid, 0) + 1
    return {tid: totals[tid] / counts[tid] for tid in totals}


def rocket_loop(window: HistoryWindow, test_ids, params) -> dict[str, float]:
    """Rocket scores by walking the window's cycles from the newest, adding
    each failing test's weight for that age to its running total."""
    priorities = {tid: 0.0 for tid in test_ids}
    recent = (params.weight_most_recent, params.weight_second)
    for age, c in enumerate(reversed(window.cycles)):
        w = recent[age] if age < 2 else params.weight_older
        for tid, failed in zip(c.test_ids, c.failed):
            if failed and tid in priorities:
                priorities[tid] += w
    return priorities


def key_sort(scores, durations) -> tuple[RankedTest, ...]:
    """The shared tie-break as a key-function sort on (-score, duration, id)."""
    rows = [RankedTest(t, float(scores[t]), float(durations[t])) for t in scores]
    return tuple(sorted(rows, key=lambda e: (-e.score, e.duration_s, e.test_id)))


def replay_ranking(prior: TestHistory, cycle: Cycle, cfg) -> tuple[RankedTest, ...]:
    """The ranking the replay gives ``cycle`` after ``prior`` under ``cfg``
    (a ``ReplayConfig``), test by test: durations from a dict that falls back
    to the prior mean, random scores from the rank seed's permutation, rocket
    scores from :func:`rocket_loop`, model scores from per-test feature rows
    (:func:`build_feature_vector`), then :func:`key_sort`."""
    window = slice_recent(prior, cfg.history_fraction)
    registry = prior.registry
    mean = float(np.mean(list(registry.values())))
    durations = {tid: registry.get(tid, mean) for tid in cycle.test_ids}
    ids = cycle.test_ids
    if cfg.ranker is RankerKind.RANDOM:
        perm = np.random.default_rng(mix_seed(cfg.base_seed, "rank", cycle.cycle_id)).permutation(
            len(ids))
        scores = {ids[p]: float(len(ids) - i) for i, p in enumerate(perm.tolist())}
    elif cfg.ranker is RankerKind.ROCKET:
        scores = rocket_loop(window, ids, cfg.params)
    else:
        try:
            model = FITTERS[cfg.ranker]([build_training_set(window, cfg.features)], [with_seed(
                cfg.params, mix_seed(cfg.base_seed, "fit", cycle.cycle_id))])[0]
        except WindowTooSmall:
            model = constant_model(cfg.ranker, cfg.features)
        rows = np.zeros((len(ids), cfg.features.dimension))
        for i, tid in enumerate(ids):
            if tid in registry:
                rows[i] = build_feature_vector(window, tid, cfg.features, window.hi)
            else:
                rows[i, -1] = mean / max(registry.values())
        scores = dict(zip(ids, score_matrix(model, rows).tolist()))
    return key_sort(scores, durations)


def loop_cut(durations, budget_s: float) -> tuple[int, float]:
    """The budget cut as a running-sum loop: a test that would overflow is
    not started."""
    elapsed = 0.0
    executed = 0
    for d in durations:
        if elapsed + d > budget_s:
            break
        elapsed += d
        executed += 1
    return executed, elapsed


def loop_fault_time(run, budget: float, last: bool) -> float | None:
    """TDFF (``last`` False) or TDLF of an executed prefix of (duration,
    failed) rows, as a running-sum loop."""
    elapsed, hit = 0.0, None
    for duration, failed in run:
        elapsed += duration
        if failed:
            hit = elapsed
            if not last:
                break
    return None if hit is None else 100.0 * hit / budget


def replay_budget(entries, cycle: Cycle, budget: float):
    """(executed, elapsed, detected positions, metrics) of replaying
    ``cycle``'s verdicts against ranked ``entries`` at ``budget``, by loops
    over the rows."""
    failed_at_c = {tid: bool(f) for tid, f in zip(cycle.test_ids, cycle.failed)}
    faults = [i + 1 for i, e in enumerate(entries) if failed_at_c[e.test_id]]
    executed, elapsed = loop_cut([e.duration_s for e in entries], budget)
    detected = tuple(p for p in faults if p <= executed)
    run = [(e.duration_s, failed_at_c[e.test_id]) for e in entries[:executed]]
    m = len(faults)
    metrics = CycleMetrics(
        apfd=apfd(faults, len(entries)) if m else None,
        napfd=napfd(detected, executed, m) if m else None,
        tdff_pct=loop_fault_time(run, budget, last=False),
        tdlf_pct=loop_fault_time(run, budget, last=True),
        faults_present=m,
        faults_detected=len(detected),
    )
    return executed, elapsed, detected, metrics


def _group_lambdas(s: np.ndarray, pos: np.ndarray, neg: np.ndarray,
                   sigma: float, idcg: float, gains: np.ndarray,
                   frozen_delta: np.ndarray | None = None):
    """dCost/dscore (R, m) for one group with stacked scores s (R, m);
    ``gains`` is ``_gains(k)`` for some k >= m.  Callers ignore overflow in
    ``exp``: a lambda whose exponent overflows is -0.0, as it should be.

    Summation order: ``g[:, pos]`` is laid out with the restarts innermost,
    so for R > 1 the (R, P, N) pair arrays have strides (8, 8 N R, 8 R)
    and both sums over pairs add one pair after another; for R = 1 they
    are C-ordered and the sum over N is numpy's pairwise sum.  That order
    fixes the bits of every lambda, and :func:`_stacked_lambdas` keeps it."""
    if frozen_delta is None:
        g = gains[_ranks_matrix(s) - 1]
        delta = np.abs(g[:, pos][:, :, None] - g[:, neg][:, None, :]) / idcg
    else:
        delta = frozen_delta
    sdiff = s[:, pos][:, :, None] - s[:, neg][:, None, :]
    lam = -sigma * delta / (1.0 + np.exp(sigma * sdiff))
    dc = np.zeros(s.shape)
    dc[:, pos] = np.add.reduce(lam, axis=2)
    dc[:, neg] = -np.add.reduce(lam, axis=1)
    return dc, delta, sdiff
