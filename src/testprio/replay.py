"""Walk-forward CI replay.

For each evaluation cycle: slice the most recent fraction of the *prior*
cycles into a training window, fit the configured ranker (when it trains),
rank the cycle's tests, cut the ranking at each time budget, and replay the
recorded verdicts of that cycle against the executed prefix.  The ranking's
durations are summed once; every budget's cut, elapsed time, TDFF and TDLF
read that one cumulative array.  ``metrics.check_budget`` checks every budget
before any fit: ``ReplayConfig.budget_s`` when built, a walk's when it starts.

Ranking runs on registry codes (``TestHistory.codes``), not on dicts keyed
by test id: each prefix carries its registry as arrays by code
(``test_ids``, ``means``; the ``registry`` dict is only derived on read,
and no replay reads it), and each replay call ranks the ids once in
``sorted()`` order and, for rocket, takes each cycle's failing codes once.
An evaluated cycle's durations, scores, feature rows and tie-break keys are
then columns read through its codes, rocket adds its weights newest cycle
first as the per-cycle loop did, one lexsort (``rank_with_tie_break``)
orders every ranker's columns, and the ranked ids are gathered by code.

Leakage rules: training windows, feature inputs, tie-break durations and
budget-cut durations are all derived exclusively from the prior history,
``history_prefix(h, c)``: the cycles before the evaluated one and their
registry.  The evaluated cycle contributes only its replayed verdicts
(and its test list).  A test never seen before has a code past the prior
registry: it is ranked with zero history features, the registry's
normalized mean duration as its duration feature, and the prior mean
duration as its duration estimate.

Worker processes: a walk whose ranker trains replays its eval cycles on a
process pool (``workers``), one task per cycle position.  By default it
starts one process per eval cycle while there is at most one more eval
cycle than usable CPUs, so a lone last fit does not run while the other
CPUs idle, and one per usable CPU beyond that.  Each task replays its
position through the serial walk's own path (``_fitted_cycles``, given that
one position), whose prior's registry sums are the serial walk's bit for
bit, so outcomes do not depend on the worker count.  Pool workers are
daemonic and so never fan a walk out again.

Stacked fits: every eval cycle is prepared, fitted and handed to ranking
by ``_fitted_cycles``, given a list of walks and each one's eval positions.
It builds each eval cycle's window and training set in order and fits
consecutive cycles together, in one ``FITTERS`` call, while their training
rows total at most ``_STACK_ROWS`` (a window over it is fitted alone); a
group is fitted before the next window's features are built.  A fitted
cycle keeps only what ranking needs (its feature rows, model, modeled
train units and wall-time share): its training set and window arrays are
gone.  ``svm``, ``ann`` and ``lrn`` train such a list as one stacked
computation, and every model is bit for bit the one its window gets alone,
so the grouping changes no outcome.  A window its fitter cannot train on
(single-class, or for ``lrn`` no cycle group with both verdict classes)
gets a flagged constant model from that fitter, in the same call.
:func:`fit_walks` groups the windows of several walks of one ranker the
same way (the serial grid fits each trained ranker's windows across its
history fractions so), and :func:`walk_forward_budgets` then only ranks a
walk's fitted cycles.  A pool task and ``replay_cycle`` hand it a single
position, so their window is fitted in a call of its own.

Timing: ``train_seconds`` / ``rank_seconds`` are a deterministic work-based
cost model (counted arithmetic operations divided by a nominal op rate), so
replays and grid reports are bit-reproducible across runs, worker counts
and machines.  Wall-clock measurements are captured alongside in
``wall_train_seconds`` / ``wall_rank_seconds``; they are informational and
excluded from outcome comparison and report serialization.  A cycle's
``wall_train_seconds`` is its window's feature time plus its share of its
fit call's wall time, split in proportion to training rows among the
windows the call did not degrade (see ``_fit_group``).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .domain import (
    Cycle,
    HistoryWindow,
    TestHistory,
    history_prefixes,
    slice_recent,
)
from .errors import HistoryTooShort, NoPriorHistory, WindowTooSmall
from .features import (
    FeatureConfig,
    TrainingSet,
    _WindowArrays,
    build_training_set,
    feature_matrix,
    training_rows,
)
from .metrics import CycleMetrics, apfd, check_budget, napfd, time_to_fault
from .rankers import (
    FITTERS,
    Model,
    PARAM_TYPES,
    RankedSuite,
    RankerKind,
    RankerParams,
    constant_model,
    default_params,
    random_rank,
    rank_with_tie_break,
    rocket_priorities,
    score_matrix,
    sorted_ranks,
    with_seed,
)
from .seeding import mix_seed

DEFAULT_SEED = 1729  # fixed default so unseeded runs are reproducible
_MIN_CYCLES = 5  # the shortest history a replay accepts

# Deterministic cost model: counted multiply-accumulates per nominal second.
NOMINAL_OPS_PER_SECOND = 5.0e7


@dataclass(frozen=True)
class ReplayConfig:
    ranker: RankerKind
    budget_s: float
    history_fraction: float = 0.6
    eval_fraction: float = 0.2
    base_seed: int = DEFAULT_SEED
    params: RankerParams | None = None
    features: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self) -> None:
        if not (0.0 < self.history_fraction <= 1.0):
            raise ValueError(f"history_fraction must be in (0, 1], got {self.history_fraction}")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ValueError(f"eval_fraction must be in (0, 1), got {self.eval_fraction}")
        check_budget(self.budget_s)
        if self.params is None:
            object.__setattr__(self, "params", default_params(self.ranker))
        elif not isinstance(self.params, PARAM_TYPES[self.ranker]):
            raise ValueError(
                f"params {type(self.params).__name__} do not match ranker "
                f"{self.ranker.value}"
            )


@dataclass(frozen=True)
class CycleOutcome:
    cycle_id: int
    ranking: RankedSuite
    executed: int                      # prefix length run within budget
    elapsed_s: float
    detected_positions: tuple[int, ...]  # 1-based, within the executed prefix
    faults_present: int
    metrics: CycleMetrics
    train_seconds: float               # deterministic cost model
    rank_seconds: float
    degenerate: bool
    wall_train_seconds: float = field(compare=False, default=0.0)
    wall_rank_seconds: float = field(compare=False, default=0.0)

    @property
    def faults_detected(self) -> int:
        return len(self.detected_positions)


def cut_by_budget(elapsed: np.ndarray, budget_s: float) -> tuple[int, float]:
    """Longest prefix of a ranking whose cumulative durations ``elapsed``
    fit the budget, and its elapsed time; a test that would overflow is not
    started.  Durations are positive, so ``elapsed`` never decreases and
    one ``searchsorted`` finds the cut."""
    check_budget(budget_s)
    executed = int(np.searchsorted(elapsed, budget_s, side="right"))
    return executed, float(elapsed[executed - 1]) if executed else 0.0


# --- deterministic cost model ---------------------------------------------------

def _mlp_flops(d: int, h1: int, h2: int) -> int:
    return d * h1 + h1 * h2 + h2


def _train_units(kind: RankerKind, params: RankerParams, ts: TrainingSet | None,
                 degenerate: bool) -> int:
    if ts is None:
        return 0
    n, d = ts.n_examples, ts.dimension
    build = 2 * n * d
    if degenerate:
        return build + n
    if kind is RankerKind.SVM:
        return build + params.epochs * n * d
    if kind is RankerKind.ANN:
        return build + 3 * params.restarts * params.epochs * n * _mlp_flops(
            d, params.hidden1, params.hidden2)
    if kind is RankerKind.GBDT:
        return build + params.n_estimators * n * d * params.max_depth
    if kind is RankerKind.LRN:
        pair_work = 0
        y = ts.y
        for sl in ts.group_slices():
            pos = int((y[sl] > 0.5).sum())
            neg = (sl.stop - sl.start) - pos
            if pos and neg:
                pair_work += (sl.stop - sl.start) * _mlp_flops(
                    d, params.hidden1, params.hidden2) * 3 + 3 * pos * neg
        return build + params.restarts * params.epochs * pair_work
    return build


def _rank_units(kind: RankerKind, params: RankerParams, n_tests: int,
                window_cycles: int, d: int) -> int:
    sort_cost = max(1, n_tests * max(1, int(math.log2(max(2, n_tests)))))
    if kind is RankerKind.RANDOM:
        return n_tests + sort_cost
    if kind is RankerKind.ROCKET:
        return n_tests * window_cycles + sort_cost
    features = n_tests * d + n_tests * window_cycles
    if kind is RankerKind.SVM:
        return features + n_tests * d + sort_cost
    if kind is RankerKind.GBDT:
        return features + n_tests * params.n_estimators * params.max_depth + sort_cost
    # ann / lrn forward pass
    return features + n_tests * _mlp_flops(d, params.hidden1, params.hidden2) + sort_cost


# --- replay ---------------------------------------------------------------------

# A serial walk fits consecutive eval cycles together while their training
# rows total at most this many (one window over it is fitted alone), so the
# windows it holds at once stay bounded.
_STACK_ROWS = 32_768


class _Coded(NamedTuple):
    """What one replay call ranks on besides the prefixes, by registry code
    of the whole history."""

    ids: np.ndarray             # object: each code's test id
    id_ranks: np.ndarray        # each code's test id's place in sorted() order
    failing: list[np.ndarray]   # per cycle position: codes of its failing tests


def _coded(h: TestHistory, kind: RankerKind, end: int) -> _Coded:
    """The ids and the tie-break's id ranks by code and, for rocket, the
    failing codes of the cycles before position ``end``."""
    failing = ([idx[cyc.failed] for cyc, idx in zip(h.cycles[:end], h.codes[:end])]
               if kind is RankerKind.ROCKET else [])
    return _Coded(np.array(h.test_ids, dtype=object), sorted_ranks(h.test_ids), failing)


class _EvalCycle(NamedTuple):
    """One eval cycle on its way to being ranked: its prior, cycle, codes
    and window.  For a ranker that trains also its ranking feature rows, the
    seed of its fit, and its window's training set (None when the window is
    too small) until it is fitted, then its model and modeled train units;
    ``wall_train`` is its features' seconds plus its share of its fit."""

    prior: TestHistory
    cycle: Cycle
    codes: np.ndarray
    window: HistoryWindow
    rows: np.ndarray | None = None
    seed: int = 0
    ts: TrainingSet | None = None
    model: Model | None = None
    train_units: int = 0
    wall_train: float = 0.0


def _prepare(prior: TestHistory, window: HistoryWindow, cycle: Cycle, codes: np.ndarray,
             cfg: ReplayConfig) -> _EvalCycle:
    """An eval cycle with the features of its ``window`` of ``prior``; the
    window's arrays are dropped once the ranking rows and the training set
    are built from them."""
    if not cfg.ranker.trains:
        return _EvalCycle(prior, cycle, codes, window)
    t0 = time.perf_counter()
    arrays = _WindowArrays(window, cfg.features.decay)
    rows = feature_matrix(window, codes, cfg.features, arrays)
    ts = None
    with contextlib.suppress(WindowTooSmall):
        ts = build_training_set(window, cfg.features, arrays)
    return _EvalCycle(prior, cycle, codes, window, rows,
                      mix_seed(cfg.base_seed, "fit", cycle.cycle_id), ts,
                      wall_train=time.perf_counter() - t0)


def _fit_group(group: list[tuple[int, _EvalCycle]],
               cfg: ReplayConfig) -> list[tuple[int, _EvalCycle]]:
    """The cycles of ``group`` (each with the index of its unit), their
    trainable windows fitted in one call, their training sets dropped.

    A cycle's ``wall_train`` gains a share of the call's wall time, in
    proportion to its training rows among the windows the call did not
    degrade."""
    kind = cfg.ranker
    fitted = [p for _, p in group if p.ts is not None]
    models, shares = [], []
    if fitted:
        t0 = time.perf_counter()
        models = FITTERS[kind]([p.ts for p in fitted],
                               [with_seed(cfg.params, p.seed) for p in fitted])
        fit_s = time.perf_counter() - t0
        rows = [0 if m.degenerate else p.ts.n_examples for p, m in zip(fitted, models)]
        shares = [fit_s * r / (sum(rows) or 1) for r in rows]
    results = zip(models, shares)
    too_small = constant_model(kind, cfg.features)
    out = []
    for u, p in group:
        model, share = next(results) if p.ts is not None else (too_small, 0.0)
        out.append((u, p._replace(
            ts=None, model=model, wall_train=p.wall_train + share,
            train_units=_train_units(kind, cfg.params, p.ts, model.degenerate))))
    return out


def _eval_positions(h: TestHistory, cfg: ReplayConfig) -> range:
    """The positions of a walk's eval cycles: the last ``eval_fraction`` of
    the history, capped so at least one prior cycle always exists."""
    n = h.n_cycles
    return range(n - min(int(math.ceil(cfg.eval_fraction * n)), n - 1), n)


def _fitted_cycles(h: TestHistory, cfgs: list[ReplayConfig],
                   positions: list[Sequence[int]]) -> Iterator[tuple[int, _EvalCycle]]:
    """The cycles at ``positions[u]`` (increasing) of each walk u of
    ``cfgs``, in order, with the index of their walk, ready to rank.  The
    walks share one ranker, its params and the features.  A ranker that
    trains fits consecutive windows, across the walks, in one call while
    their training rows total at most ``_STACK_ROWS`` (a window over it is
    fitted alone)."""
    group, rows = [], 0
    for u, (cfg, walk) in enumerate(zip(cfgs, positions, strict=True)):
        for pos, prior in zip(walk, history_prefixes(h, walk)):
            window = slice_recent(prior, cfg.history_fraction)
            n = training_rows(window) if cfg.ranker.trains else 0
            if group and rows + n > _STACK_ROWS:
                # fitted, and its training sets dropped, before the next
                # window's features are built
                fitted, group, rows = _fit_group(group, cfgs[0]), [], 0
                yield from fitted
            p = _prepare(prior, window, h.cycles[pos], h.codes[pos], cfg)
            if not cfg.ranker.trains:
                yield u, p
                continue
            group.append((u, p))
            rows += n
    if group:
        yield from _fit_group(group, cfgs[0])


def fit_walks(h: TestHistory, cfgs: list[ReplayConfig]) -> list[Iterator[_EvalCycle]]:
    """The eval cycles of the walks of ``cfgs`` (one ranker, its params and
    the features; any history fractions and seeds), fitted in groups across
    the walks, as one iterator per walk: hand it to
    :func:`walk_forward_budgets` as ``cycles``.  Each model is the one its
    walk alone would fit, and a walk's cycles are freed once it has ranked
    them.  A history too short to replay, or walks that differ in ranker,
    params (beyond their seed) or features, raise before anything is
    fitted."""
    check_history_length(h)
    if len({(c.ranker, with_seed(c.params, 0), c.features) for c in cfgs}) > 1:
        raise ValueError("walks fitted together must share a ranker, its params and the features")
    per_walk: list[list[_EvalCycle]] = [[] for _ in cfgs]
    for u, p in _fitted_cycles(h, cfgs, [_eval_positions(h, c) for c in cfgs]):
        per_walk[u].append(p)
    return [iter(cycles) for cycles in per_walk]


def _rank_at(p: _EvalCycle, coded: _Coded, cfg: ReplayConfig,
             budgets: list[float]) -> list[CycleOutcome]:
    """Rank the cycle of ``p`` with its model (None for a ranker that does
    not train) and replay it at each budget."""
    kind = cfg.ranker
    params = cfg.params
    window, codes = p.window, p.codes
    rank_seed = mix_seed(cfg.base_seed, "rank", p.cycle.cycle_id)
    degenerate = bool(p.model is not None and p.model.degenerate)

    # a test the prior never ran has a code past its registry
    means = p.prior.means
    mean_duration = float(np.mean(means))
    durations = np.where(codes < len(means), means.take(codes, mode="clip"), mean_duration)

    t0 = time.perf_counter()
    if kind is RankerKind.RANDOM:
        scores = random_rank(len(codes), rank_seed)
    elif kind is RankerKind.ROCKET:
        failing = coded.failing[window.lo:window.hi][::-1]
        scores = rocket_priorities(failing, len(coded.id_ranks), params)[codes]
    else:
        scores = score_matrix(p.model, p.rows)
    ranking, order = rank_with_tie_break(coded.ids[codes], scores, durations,
                                         coded.id_ranks[codes])
    wall_rank = time.perf_counter() - t0

    rank_units = _rank_units(kind, params, len(codes), window.n_cycles,
                             cfg.features.dimension)
    train_s = p.train_units / NOMINAL_OPS_PER_SECOND
    rank_s = rank_units / NOMINAL_OPS_PER_SECOND

    failed = p.cycle.failed[order]
    fault_positions = (np.flatnonzero(failed) + 1).tolist()
    m = len(fault_positions)
    apfd_v = apfd(fault_positions, len(ranking)) if m else None

    cumulative = np.cumsum(ranking.durations)
    outcomes = []
    for budget in budgets:
        executed, elapsed = cut_by_budget(cumulative, budget)
        detected = tuple(fault_positions[:np.count_nonzero(failed[:executed])])
        metrics = CycleMetrics(
            apfd=apfd_v,
            napfd=napfd(detected, executed, m) if m else None,
            tdff_pct=time_to_fault(cumulative[:executed], failed[:executed], budget, last=False),
            tdlf_pct=time_to_fault(cumulative[:executed], failed[:executed], budget, last=True),
            faults_present=m,
            faults_detected=len(detected),
        )
        outcomes.append(CycleOutcome(
            cycle_id=p.cycle.cycle_id,
            ranking=ranking,
            executed=executed,
            elapsed_s=elapsed,
            detected_positions=detected,
            faults_present=m,
            metrics=metrics,
            train_seconds=train_s,
            rank_seconds=rank_s,
            degenerate=degenerate,
            wall_train_seconds=p.wall_train,
            wall_rank_seconds=wall_rank,
        ))
    return outcomes


def replay_cycle(h: TestHistory, c: int, cfg: ReplayConfig) -> CycleOutcome:
    """Replay the cycle at position ``c`` of ``h.cycles`` (training only on
    cycles before it)."""
    if not (0 <= c < h.n_cycles):
        raise IndexError(f"cycle position {c} out of range")
    if c == 0:
        raise NoPriorHistory("cycle has no preceding history to train on")
    [(_, p)] = _fitted_cycles(h, [cfg], [[c]])
    return _rank_at(p, _coded(h, cfg.ranker, c), cfg, [cfg.budget_s])[0]


# --- worker processes -----------------------------------------------------------

_POOL_STATE: dict = {}  # in a pool worker: the state its initializer was given


def _hold(state: tuple) -> None:
    _POOL_STATE["state"] = state


def pool_state() -> tuple:
    """The ``state`` that :func:`pool_map` gave this worker process."""
    return _POOL_STATE["state"]


def pool_map(task, items: list, workers: int, state: tuple) -> list:
    """``[task(item) for item in items]`` on ``min(workers, len(items))``
    worker processes, each holding ``state`` for its tasks
    (:func:`pool_state`).  Items go out one at a time in list order, so
    the first listed starts first; results come back in list order.  A
    task's exception is raised here, and no worker outlives the call."""
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=min(workers, len(items)), initializer=_hold,
                  initargs=(state,)) as pool:
        return pool.map(task, items, chunksize=1)


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` where the
    platform has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers(n_tasks: int, cpus: int) -> int:
    """Processes for ``n_tasks`` equal tasks on ``cpus`` CPUs: one per task
    up to one more than ``cpus`` (when there are other CPUs to share the
    last task with), so a lone last task does not run while the other
    CPUs idle; else one per CPU.  Time-sliced tasks cost more than an even
    CPU share, so a larger excess is not assumed to pay."""
    return n_tasks if n_tasks <= cpus or (cpus > 1 and n_tasks == cpus + 1) else cpus


def _replay_in_worker(pos: int) -> list[CycleOutcome]:
    """Replay cycle position ``pos`` of the walk this worker holds."""
    h, coded, cfg, budgets = pool_state()
    [(_, p)] = _fitted_cycles(h, [cfg], [[pos]])
    return _rank_at(p, coded, cfg, budgets)


def check_history_length(h: TestHistory) -> None:
    """Raise :class:`HistoryTooShort` unless ``h`` is long enough to replay."""
    if h.n_cycles < _MIN_CYCLES:
        raise HistoryTooShort(f"need >= {_MIN_CYCLES} cycles, history has {h.n_cycles}")


def walk_forward_budgets(h: TestHistory, cfg: ReplayConfig, budgets: list[float],
                         workers: int | None = None,
                         cycles: Iterator[_EvalCycle] | None = None) -> list[list[CycleOutcome]]:
    """Replay the evaluation cycles once per budget, sharing each cycle's
    trained model and ranking across budgets (training is budget-independent,
    which also makes detected-fault sets nested across growing budgets).

    Returns one chronological outcome list per budget.  The budgets are
    checked before anything is fitted: at least one, each positive and
    finite.  A ranker that trains replays its eval cycles on ``workers``
    processes when there are two or more of each and this process is not
    itself a pool worker; the outcomes are the serial walk's either way.
    ``workers=None`` starts one process per eval cycle while there is at
    most one more cycle than usable CPUs, else one per usable CPU
    (:func:`default_workers`).  ``cycles``, this walk's iterator from
    :func:`fit_walks`, are ranked and replayed as they are, in this
    process.
    """
    if not budgets:
        raise ValueError("budgets must not be empty")
    for budget in budgets:
        check_budget(budget)
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_history_length(h)
    positions = _eval_positions(h, cfg)
    coded = _coded(h, cfg.ranker, h.n_cycles - 1)
    if workers is None:
        workers = default_workers(len(positions), usable_cpus())
    if (cycles is None and cfg.ranker.trains and len(positions) > 1 and workers > 1
            and not multiprocessing.current_process().daemon):
        per_cycle = pool_map(_replay_in_worker, list(positions), workers,
                             (h, coded, cfg, budgets))
    else:
        if cycles is None:
            cycles = (p for _, p in _fitted_cycles(h, [cfg], [positions]))
        per_cycle = [_rank_at(p, coded, cfg, budgets) for p in cycles]
    return [list(outcomes) for outcomes in zip(*per_cycle)]


def walk_forward(h: TestHistory, cfg: ReplayConfig,
                 workers: int | None = None) -> list[CycleOutcome]:
    """One outcome per evaluation cycle (the last ``eval_fraction`` of the
    history, capped so at least one prior cycle always exists), on
    ``workers`` processes as in :func:`walk_forward_budgets`."""
    return walk_forward_budgets(h, cfg, [cfg.budget_s], workers)[0]
