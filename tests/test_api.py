"""The public API: what ``testprio`` and ``testprio.rankers`` export, and
the call sites the wall-clock benchmark (``perfbench/spans.py``) wraps."""

import dataclasses
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import testprio
import testprio.rankers
import testprio.rankers.nets
from testprio import config, domain, errors, features, replay
from testprio.rankers import RankerKind

from .conftest import churn_history

# Names removed with the row view of a cycle and the scalar feature path,
# the Mapping adapters that nothing ranked through, the unknown-test error
# that feature rows gathered by registry code never raise, the budget ladder
# that sat beside the grid's own ``f * b5``, the second class-weight rule, and
# the column cores' old names with the errors only their id-keyed adapters
# raised (the cores now carry the adapters' names).
CORE_NAMES = ("rank_columns", "random_scores", "rocket_scores")
REMOVED = {
    testprio: ("Execution", "Verdict", "FeatureVector", "build_feature_vector",
               "recency_failure_score", "standardize", "score", "rocket_rank",
               "rank_cycle", "BudgetSchedule", "budget_schedule"),
    testprio.rankers: ("ORDERING_KEY", "score", "rocket_rank", "rank_cycle", *CORE_NAMES),
    testprio.rankers.base: ("rocket_rank", "rank_cycle", *CORE_NAMES),
    replay: ("cut_elapsed",),
    testprio.rankers.nets: ("_class_weights",),
    domain: ("Execution", "Verdict", "BudgetSchedule", "budget_schedule"),
    domain.Cycle: ("from_executions", "executions", "iter_executions"),
    domain.TestHistory: ("cycle_index",),
    features: ("FeatureVector", "build_feature_vector", "recency_failure_score",
               "standardize", "UnknownTest"),
    errors: ("UnknownTest", "KeyMismatch", "EmptyTestSet", "EmptyWindow"),
    config: ("dump_config",),
    testprio.rankers.RankedSuite: ("ordering",),
}


@pytest.mark.parametrize("module", [testprio, testprio.rankers])
def test_every_exported_name_resolves_once(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        getattr(module, name)


@pytest.mark.parametrize("owner", list(REMOVED), ids=lambda o: o.__name__)
def test_removed_names_are_gone(owner):
    for name in REMOVED[owner]:
        assert not hasattr(owner, name), name


def test_training_set_holds_no_per_example_ids():
    # a field without a default is no class attribute, so hasattr would pass
    assert "test_ids" not in {f.name for f in dataclasses.fields(features.TrainingSet)}


@pytest.fixture
def spans(monkeypatch):
    """The benchmark's span tracer module, ``perfbench/spans.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_call_site_exists(spans):
    """Each function the benchmark's span tracer wraps is still where it
    looks; a missing one silently drops its layer from traced runs."""
    installation = spans.install(spans.Tracer())
    try:
        assert installation.absent == []
    finally:
        installation.restore()


def test_benchmark_spans_time_the_replays_ranking_steps(spans):
    """Traced rocket and random walks record a span for each ranking step
    they take: the scores and tie-break of every eval cycle and one cut per
    eval cycle and budget."""
    h = churn_history(0)
    budgets = [20.0, 60.0]
    cut = replay.cut_by_budget
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        walks = {kind: replay.walk_forward_budgets(
                     h, replay.ReplayConfig(kind, budgets[0]), budgets, workers=1)
                 for kind in (RankerKind.ROCKET, RankerKind.RANDOM)}
    finally:
        installation.restore()
    assert replay.cut_by_budget is cut
    n_eval = {kind: len(walk[0]) for kind, walk in walks.items()}
    counts = Counter(s.name for s in tracer.spans)
    assert counts["rankers.rocket"] == n_eval[RankerKind.ROCKET] > 0
    assert counts["rankers.random"] == n_eval[RankerKind.RANDOM] > 0
    assert counts["rankers.tie_break"] == sum(n_eval.values())
    assert counts["replay.cut"] == sum(n_eval.values()) * len(budgets)


def test_benchmark_spans_time_the_stacked_net_fits(spans):
    """Traced serial ann and lrn walks fit their eval cycles in one stacked
    call each, which the fit span records, and every trained, non-degenerate
    outcome carries a share of that call's wall time."""
    h = churn_history(0)
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        walks = {kind: replay.walk_forward(h, replay.ReplayConfig(
                     kind, 30.0, history_fraction=0.5, params=dataclasses.replace(
                         testprio.rankers.default_params(kind), epochs=2, restarts=2)),
                     workers=1)
                 for kind in (RankerKind.ANN, RankerKind.LRN)}
    finally:
        installation.restore()
    counts = Counter(s.name for s in tracer.spans)
    assert counts["rankers.fit.ann"] == counts["rankers.fit.lrn"] == 1
    for outcomes in walks.values():
        trained = [o for o in outcomes if not o.degenerate]
        assert len(trained) == len(outcomes) > 1
        assert all(o.wall_train_seconds > 0 for o in trained)
