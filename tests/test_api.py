"""The public API: what ``testprio`` and ``testprio.rankers`` export, and
the call sites the wall-clock benchmark (``perfbench/spans.py``) wraps."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

import testprio
import testprio.rankers
import testprio.rankers.nets
from testprio import config, domain, errors, features

# Names removed with the row view of a cycle and the scalar feature path,
# the Mapping adapters that nothing ranked through, the unknown-test error
# that feature rows gathered by registry code never raise, the budget ladder
# that sat beside the grid's own ``f * b5`` and the second class-weight rule.
REMOVED = {
    testprio: ("Execution", "Verdict", "FeatureVector", "build_feature_vector",
               "recency_failure_score", "standardize", "score", "rocket_rank",
               "rank_cycle", "BudgetSchedule", "budget_schedule"),
    testprio.rankers: ("ORDERING_KEY", "score", "rocket_rank", "rank_cycle"),
    testprio.rankers.base: ("rocket_rank", "rank_cycle"),
    testprio.rankers.nets: ("_class_weights",),
    domain: ("Execution", "Verdict", "BudgetSchedule", "budget_schedule"),
    domain.Cycle: ("from_executions", "executions", "iter_executions"),
    domain.TestHistory: ("cycle_index",),
    features: ("FeatureVector", "build_feature_vector", "recency_failure_score",
               "standardize", "UnknownTest"),
    errors: ("UnknownTest",),
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


def test_every_benchmark_call_site_exists(monkeypatch):
    """Each function the benchmark's span tracer wraps is still where it
    looks; a missing one silently drops its layer from traced runs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    installation = spans.install(spans.Tracer())
    try:
        assert installation.absent == []
    finally:
        installation.restore()
