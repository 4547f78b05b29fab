"""The public API: what ``testprio`` and ``testprio.rankers`` export."""

import pytest

import testprio
import testprio.rankers
from testprio import config, domain, features

# Names removed with the row view of a cycle and the scalar feature path.
REMOVED = {
    testprio: ("Execution", "Verdict", "FeatureVector", "build_feature_vector",
               "recency_failure_score", "standardize", "score"),
    testprio.rankers: ("ORDERING_KEY", "score"),
    domain: ("Execution", "Verdict"),
    domain.Cycle: ("from_executions", "executions", "iter_executions"),
    domain.TestHistory: ("cycle_index",),
    features: ("FeatureVector", "build_feature_vector", "recency_failure_score",
               "standardize"),
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
