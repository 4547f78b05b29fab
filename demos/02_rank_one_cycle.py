"""Train each ranker on a history window and prioritize one cycle's tests.

Run:  python demos/02_rank_one_cycle.py
"""

from testprio import (
    FeatureConfig,
    RankerKind,
    ReplayConfig,
    SyntheticSpec,
    average_suite_duration,
    build_training_set,
    generate_synthetic,
    replay_cycle,
    slice_recent,
)
from testprio.domain import history_prefix

spec = SyntheticSpec(n_tests=20, n_cycles=60, base_failure_prob=0.3,
                     persistence=0.92, flip_prob=0.03)
history = generate_synthetic(spec, seed=7)

# Rank the final cycle using everything before it. replay_cycle trains on a
# window of the prior cycles and reads durations from their registry only,
# so nothing leaks from the cycle being prioritized.
last = history.n_cycles - 1
target = history.cycles[last]
prior = history_prefix(history, last)

training = build_training_set(slice_recent(prior, 0.6), FeatureConfig())
print(f"training set: {training.n_examples} examples, "
      f"{int(training.y.sum())} failures")

actually_failing = {t for t, f in zip(target.test_ids, target.failed) if f}
print("tests that fail in the target cycle:", sorted(actually_failing) or "(none)")

budget = average_suite_duration(prior)
for kind in RankerKind:
    cfg = ReplayConfig(ranker=kind, budget_s=budget, history_fraction=0.6, base_seed=1)
    top = list(replay_cycle(history, last, cfg).ranking.test_ids[:5])
    hits = sum(t in actually_failing for t in top)
    print(f"{kind.value:7s} top-5: {top}  (failing tests in top-5: {hits})")
