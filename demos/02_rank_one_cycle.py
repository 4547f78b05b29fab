"""Train each ranker on a history window and prioritize one cycle's tests.

Run:  python demos/02_rank_one_cycle.py
"""

from testprio import (
    FeatureConfig,
    RankerKind,
    SyntheticSpec,
    build_training_set,
    generate_synthetic,
    random_rank,
    rocket_rank,
    slice_recent,
)
from testprio.domain import history_prefix
from testprio.features import feature_matrix
from testprio.rankers import FITTERS, default_params, rank_cycle, with_seed

spec = SyntheticSpec(n_tests=20, n_cycles=60, base_failure_prob=0.3,
                     persistence=0.92, flip_prob=0.03)
history = generate_synthetic(spec, seed=7)

# Rank the final cycle using everything before it. The window and the
# feature matrix see only prior cycles, so nothing leaks from the cycle
# being prioritized.
target = history.cycles[-1]
prior = history_prefix(history, history.n_cycles - 1)
window = slice_recent(prior, 0.6)
cfg = FeatureConfig()

training = build_training_set(window, cfg)
print(f"training set: {training.n_examples} examples, "
      f"{int(training.y.sum())} failures")

durations = {tid: prior.registry[tid] for tid in target.test_ids}
rows = feature_matrix(window, list(target.test_ids), cfg)
actually_failing = {t for t, f in zip(target.test_ids, target.failed) if f}
print("tests that fail in the target cycle:", sorted(actually_failing) or "(none)")

for kind in RankerKind:
    if kind is RankerKind.RANDOM:
        suite = random_rank(list(target.test_ids), durations, seed=1)
    elif kind is RankerKind.ROCKET:
        suite = rocket_rank(window, durations)
    else:
        model = FITTERS[kind](training, with_seed(default_params(kind), 1))
        suite = rank_cycle(model, list(target.test_ids), durations, rows)
    top = list(suite.test_ids[:5])
    hits = sum(t in actually_failing for t in top)
    print(f"{kind.value:7s} top-5: {top}  (failing tests in top-5: {hits})")
