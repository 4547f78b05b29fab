"""Input histories of the benchmark workloads, as canonical CSV bytes.

Every history is a pure function of its arguments, so the same seed always
gives the same bytes.  The program under test only ever sees those bytes.
"""

from __future__ import annotations

import numpy as np

from testprio.bench import emit_canonical
from testprio.domain import Cycle, validate_history
from testprio.ingest import SyntheticSpec, generate_synthetic

# The acceptance fixture (tests/conftest.py: PERSISTENT_SPEC, seed 5).
PERSISTENT_SPEC = SyntheticSpec(
    n_tests=50,
    n_cycles=200,
    base_failure_prob=0.3,
    persistence=0.95,
    flip_prob=0.004,
    duration_min_s=0.5,
    duration_max_s=2.0,
)
PERSISTENT_SEED = 5

# Google-shaped: 5507 tests, about 0.4% of executions fail (prone share 5%
# times the chain's stationary fail rate 0.01 / 0.11).
GOOGLE_TESTS = 5507
GOOGLE_CYCLES = 200
RUN_SHARE = 0.7      # chance that an introduced test runs in a given cycle
LATE_SHARE = 0.1     # tests whose first run falls in the second half


def fixture_csv() -> bytes:
    """The acceptance fixture cut after its last failing cycle.

    Its last 11 cycles hold no failure, so a short evaluation window at the
    end of the full fixture would leave APFD undefined.
    """
    h = generate_synthetic(PERSISTENT_SPEC, PERSISTENT_SEED)
    last = max(i for i, c in enumerate(h.cycles) if c.failed.any())
    return emit_canonical(validate_history(h.cycles[: last + 1]))


def google_csv(seed: int, n_tests: int = GOOGLE_TESTS,
               n_cycles: int = GOOGLE_CYCLES) -> bytes:
    """A wide history with churn: each cycle runs about 70% of the tests
    introduced so far, and 10% of the tests first appear late."""
    spec = SyntheticSpec(
        n_tests=n_tests,
        n_cycles=n_cycles,
        base_failure_prob=0.05,
        persistence=0.9,
        flip_prob=0.01,
        duration_min_s=0.5,
        duration_max_s=30.0,
    )
    full = generate_synthetic(spec, seed)
    rng = np.random.default_rng([seed, 1])
    late = rng.random(n_tests) < LATE_SHARE
    first = np.where(late, rng.integers(n_cycles // 2, n_cycles, size=n_tests), 0)
    ids = np.array(full.cycles[0].test_ids, dtype=object)
    cycles = []
    for c, cyc in enumerate(full.cycles):
        runs = (rng.random(n_tests) < RUN_SHARE) & (first <= c)
        cycles.append(Cycle(cyc.cycle_id, tuple(ids[runs]), cyc.failed[runs],
                            cyc.duration_s[runs]))
    return emit_canonical(validate_history(cycles))
