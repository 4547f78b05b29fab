"""Shared builders and fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from testprio.domain import Cycle, TestHistory, validate_history
from testprio.features import FeatureConfig, TrainingSet, compute_stats
from testprio.ingest import SyntheticSpec, generate_synthetic


_FORKS = [0]


def _count_fork() -> None:
    _FORKS[0] += 1


os.register_at_fork(after_in_parent=_count_fork)


def forks() -> int:
    """How many times this process has forked (a pool forks once per
    worker; ``subprocess`` execs without this hook)."""
    return _FORKS[0]


def cyc(cycle_id: int, *rows: tuple[str, str, float]) -> Cycle:
    """Cycle from ("A", "fail", 1.5) style rows."""
    return Cycle(cycle_id, tuple(r[0] for r in rows),
                 np.array([r[1] == "fail" for r in rows], dtype=bool),
                 np.array([r[2] for r in rows], dtype=np.float64))


def history(*cycles: Cycle) -> TestHistory:
    return validate_history(cycles)


def churn_history(seed: int, n_tests: int = 40, n_cycles: int = 60) -> TestHistory:
    """Synthetic history whose tests churn: some first run late, some stop
    running early, each cycle runs a random subset, and every cycle records
    its tests in a shuffled order (so first-run order is not id order)."""
    spec = SyntheticSpec(n_tests=n_tests, n_cycles=n_cycles, base_failure_prob=0.3,
                         persistence=0.9, flip_prob=0.05, duration_min_s=0.5,
                         duration_max_s=5.0)
    full = generate_synthetic(spec, seed)
    rng = np.random.default_rng([seed, 1])
    first = np.where(rng.random(n_tests) < 0.3, rng.integers(0, n_cycles, n_tests), 0)
    last = np.where(rng.random(n_tests) < 0.3, rng.integers(1, n_cycles, n_tests), n_cycles)
    ids = np.array(full.cycles[0].test_ids, dtype=object)
    cycles = []
    for c, full_cyc in enumerate(full.cycles):
        order = rng.permutation(n_tests)
        runs = (rng.random(n_tests) < 0.7) & (first <= c) & (c < last)
        runs[order[0]] = True  # no empty cycle
        sel = order[runs[order]]
        jitter = rng.uniform(0.5, 1.5, len(sel))  # durations vary run to run
        cycles.append(Cycle(full_cyc.cycle_id, tuple(ids[sel]), full_cyc.failed[sel],
                            full_cyc.duration_s[sel] * jitter))
    return validate_history(cycles)


def toy_training_set(X, y, groups=None, standardize=True) -> TrainingSet:
    """Training set straight from arrays, bypassing history construction."""
    from testprio.features import StandardizationStats

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if groups is None:
        groups = np.zeros(len(y), dtype=np.int64)
    else:
        groups = np.asarray(groups, dtype=np.int64)
    if standardize:
        stats = compute_stats(X)
    else:
        stats = StandardizationStats(mean=np.zeros(X.shape[1]), std=np.ones(X.shape[1]))
    return TrainingSet(
        X=X,
        y=y,
        group_cycle_ids=groups,
        stats=stats,
        config=FeatureConfig(),
    )


@pytest.fixture
def small_history() -> TestHistory:
    """Three cycles, three tests; A fails throughout, B fails once."""
    return history(
        cyc(0, ("A", "fail", 4.0), ("B", "pass", 2.0), ("C", "pass", 1.0)),
        cyc(1, ("A", "fail", 6.0), ("B", "fail", 2.0), ("C", "pass", 1.0)),
        cyc(2, ("A", "fail", 5.0), ("B", "pass", 2.0), ("C", "pass", 1.0)),
    )


# Acceptance fixtures: 50 tests x 200 cycles.  Seeds and thresholds were
# fixed by pilot runs; regenerating with the same spec/seed reproduces the
# exact same histories.

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

# Failure roles permute at cycle 120; prone tests fail sparsely (i.i.d. 0.1)
# and healthy tests carry light background noise, so long training windows
# reward the stale pre-shift failers.
REGIME_SHIFT_SPEC = SyntheticSpec(
    n_tests=50,
    n_cycles=200,
    base_failure_prob=0.4,
    persistence=0.1,
    flip_prob=0.1,
    duration_min_s=0.5,
    duration_max_s=2.0,
    regime_shift_cycle=120,
    noise_failure_prob=0.01,
)
REGIME_SHIFT_SEED = 1  # pilot-selected; see tests/test_acceptance.py


@pytest.fixture(scope="session")
def persistent_history() -> TestHistory:
    return generate_synthetic(PERSISTENT_SPEC, PERSISTENT_SEED)


@pytest.fixture(scope="session")
def regime_shift_history() -> TestHistory:
    return generate_synthetic(REGIME_SHIFT_SPEC, REGIME_SHIFT_SEED)
