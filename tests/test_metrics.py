import itertools

import numpy as np
import pytest

from testprio.errors import (
    DimensionMismatch,
    EmptyOutcomeList,
    NoFaults,
    NonPositiveBudget,
    PositionOutOfRange,
)
from testprio.metrics import CycleMetrics, aggregate, apfd, napfd, tdff, tdlf


def brute_force_apfd(order_failed: list[bool]) -> float:
    """Independent oracle: direct formula over an explicit ordering."""
    n = len(order_failed)
    positions = [i + 1 for i, f in enumerate(order_failed) if f]
    m = len(positions)
    return 1.0 - sum(positions) / (n * m) + 1.0 / (2 * n)


class TestApfd:
    def test_single_test_single_fault(self):
        assert apfd([1], 1) == pytest.approx(0.5)

    def test_two_faults_first(self):
        # oracle: 1 - 3/10 + 1/10 = 0.8
        assert apfd([1, 2], 5) == pytest.approx(0.8)

    def test_two_faults_last(self):
        # oracle: 1 - 9/10 + 1/10 = 0.2
        assert apfd([4, 5], 5) == pytest.approx(0.2)

    def test_no_faults_raises(self):
        with pytest.raises(NoFaults):
            apfd([], 5)

    def test_position_out_of_range(self):
        with pytest.raises(PositionOutOfRange):
            apfd([6], 5)
        with pytest.raises(PositionOutOfRange):
            apfd([0], 5)
        with pytest.raises(PositionOutOfRange):
            apfd([2, 2], 5)

    def test_exhaustive_small_orderings(self):
        # brute-force oracle over every ordering of n <= 6 with m fails
        for n in range(1, 7):
            for m in range(1, n + 1):
                flags = [True] * m + [False] * (n - m)
                for perm in set(itertools.permutations(flags)):
                    expected = brute_force_apfd(list(perm))
                    positions = [i + 1 for i, f in enumerate(perm) if f]
                    assert apfd(positions, n) == pytest.approx(expected, abs=1e-12)

    def test_extremes_and_single_fault_mean(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                values = [
                    apfd(list(c), n)
                    for c in itertools.combinations(range(1, n + 1), m)
                ]
                assert max(values) == pytest.approx(1.0 - m / (2 * n), abs=1e-12)
                worst = 1.0 - (m * n - m * (m - 1) / 2) / (n * m) + 1.0 / (2 * n)
                assert min(values) == pytest.approx(worst, abs=1e-12)
            singles = [apfd([p], n) for p in range(1, n + 1)]
            assert np.mean(singles) == pytest.approx(0.5, abs=1e-9)

    def test_strictly_decreasing_when_fault_moves_later(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n))
            positions = sorted(rng.choice(np.arange(1, n + 1), m, replace=False))
            free = [p for p in range(1, n + 1) if p not in positions]
            later_options = [
                (i, q) for i, p in enumerate(positions) for q in free if q > p
            ]
            if not later_options:
                continue
            i, q = later_options[int(rng.integers(len(later_options)))]
            moved = list(positions)
            moved[i] = q
            assert apfd(moved, n) < apfd(positions, n)


class TestNapfd:
    def test_partial_detection(self):
        # oracle: p=1/2; 0.5 - 2/6 + 0.5/6 = 0.25
        assert napfd([2], 3, 2) == pytest.approx(0.25)

    def test_reduces_to_apfd_when_everything_runs(self):
        positions = [1, 4]
        assert napfd(positions, 5, 2) == pytest.approx(apfd(positions, 5))

    def test_nothing_executed_is_zero(self):
        assert napfd([], 0, 3) == 0.0

    def test_no_faults_raises(self):
        with pytest.raises(NoFaults):
            napfd([], 5, 0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 6))
            d = int(rng.integers(0, min(n, m) + 1))
            detected = sorted(rng.choice(np.arange(1, n + 1), d, replace=False))
            assert napfd(list(detected), n, m) <= 1.0 + 1e-12

    def test_detecting_one_more_at_tail_never_hurts(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(2, 8))
            d = int(rng.integers(0, min(n - 1, m - 1) + 1))
            detected = sorted(rng.choice(np.arange(1, n), d, replace=False))
            base = napfd(list(detected), n, m)
            more = napfd(list(detected) + [n], n, m)
            assert more >= base - 1e-12


class TestTimeToFault:
    def test_first_fault_midway(self):
        # oracle: cumulative 2+3 = 5 of budget 10 -> 50%
        assert tdff([2.0, 3.0, 4.0], [False, True, False], 10.0) == pytest.approx(50.0)

    def test_first_test_consumes_whole_budget(self):
        assert tdff([10.0], [True], 10.0) == pytest.approx(100.0)

    def test_undefined_without_failures(self):
        assert tdff([2.0], [False], 10.0) is None
        assert tdlf([], [], 10.0) is None

    def test_last_fault(self):
        # oracle: fails at positions 1 and 3 -> 2+3+4 = 9 of 10 -> 90%
        assert tdlf([2.0, 3.0, 4.0], [True, False, True], 10.0) == pytest.approx(90.0)

    def test_single_fault_tdff_equals_tdlf(self):
        durations, failed = [1.0, 2.0, 3.0], [False, True, False]
        assert tdff(durations, failed, 6.0) == tdlf(durations, failed, 6.0)

    def test_tdff_le_tdlf(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            executed = [(float(rng.uniform(0.1, 3)), bool(rng.random() < 0.4))
                        for _ in range(n)]
            durations, failed = [d for d, _ in executed], [f for _, f in executed]
            first, last = tdff(durations, failed, 10.0), tdlf(durations, failed, 10.0)
            assert (first is None) == (last is None)
            if first is not None:
                assert first <= last

    def test_non_positive_budget(self):
        with pytest.raises(NonPositiveBudget):
            tdff([1.0], [True], 0.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tdlf([1.0, 2.0], [True], 5.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_running_sum_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40))
        durations = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1, 1e-9], n).tolist()
        failed = (rng.random(n) < 0.3).tolist()
        running = np.cumsum(durations).tolist()
        for budget in [*running, 0.3, 10.0]:  # budgets exactly on a cumulative sum
            for fn, last in ((tdff, False), (tdlf, True)):
                got = fn(durations, failed, budget)
                assert got == _loop_time_to_fault(durations, failed, budget, last)
                assert got is None or type(got) is float
                # replay passes numpy columns
                assert fn(np.array(durations), np.array(failed, dtype=bool), budget) == got


def _loop_time_to_fault(durations, failed, budget, last):
    """Reference: the running-sum loop that the cumulative-sum read replaced."""
    elapsed = 0.0
    hit = None
    for duration, f in zip(durations, failed):
        elapsed += duration
        if f:
            hit = elapsed
            if not last:
                break
    return None if hit is None else 100.0 * hit / budget


class _Outcome:
    def __init__(self, apfd_v, train=0.1, rank=0.01, degenerate=False):
        self.metrics = CycleMetrics(
            apfd=apfd_v, napfd=apfd_v, tdff_pct=None, tdlf_pct=None,
            faults_present=1 if apfd_v is not None else 0,
            faults_detected=0,
        )
        self.train_seconds = train
        self.rank_seconds = rank
        self.degenerate = degenerate


class TestAggregate:
    def test_mean_skips_undefined(self):
        # oracle: mean of {0.8, 0.6} = 0.7 with 2 defined
        summary = aggregate([_Outcome(0.8), _Outcome(None), _Outcome(0.6)])
        assert summary.mean_apfd == pytest.approx(0.7)
        assert summary.apfd_defined == 2
        assert summary.cycles == 3

    def test_single_value_has_no_std(self):
        summary = aggregate([_Outcome(0.9)])
        assert summary.mean_apfd == pytest.approx(0.9)
        assert summary.std_apfd is None

    def test_all_undefined(self):
        summary = aggregate([_Outcome(None), _Outcome(None)])
        assert summary.mean_apfd is None
        assert summary.apfd_defined == 0

    def test_sample_std(self):
        summary = aggregate([_Outcome(0.4), _Outcome(0.8)])
        assert summary.std_apfd == pytest.approx(np.std([0.4, 0.8], ddof=1))

    def test_empty_raises(self):
        with pytest.raises(EmptyOutcomeList):
            aggregate([])

    def test_timing_means_and_degenerate_count(self):
        summary = aggregate([
            _Outcome(0.5, train=0.2, rank=0.02),
            _Outcome(0.5, train=0.4, rank=0.04, degenerate=True),
        ])
        assert summary.mean_train_s == pytest.approx(0.3)
        assert summary.mean_rank_s == pytest.approx(0.03)
        assert summary.degenerate_count == 1
