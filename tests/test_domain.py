import pickle

import numpy as np
import pytest

from testprio.domain import (
    Cycle,
    ExecutionColumns,
    average_suite_duration,
    history_prefix,
    history_prefixes,
    round_half_up,
    slice_recent,
    validate_history,
)
from testprio.errors import (
    DuplicateCycleId,
    DuplicateTestInCycle,
    EmptyCycle,
    EmptyHistory,
    FractionOutOfRange,
    NonPositiveDuration,
)

from .conftest import churn_history, cyc, history
from .oracles import registry_loop


class TestValidateHistory:
    def test_valid_history_passes_through(self, small_history):
        again = validate_history(small_history)
        assert again == small_history

    def test_registry_is_arithmetic_mean(self):
        # oracle: (4 + 6) / 2 = 5
        h = history(cyc(0, ("A", "fail", 4.0)), cyc(1, ("A", "pass", 6.0)))
        assert h.registry["A"] == pytest.approx(5.0)

    def test_registry_covers_every_test(self, small_history):
        seen = {t for c in small_history.cycles for t in c.test_ids}
        assert set(small_history.registry) == seen

    def test_out_of_order_cycle_ids_rejected(self):
        with pytest.raises(DuplicateCycleId):
            validate_history([cyc(2, ("A", "pass", 1.0)), cyc(1, ("A", "pass", 1.0))])

    def test_duplicate_cycle_ids_rejected(self):
        with pytest.raises(DuplicateCycleId):
            validate_history([cyc(1, ("A", "pass", 1.0)), cyc(1, ("B", "pass", 1.0))])

    def test_empty_history_rejected(self):
        with pytest.raises(EmptyHistory):
            validate_history([])

    def test_empty_cycle_rejected(self):
        with pytest.raises(EmptyCycle):
            validate_history([cyc(0)])

    def test_duplicate_test_in_cycle_rejected(self):
        with pytest.raises(DuplicateTestInCycle, match="A"):
            validate_history([cyc(0, ("A", "pass", 1.0), ("A", "fail", 2.0))])

    def test_non_positive_duration_rejected(self):
        with pytest.raises(NonPositiveDuration, match="cycle 0"):
            validate_history([cyc(0, ("A", "pass", 0.0))])

    def test_errors_come_in_cycle_order(self):
        dup = cyc(1, ("A", "pass", 1.0), ("A", "pass", 1.0))
        with pytest.raises(DuplicateTestInCycle):
            validate_history([dup, cyc(0, ("A", "pass", 1.0))])
        with pytest.raises(DuplicateTestInCycle):
            validate_history([dup, cyc(2)])
        with pytest.raises(DuplicateCycleId):
            validate_history([cyc(1, ("A", "pass", 1.0)), cyc(0, ("A", "pass", 0.0))])
        with pytest.raises(NonPositiveDuration, match="test 'B'"):
            validate_history([cyc(0, ("A", "pass", 1.0), ("B", "pass", -1.0),
                                  ("C", "pass", 0.0)), dup])

    def test_idempotent(self, small_history):
        assert validate_history(validate_history(small_history)) == small_history

    def test_cycle_input_keeps_the_callers_cycles(self):
        cycles = list(churn_history(1).cycles)
        h = validate_history(cycles)
        assert len(h.cycles) == len(cycles)
        assert all(h.cycles[i] is cycles[i] for i in range(len(cycles)))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_cycle_and_column_input_give_one_history(self, seed):
        cycles = _late_arrivals(seed).cycles
        # newest cycle first, so the column route has to group the rows
        rows = [(c.cycle_id, t, f, d) for c in cycles[::-1]
                for t, f, d in zip(c.test_ids, c.failed.tolist(), c.duration_s.tolist())]
        cycle_ids, test_ids, failed, durations = zip(*rows)
        from_columns = validate_history(ExecutionColumns(
            np.array(cycle_ids), list(test_ids), np.array(failed), np.array(durations)))
        from_cycles = validate_history(list(cycles))
        assert from_columns == from_cycles
        assert from_columns.test_ids == from_cycles.test_ids
        assert np.array_equal(from_columns.means, from_cycles.means)
        assert len(from_columns.codes) == len(from_cycles.codes)
        for a, b in zip(from_columns.codes, from_cycles.codes):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


def _late_arrivals(seed: int):
    """A churn history in which a third of the tests are renamed from the
    middle cycle on, so that they first run halfway through."""
    h = churn_history(seed)
    late = set(h.test_ids[::3])
    return validate_history([
        c if i < h.n_cycles // 2 else Cycle(
            c.cycle_id, tuple(t + "-late" if t in late else t for t in c.test_ids),
            c.failed, c.duration_s)
        for i, c in enumerate(h.cycles)])


class TestCodesAndPrefix:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prefix_registry_equals_dict_loop_in_order(self, seed):
        # order matters: the fallback duration is np.mean over the registry
        h = churn_history(seed)
        n = h.n_cycles
        for pos in (1, 2, 7, n // 2, n - 1, n):
            expected = list(registry_loop(h.cycles[:pos]).items())
            assert list(history_prefix(h, pos).registry.items()) == expected
        assert list(h.registry.items()) == list(registry_loop(h.cycles).items())

    @pytest.mark.parametrize("seed", [0, 3])
    def test_code_is_registry_position(self, seed):
        h = churn_history(seed)
        for prior in (h, history_prefix(h, h.n_cycles // 3)):
            ids = list(prior.registry)
            assert len(prior.codes) == prior.n_cycles
            for c, codes in zip(prior.cycles, prior.codes):
                assert [ids[code] for code in codes] == list(c.test_ids)

    def test_prefix_equals_revalidated_prefix(self):
        h = churn_history(4)
        for pos in (1, 10, 33):
            again = validate_history(h.cycles[:pos])
            prefix = history_prefix(h, pos)
            assert prefix == again
            assert all(np.array_equal(a, b) for a, b in zip(prefix.codes, again.codes))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_running_prefixes_equal_one_shot_prefixes_bit_for_bit(self, seed):
        h = churn_history(seed)
        positions = [1, 1, 2, 9, 30, h.n_cycles - 1, h.n_cycles]
        for pos, prefix in zip(positions, history_prefixes(h, positions)):
            one_shot = history_prefix(h, pos)
            assert prefix == one_shot
            assert list(prefix.registry.items()) == list(one_shot.registry.items())
            assert len(prefix.codes) == pos
            assert all(a is b for a, b in zip(prefix.codes, h.codes))

    def test_running_adds_equal_the_loop_registry(self, persistent_history):
        # each position adds its new cycles to the running totals; every
        # prefix must give the loop's registry bit for bit
        for h in (persistent_history, _late_arrivals(2)):
            n = h.n_cycles
            positions = [1, 2, 50, 51, n]
            running = list(history_prefixes(h, positions))
            for pos, prefix in zip(positions, running):
                expected = list(registry_loop(h.cycles[:pos]).items())
                assert list(prefix.registry.items()) == expected
                assert list(history_prefix(h, pos).registry.items()) == expected
                assert prefix.n_tests == len(prefix.means) == len(expected)
        late = [sum(t.endswith("-late") for t in p.test_ids) for p in running]
        assert late[1] == 0 < late[2]  # tests first seen after the first position

    def test_lazy_registry_survives_pickling(self):
        h = churn_history(1)
        prefix = history_prefix(h, 30)
        assert "registry" not in vars(prefix)  # not built until read
        eager = list(registry_loop(h.cycles[:30]).items())
        again = pickle.loads(pickle.dumps(prefix))
        assert list(again.registry.items()) == eager
        assert again == prefix and again.test_ids == prefix.test_ids
        assert list(pickle.loads(pickle.dumps(again)).registry.items()) == eager

    def test_running_prefixes_do_not_go_back(self, small_history):
        with pytest.raises(IndexError):
            list(history_prefixes(small_history, [2, 1]))

    def test_prefix_length_out_of_range(self, small_history):
        for pos in (0, -1, small_history.n_cycles + 1):
            with pytest.raises(IndexError):
                history_prefix(small_history, pos)


class TestSliceRecent:
    def _n_cycle_history(self, n):
        return history(*[cyc(i, ("A", "pass", 1.0)) for i in range(n)])

    def test_most_recent_20_percent_of_10(self):
        h = self._n_cycle_history(10)
        w = slice_recent(h, 0.2)
        assert w.n_cycles == 2
        assert [c.cycle_id for c in w.cycles] == [8, 9]

    def test_full_fraction_is_identity(self, small_history):
        w = slice_recent(small_history, 1.0)
        assert w.n_cycles == small_history.n_cycles

    def test_round_half_up(self):
        # 0.5 * 5 = 2.5 rounds up to 3
        h = self._n_cycle_history(5)
        assert slice_recent(h, 0.5).n_cycles == 3

    def test_floor_at_one_cycle(self):
        h = self._n_cycle_history(3)
        assert slice_recent(h, 0.01).n_cycles == 1

    def test_fraction_out_of_range(self, small_history):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(FractionOutOfRange):
                slice_recent(small_history, bad)

    def test_window_length_non_decreasing_in_fraction(self):
        for n in (1, 2, 3, 7, 10, 31):
            h = self._n_cycle_history(n)
            lengths = [slice_recent(h, f).n_cycles for f in np.linspace(0.05, 1.0, 25)]
            assert lengths == sorted(lengths)
            assert lengths[-1] == n


class TestBudgets:
    def test_average_suite_duration(self):
        # oracle: cycle totals 10 and 20 -> mean 15
        h = history(
            cyc(0, ("A", "pass", 4.0), ("B", "pass", 6.0)),
            cyc(1, ("A", "pass", 12.0), ("B", "pass", 8.0)),
        )
        assert average_suite_duration(h) == pytest.approx(15.0)

    def test_single_cycle_mean(self):
        h = history(cyc(0, ("A", "pass", 7.0)))
        assert average_suite_duration(h) == pytest.approx(7.0)


def test_round_half_up_behavior():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(2.0) == 2
    assert round_half_up(0.5) == 1
