import math
import multiprocessing
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from testprio import replay
from testprio.domain import Cycle, history_prefixes, slice_recent, validate_history
from testprio.errors import HistoryTooShort, NonPositiveBudget, NoPriorHistory
from testprio.features import FeatureConfig, build_training_set
from testprio.rankers import (
    FITTERS,
    RankedTest,
    RankerKind,
    params_from_config,
    serialize_model,
    with_seed,
)
from testprio.replay import (
    ReplayConfig,
    cut_by_budget,
    default_workers,
    pool_map,
    pool_state,
    replay_cycle,
    walk_forward,
    walk_forward_budgets,
)

from .conftest import churn_history, cyc, forks, history
from .oracles import loop_cut, replay_budget, replay_ranking


class TestCutByBudget:
    """The cut reads a ranking's cumulative durations."""

    def test_partial_prefix(self):
        # oracle: cumulative sums 5, 8, 10 against budget 8 -> 2 tests, 8s
        assert cut_by_budget(np.cumsum([5.0, 3.0, 2.0]), 8.0) == (2, 8.0)

    def test_budget_covers_everything(self):
        assert cut_by_budget(np.cumsum([5.0, 3.0]), 100.0) == (2, 8.0)

    def test_budget_below_first_test(self):
        assert cut_by_budget(np.cumsum([5.0, 3.0]), 4.0) == (0, 0.0)

    def test_overflowing_test_not_started(self):
        assert cut_by_budget(np.cumsum([5.0, 4.0, 1.0]), 6.0) == (1, 5.0)

    def test_non_positive_budget(self):
        for budget in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(NonPositiveBudget):
                cut_by_budget(np.array([1.0]), budget)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_running_sum_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        durations = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1, 1e-9, 3.3], n)
        running = np.cumsum(durations)
        budgets = [*running, *np.nextafter(running, 0.0), *np.nextafter(running, np.inf),
                   0.3, 0.6, 1e-10, running[-1] * 2]  # exactly on, just below, just above
        for budget in budgets:
            got = cut_by_budget(running, float(budget))
            assert got == loop_cut(durations.tolist(), float(budget))
            assert type(got[0]) is int and type(got[1]) is float


def _replay_history():
    """Five cycles over A (fails persistently) and B."""
    return history(
        cyc(0, ("A", "fail", 2.0), ("B", "pass", 1.0)),
        cyc(1, ("A", "fail", 2.0), ("B", "pass", 1.0)),
        cyc(2, ("A", "fail", 2.0), ("B", "pass", 1.0)),
        cyc(3, ("A", "fail", 2.0), ("B", "pass", 1.0)),
        cyc(4, ("A", "fail", 2.0), ("B", "pass", 1.0)),
    )


class TestReplayCycle:
    def test_no_fault_cycle_has_undefined_apfd(self):
        h = history(
            cyc(0, ("A", "fail", 2.0), ("B", "pass", 1.0)),
            cyc(1, ("A", "pass", 2.0), ("B", "pass", 1.0)),
        )
        cfg = ReplayConfig(ranker=RankerKind.ROCKET, budget_s=10.0)
        outcome = replay_cycle(h, 1, cfg)
        assert outcome.detected_positions == ()
        assert outcome.faults_present == 0
        assert outcome.metrics.apfd is None
        assert outcome.metrics.napfd is None

    def test_failing_test_ranked_first_detected_at_position_one(self):
        # hand trace: rocket puts A (persistent failer) first; budget covers it
        h = _replay_history()
        cfg = ReplayConfig(ranker=RankerKind.ROCKET, budget_s=10.0,
                           history_fraction=1.0)
        outcome = replay_cycle(h, 4, cfg)
        assert outcome.ranking.test_ids[0] == "A"
        assert outcome.detected_positions == (1,)
        assert outcome.metrics.apfd == pytest.approx(1.0 - 1.0 / 2 + 1.0 / 4)

    def test_first_cycle_has_no_prior(self):
        cfg = ReplayConfig(ranker=RankerKind.ROCKET, budget_s=1.0)
        with pytest.raises(NoPriorHistory):
            replay_cycle(_replay_history(), 0, cfg)

    def test_random_ignores_window_contents(self):
        h1 = _replay_history()
        # same shape, completely different verdict history
        h2 = history(
            cyc(0, ("A", "pass", 2.0), ("B", "fail", 1.0)),
            cyc(1, ("A", "pass", 2.0), ("B", "fail", 1.0)),
            cyc(2, ("A", "pass", 2.0), ("B", "fail", 1.0)),
            cyc(3, ("A", "pass", 2.0), ("B", "fail", 1.0)),
            cyc(4, ("A", "fail", 2.0), ("B", "pass", 1.0)),
        )
        cfg = ReplayConfig(ranker=RankerKind.RANDOM, budget_s=10.0, base_seed=33)
        r1 = replay_cycle(h1, 4, cfg)
        r2 = replay_cycle(h2, 4, cfg)
        assert r1.ranking.test_ids == r2.ranking.test_ids

    def test_tie_break_durations_come_from_prior_average(self):
        # A's recorded duration at the evaluated cycle is inflated, but the
        # ranking and the cut must use the prior mean (2.0), not 50.
        h = history(
            cyc(0, ("A", "pass", 2.0), ("B", "pass", 1.0)),
            cyc(1, ("A", "pass", 2.0), ("B", "pass", 1.0)),
            cyc(2, ("A", "fail", 50.0), ("B", "pass", 1.0)),
        )
        cfg = ReplayConfig(ranker=RankerKind.ROCKET, budget_s=3.5,
                           history_fraction=1.0)
        outcome = replay_cycle(h, 2, cfg)
        durations = {e.test_id: e.duration_s for e in outcome.ranking.entries}
        assert durations == {"A": 2.0, "B": 1.0}
        assert outcome.executed == 2  # 1 + 2 fits in 3.5 at prior means


class TestWalkForward:
    def test_eval_cycles_are_last_fifth(self):
        cycles = [cyc(i, ("A", "pass", 1.0)) for i in range(10)]
        h = validate_history(cycles)
        cfg = ReplayConfig(ranker=RankerKind.RANDOM, budget_s=5.0, eval_fraction=0.2)
        outcomes = walk_forward(h, cfg)
        assert [o.cycle_id for o in outcomes] == [8, 9]

    def test_history_too_short(self):
        h = history(*[cyc(i, ("A", "pass", 1.0)) for i in range(4)])
        cfg = ReplayConfig(ranker=RankerKind.RANDOM, budget_s=5.0)
        with pytest.raises(HistoryTooShort):
            walk_forward(h, cfg)

    def test_deterministic(self, persistent_history):
        cfg = ReplayConfig(ranker=RankerKind.SVM, budget_s=30.0,
                           history_fraction=0.2, eval_fraction=0.05, base_seed=3)
        a = walk_forward(persistent_history, cfg)
        b = walk_forward(persistent_history, cfg)
        assert a == b  # wall-clock fields excluded from comparison

    def test_rocket_on_persistent_fixture_reaches_085(self, persistent_history):
        # pilot-run oracle on the frozen fixture seed
        cfg = ReplayConfig(ranker=RankerKind.ROCKET, budget_s=1e9,
                           history_fraction=0.6)
        outcomes = walk_forward(persistent_history, cfg)
        apfds = [o.metrics.apfd for o in outcomes if o.metrics.apfd is not None]
        assert np.mean(apfds) >= 0.85

    def test_random_identical_across_history_fractions(self, persistent_history):
        outs = []
        for frac in (0.2, 1.0):
            cfg = ReplayConfig(ranker=RankerKind.RANDOM, budget_s=40.0,
                               history_fraction=frac, base_seed=9)
            outs.append(walk_forward(persistent_history, cfg))
        assert outs[0] == outs[1]

    def test_detected_sets_nested_across_budgets(self, persistent_history):
        budgets = [20.0, 40.0, 60.0, 80.0]
        cfg = ReplayConfig(ranker=RankerKind.GBDT, budget_s=80.0,
                           history_fraction=0.4, eval_fraction=0.05)
        per_budget = walk_forward_budgets(persistent_history, cfg, budgets)
        for smaller, larger in zip(per_budget[:-1], per_budget[1:]):
            for o_small, o_large in zip(smaller, larger):
                assert set(o_small.detected_positions) <= set(o_large.detected_positions)
                assert o_small.elapsed_s <= o_large.elapsed_s

    def test_elapsed_never_exceeds_budget(self, persistent_history):
        for budget in (5.0, 17.0, 60.0):
            cfg = ReplayConfig(ranker=RankerKind.ROCKET, budget_s=budget,
                               eval_fraction=0.1)
            for o in walk_forward(persistent_history, cfg):
                assert o.elapsed_s <= budget + 1e-12

    def test_poisoning_future_cycles_leaves_ranking_unchanged(self, persistent_history):
        """No-leakage: rewriting verdicts and durations of the evaluated cycle
        and everything after it must not change the ranking at that cycle."""
        h = persistent_history
        for kind in (RankerKind.ROCKET, RankerKind.SVM, RankerKind.GBDT):
            cfg = ReplayConfig(ranker=kind, budget_s=50.0, history_fraction=0.4,
                               base_seed=17)
            for pos in (150, 175, 199):
                poisoned_cycles = list(h.cycles)
                for i in range(pos, h.n_cycles):
                    c = poisoned_cycles[i]
                    poisoned_cycles[i] = Cycle(
                        cycle_id=c.cycle_id,
                        test_ids=c.test_ids,
                        failed=~c.failed,
                        duration_s=c.duration_s * 7.0 + 1.0,
                    )
                poisoned = validate_history(poisoned_cycles)
                a = replay_cycle(h, pos, cfg)
                b = replay_cycle(poisoned, pos, cfg)
                assert a.ranking == b.ranking

    def test_unknown_test_first_seen_at_eval_cycle(self):
        cycles = [cyc(i, ("A", "fail", 2.0), ("B", "pass", 4.0)) for i in range(9)]
        cycles.append(cyc(9, ("A", "fail", 2.0), ("B", "pass", 4.0), ("NEW", "pass", 9.0)))
        h = validate_history(cycles)
        cfg = ReplayConfig(ranker=RankerKind.SVM, budget_s=100.0,
                           history_fraction=1.0, eval_fraction=0.1)
        (outcome,) = walk_forward(h, cfg)
        durations = {e.test_id: e.duration_s for e in outcome.ranking.entries}
        assert durations["NEW"] == pytest.approx(3.0)  # prior registry mean
        assert sorted(outcome.ranking.test_ids) == ["A", "B", "NEW"]

    def test_ranks_on_codes_whose_order_is_not_id_order(self):
        # "b" and "t9" run first, so their codes come before "a" and "t10"
        rows = [("b", "pass", 1.0), ("t9", "pass", 1.0), ("a", "pass", 1.0), ("t10", "pass", 1.0)]
        h = validate_history([cyc(i, *rows) for i in range(5)])
        for kind in (RankerKind.ROCKET, RankerKind.SVM):
            cfg = ReplayConfig(ranker=kind, budget_s=2.5, history_fraction=1.0,
                               eval_fraction=0.2)
            (outcome,) = walk_forward(h, cfg)
            assert outcome.ranking.test_ids == ("a", "b", "t10", "t9")
            assert outcome.executed == 2

    def test_new_test_gets_prior_mean_and_no_rocket_score(self):
        cycles = [cyc(i, ("A", "fail", 2.0), ("B", "pass", 5.0)) for i in range(9)]
        cycles.append(cyc(9, ("NEW", "fail", 9.0), ("A", "fail", 2.0), ("B", "pass", 5.0)))
        h = validate_history(cycles)
        for kind in (RankerKind.ROCKET, RankerKind.RANDOM):
            cfg = ReplayConfig(ranker=kind, budget_s=100.0, history_fraction=0.5,
                               eval_fraction=0.1)
            (outcome,) = walk_forward(h, cfg)
            new = {e.test_id: e for e in outcome.ranking.entries}["NEW"]
            assert new.duration_s == 3.5  # mean of the prior registry {A: 2, B: 5}
            if kind is RankerKind.ROCKET:
                assert new.score == 0.0
                assert outcome.ranking.test_ids == ("A", "NEW", "B")

    def test_rocket_adds_older_weights_one_at_a_time(self):
        cycles = [cyc(i, ("B", "pass", 1.0), ("A", "fail", 1.0)) for i in range(8)]
        h = validate_history(cycles)
        cfg = ReplayConfig(ranker=RankerKind.ROCKET, budget_s=5.0, history_fraction=1.0,
                           eval_fraction=0.125)
        (outcome,) = walk_forward(h, cfg)
        expected = 0.0
        for weight in [0.7, 0.2] + [0.1] * 5:  # seven prior cycles, newest first
            expected += weight
        assert expected != 0.7 + 0.2 + 0.1 * 5
        assert outcome.ranking.entries[0] == RankedTest("A", expected, 1.0)

    def test_timing_structure(self, persistent_history):
        for kind in (RankerKind.SVM, RankerKind.GBDT):
            cfg = ReplayConfig(ranker=kind, budget_s=40.0, history_fraction=0.4,
                               eval_fraction=0.05)
            for o in walk_forward(persistent_history, cfg):
                assert o.train_seconds > o.rank_seconds > 0.0
        for kind in (RankerKind.ROCKET, RankerKind.RANDOM):
            cfg = ReplayConfig(ranker=kind, budget_s=40.0, eval_fraction=0.05)
            for o in walk_forward(persistent_history, cfg):
                assert o.train_seconds == 0.0
                assert o.rank_seconds > 0.0

    def test_degenerate_window_degrades_not_aborts(self):
        # all-pass history: every training window is single-class
        cycles = [
            cyc(i, ("A", "pass", 3.0), ("B", "pass", 1.0), ("C", "pass", 2.0))
            for i in range(10)
        ]
        h = validate_history(cycles)
        for kind in (RankerKind.SVM, RankerKind.ANN, RankerKind.GBDT, RankerKind.LRN):
            cfg = ReplayConfig(ranker=kind, budget_s=10.0, eval_fraction=0.1)
            (outcome,) = walk_forward(h, cfg)
            assert outcome.degenerate
            assert outcome.ranking.test_ids == ("B", "C", "A")  # duration order


class TestReplayMatchesRowLoops:
    """The per-budget outcome fields against the per-entry loops they replaced,
    on histories whose recorded test order differs from the ranked order."""

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("kind", [RankerKind.RANDOM, RankerKind.ROCKET])
    def test_outcomes_match(self, seed, kind):
        h = churn_history(seed)
        avg = np.mean([c.duration_s.sum() for c in h.cycles])
        budgets = [avg * f for f in (0.05, 0.2, 0.5, 1.0)]
        cfg = ReplayConfig(ranker=kind, budget_s=budgets[-1], history_fraction=0.4,
                           eval_fraction=0.2, base_seed=seed)
        per_budget = walk_forward_budgets(h, cfg, budgets)
        cycles = {c.cycle_id: c for c in h.cycles}
        for budget, outcomes in zip(budgets, per_budget):
            for o in outcomes:
                cycle = cycles[o.cycle_id]
                assert cycle.test_ids != o.ranking.test_ids or len(cycle.test_ids) < 3
                assert replay_budget(o.ranking.entries, cycle, budget) == (
                    o.executed, o.elapsed_s, o.detected_positions, o.metrics)


# reduced training effort, so that every fitted kind runs in the oracle too
_EFFORT = {"svm.epochs": "5", "ann.epochs": "3", "ann.restarts": "2", "lrn.epochs": "3",
           "lrn.restarts": "2", "gbdt.n_estimators": "8"}


class TestReplayMatchesPerTestOracle:
    """Walk-forward outcomes, field by field, against the replay ranked test
    by test from dicts keyed by test id (``oracles.replay_ranking``)."""

    @pytest.mark.parametrize("fraction", [0.05, 0.4, 1.0])
    @pytest.mark.parametrize("kind", list(RankerKind))
    def test_walk_forward_equals_oracle(self, kind, fraction):
        self._check(kind, fraction, workers=None)

    @pytest.mark.parametrize("fraction", [0.05, 0.4, 1.0])
    @pytest.mark.parametrize("kind", [k for k in RankerKind if k.trains])
    def test_serial_walk_equals_oracle(self, kind, fraction):
        """The serial walk fits its eval cycles in one stacked call."""
        self._check(kind, fraction, workers=1)

    @staticmethod
    def _check(kind, fraction, workers):
        h = churn_history(4)  # two evaluated cycles each run a test new to them
        avg = np.mean([c.duration_s.sum() for c in h.cycles])
        budgets = [avg * f for f in (0.05, 0.3, 1.0)]
        cfg = ReplayConfig(ranker=kind, budget_s=budgets[-1], history_fraction=fraction,
                           eval_fraction=0.1, base_seed=11,
                           params=params_from_config(kind, _EFFORT))
        per_budget = walk_forward_budgets(h, cfg, budgets, workers)
        positions = range(h.n_cycles - len(per_budget[0]), h.n_cycles)
        unseen = 0
        for j, (pos, prior) in enumerate(zip(positions, history_prefixes(h, positions))):
            cycle = h.cycles[pos]
            unseen += len(set(cycle.test_ids) - set(prior.registry))
            entries = replay_ranking(prior, cycle, cfg)
            for budget, outcomes in zip(budgets, per_budget):
                o = outcomes[j]
                assert o.cycle_id == cycle.cycle_id
                assert o.ranking.entries == entries
                assert (o.executed, o.elapsed_s, o.detected_positions, o.metrics) == \
                    replay_budget(entries, cycle, budget)
        assert unseen  # some evaluated test has no prior run


class TestReplayReadsRegistryArrays:
    """The replay reads each prefix's registry as arrays by code; the
    ``registry`` dict is for other readers and is never built on its path."""

    @pytest.mark.parametrize("kind", list(RankerKind))
    def test_walk_forward_builds_no_registry_dict(self, kind, monkeypatch):
        h = churn_history(4)
        builds = []
        build = type(h).registry.func
        monkeypatch.setattr(type(h), "registry",
                            property(lambda hist: builds.append(hist) or build(hist)))
        cfg = ReplayConfig(ranker=kind, budget_s=10.0, history_fraction=0.4,
                           eval_fraction=0.1, params=params_from_config(kind, _EFFORT))
        walk_forward_budgets(h, cfg, [2.0, 10.0], workers=1)  # a spy sees this process only
        replay_cycle(h, h.n_cycles - 1, cfg)
        assert builds == []
        assert h.registry and len(builds) == 1  # the counter sees a read


class TestBudgetsCheckedFirst:
    @pytest.mark.parametrize("budgets, error", [
        ([10.0, 0.0], NonPositiveBudget), ([-1.0], NonPositiveBudget),
        ([math.inf], NonPositiveBudget), ([5.0, math.nan], NonPositiveBudget),
        ([], ValueError),
    ])
    def test_bad_budgets_raise_before_any_fit(self, budgets, error, monkeypatch):
        fits = []
        monkeypatch.setitem(FITTERS, RankerKind.ANN, lambda ts, params: fits.append(ts))
        cfg = ReplayConfig(ranker=RankerKind.ANN, budget_s=10.0, eval_fraction=0.1)
        with pytest.raises(error):
            walk_forward_budgets(churn_history(0), cfg, budgets, workers=1)
        assert fits == []


class _FitFailed(RuntimeError):
    pass


def _failing_fit(ts, params):
    raise _FitFailed("fit failed")


def _walk_on_two_workers(_):
    h, cfg = pool_state()
    return walk_forward(h, cfg, workers=2)


@pytest.mark.parametrize("n_tasks, cpus, processes", [
    (2, 2, 2), (3, 2, 3), (4, 2, 2), (5, 2, 2), (2, 8, 2), (5, 4, 5), (6, 4, 4),
    (7, 4, 4), (8, 4, 4), (9, 8, 9), (10, 8, 8), (1, 1, 1), (2, 1, 1), (3, 1, 1),
])
def test_default_workers(n_tasks, cpus, processes):
    assert default_workers(n_tasks, cpus) == processes


class TestWorkers:
    """A trained walk's eval cycles on worker processes give the serial
    walk's outcomes; everything else stays in this process."""

    @staticmethod
    def _cfg(kind, fraction, eval_fraction=0.1):
        return ReplayConfig(ranker=kind, budget_s=30.0, history_fraction=fraction,
                            eval_fraction=eval_fraction, base_seed=5,
                            params=params_from_config(kind, _EFFORT))

    @pytest.mark.parametrize("fraction", [0.01, 0.5])  # 0.01: one-cycle windows
    @pytest.mark.parametrize("kind", [k for k in RankerKind if k.trains])
    def test_worker_counts_give_equal_outcomes(self, kind, fraction):
        h = churn_history(2)
        cfg = self._cfg(kind, fraction)
        budgets = [5.0, 30.0]
        serial = walk_forward_budgets(h, cfg, budgets, workers=1)
        before = forks()
        assert walk_forward_budgets(h, cfg, budgets, workers=2) == serial
        assert forks() == before + 2
        assert walk_forward_budgets(h, cfg, budgets) == serial
        assert multiprocessing.active_children() == []
        assert all(o.degenerate for o in serial[0]) == (fraction == 0.01)

    def test_fit_error_in_a_worker_is_raised_here(self, monkeypatch):
        monkeypatch.setitem(FITTERS, RankerKind.SVM, _failing_fit)
        before = forks()
        with pytest.raises(_FitFailed):
            walk_forward(churn_history(2), self._cfg(RankerKind.SVM, 0.5), workers=2)
        assert forks() > before
        assert multiprocessing.active_children() == []

    def test_default_pool_has_one_process_per_cycle_up_to_one_over_the_cpus(self, monkeypatch):
        monkeypatch.setattr(replay, "usable_cpus", lambda: 2)
        h = churn_history(2)
        cfg = self._cfg(RankerKind.SVM, 0.5, 0.04)  # 3 eval cycles
        serial = walk_forward(h, cfg, workers=1)
        assert len(serial) == 3
        before = forks()
        assert walk_forward(h, cfg) == serial
        assert forks() == before + 3
        assert walk_forward(h, cfg, workers=2) == serial
        assert forks() == before + 5
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpu_count, processes", [(2, 3), (None, 0)])
    def test_default_walk_without_an_affinity_call(self, monkeypatch, cpu_count, processes):
        h = churn_history(2)
        cfg = self._cfg(RankerKind.SVM, 0.5, 0.04)
        serial = walk_forward(h, cfg, workers=1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        before = forks()
        assert walk_forward(h, cfg) == serial
        assert forks() == before + processes
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_raise(self, workers):
        h = churn_history(2)
        cfg = self._cfg(RankerKind.SVM, 0.5)
        before = forks()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            walk_forward_budgets(h, cfg, [5.0, 30.0], workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            walk_forward(h, cfg, workers=workers)
        assert forks() == before

    @pytest.mark.parametrize("kind", [RankerKind.ROCKET, RankerKind.RANDOM])
    def test_untrained_walk_forks_nothing(self, kind):
        before = forks()
        walk_forward(churn_history(2), self._cfg(kind, 0.5), workers=2)
        walk_forward(churn_history(2), self._cfg(kind, 0.5))
        assert forks() == before

    def test_one_eval_cycle_forks_nothing(self):
        h = churn_history(2)
        before = forks()
        cfg = self._cfg(RankerKind.SVM, 0.5, 0.01)
        assert len(walk_forward(h, cfg, workers=2)) == 1
        assert len(walk_forward(h, cfg)) == 1
        assert forks() == before

    def test_a_pool_worker_walks_serially(self, monkeypatch):
        h = churn_history(2)
        cfg = self._cfg(RankerKind.GBDT, 0.5)
        serial = walk_forward(h, cfg, workers=1)

        def no_pool(*_):
            raise AssertionError("a walk fanned out")

        monkeypatch.setattr(replay, "pool_map", no_pool)
        with pytest.raises(AssertionError, match="fanned out"):
            walk_forward(h, cfg, workers=2)
        # a daemonic worker asked for two workers still walks in itself
        assert pool_map(_walk_on_two_workers, [0], 2, (h, cfg)) == [serial]
        assert multiprocessing.active_children() == []


def _spy_fits(monkeypatch, kind):
    """Record each ``FITTERS[kind]`` call's training-set row counts."""
    calls, fit = [], FITTERS[kind]

    def spy(tss, params):
        calls.append([ts.n_examples for ts in tss])
        return fit(tss, params)

    monkeypatch.setitem(FITTERS, kind, spy)
    return calls


class TestSerialWalkStacksFits:
    """A serial walk fits its eval cycles' windows together, and each cycle's
    outcome is the one it gets fitted alone."""

    @staticmethod
    def _gapped_history():
        """20 cycles of six tests; T0 fails in every cycle but each third.

        At history fraction 0.1 the eval cycles at positions 10-14 have
        one-cycle windows (too small), and each later window labels only
        the cycle before its eval cycle: single-class (no failure) at
        positions 16 and 19, trainable at 15, 17 and 18."""
        return history(*(
            cyc(i, *((f"T{t}", "fail" if t == 0 and i % 3 else "pass", 1.0 + 0.1 * t)
                     for t in range(6)))
            for i in range(20)))

    @pytest.mark.parametrize("kind", [k for k in RankerKind if k.trains])
    def test_degenerate_windows_degrade_only_their_cycle(self, kind, monkeypatch):
        h = self._gapped_history()
        cfg = ReplayConfig(ranker=kind, budget_s=5.0, history_fraction=0.1,
                           eval_fraction=0.5, base_seed=3,
                           params=params_from_config(kind, _EFFORT))
        calls = _spy_fits(monkeypatch, kind)
        serial = walk_forward(h, cfg, workers=1)
        assert [o.degenerate for o in serial] == [True] * 5 + [False, True, False, False, True]
        # one call for all five windows; lrn's fails naming the two with
        # no rankable group, and the other three are fitted in one more call
        assert calls[0] == [6] * 5
        assert calls[1:] == ([[6] * 3] if kind is RankerKind.LRN else [])
        assert walk_forward(h, cfg, workers=2) == serial
        for pos, outcome in zip(range(10, 20), serial):
            assert replay_cycle(h, pos, cfg) == outcome

    @pytest.mark.parametrize("kind", [RankerKind.ANN, RankerKind.LRN, RankerKind.SVM])
    def test_row_cap_splits_the_fits(self, kind, monkeypatch):
        h = churn_history(2)
        cfg = ReplayConfig(ranker=kind, budget_s=30.0, history_fraction=0.5,
                           eval_fraction=0.1, base_seed=5,
                           params=params_from_config(kind, _EFFORT))
        whole = walk_forward(h, cfg, workers=1)
        calls = _spy_fits(monkeypatch, kind)
        # the six windows hold 523 to 597 rows: by twos under the larger
        # cap, alone (some over the cap) under the smaller
        for cap, most in ((1200, 2), (550, 1)):
            monkeypatch.setattr(replay, "_STACK_ROWS", cap)
            calls.clear()
            assert walk_forward(h, cfg, workers=1) == whole
            assert sum(map(len, calls)) == len(whole) == 6
            assert max(map(len, calls)) == most
            assert all(sum(rows) <= cap or len(rows) == 1 for rows in calls)
        assert any(sum(rows) > cap for rows in calls)



class TestFitWalks:
    """The grid's fit helper: the windows of several walks fitted in groups,
    each model the one its walk fits alone, and nothing held past its use."""

    @staticmethod
    def _cfgs(kind):
        return [ReplayConfig(ranker=kind, budget_s=30.0, history_fraction=f,
                             eval_fraction=0.1, base_seed=7 + i,
                             params=params_from_config(kind, _EFFORT))
                for i, f in enumerate((0.5, 0.3))]

    @pytest.mark.parametrize("kind", [RankerKind.SVM, RankerKind.ANN, RankerKind.LRN])
    def test_walks_on_fitted_cycles_equal_lone_walks(self, kind, monkeypatch):
        h = churn_history(2)
        cfgs = self._cfgs(kind)
        alone = [walk_forward_budgets(h, cfg, [10.0, 30.0], workers=1) for cfg in cfgs]
        calls = _spy_fits(monkeypatch, kind)
        monkeypatch.setattr(replay, "_STACK_ROWS", 2400)
        fitted = replay.fit_walks(h, cfgs)
        # each walk's six windows in order, grouped under the cap; the
        # second group spans both walks
        assert calls == [[523, 546, 545, 565], [574, 597, 312, 335, 336], [332, 336, 359]]
        assert [walk_forward_budgets(h, cfg, [10.0, 30.0], workers=1, cycles=cycles)
                for cfg, cycles in zip(cfgs, fitted)] == alone
        assert len(calls) == 3  # ranking fitted cycles fits nothing

    def test_fit_helper_holds_no_window_arrays(self, monkeypatch):
        built = []

        class Tracked(replay._WindowArrays):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        def fit(tss, params):
            # each window of the group has its training set and ranking rows
            # by now, and none of their arrays is left
            assert built and all(ref() is None for ref in built)
            return svm(tss, params)

        svm = FITTERS[RankerKind.SVM]
        monkeypatch.setattr(replay, "_WindowArrays", Tracked)
        monkeypatch.setitem(FITTERS, RankerKind.SVM, fit)
        monkeypatch.setattr(replay, "_STACK_ROWS", 2400)
        fitted = [list(cycles) for cycles in replay.fit_walks(
            churn_history(2), self._cfgs(RankerKind.SVM))]
        assert len(built) == 12
        assert all(p.ts is None and p.rows is not None and p.model is not None
                   for cycles in fitted for p in cycles)


def test_an_unrankable_window_degrades_alone_in_one_more_call(monkeypatch):
    kind = RankerKind.LRN
    params = params_from_config(kind, _EFFORT)
    h = churn_history(3)
    tss = [build_training_set(slice_recent(prior, 0.3), FeatureConfig())
           for prior in history_prefixes(h, range(40, 45))]
    tss[2] = replace(tss[2], y=np.zeros_like(tss[2].y))
    seeds = [11, 12, 13, 14, 15]
    calls = _spy_fits(monkeypatch, kind)
    models = replay._fit(kind, params, FeatureConfig(), tss, seeds)
    # one failed call, then the other four in one (not one call each)
    rows = [ts.n_examples for ts in tss]
    assert calls == [rows, rows[:2] + rows[3:]]
    assert [m.degenerate for m in models] == [False, False, True, False, False]
    for j in (0, 1, 3, 4):
        alone, = FITTERS[kind]([tss[j]], [with_seed(params, seeds[j])])
        assert serialize_model(models[j]) == serialize_model(alone)
