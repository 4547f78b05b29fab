import argparse
import ast
import json
import math
import multiprocessing
import os
from dataclasses import fields, replace

import pytest

from testprio import bench, replay
from testprio.bench import (
    CSV_COLUMNS,
    GridResult,
    GridSpec,
    emit_canonical,
    emit_report,
    run_grid,
    select_best_history,
)
from testprio.cli import _grid_spec_from_args
from testprio.domain import history_prefixes, slice_recent
from testprio.errors import HistoryTooShort, IncompleteGrid
from testprio.features import training_rows
from testprio.ingest import SyntheticSpec, generate_synthetic, parse_canonical
from testprio.metrics import AggregateSummary
from testprio.rankers import (
    FITTERS,
    AnnParams,
    GbdtParams,
    LrnParams,
    RandomParams,
    RankerKind,
    RocketParams,
    SvmParams,
    default_params,
)
from testprio.replay import DEFAULT_SEED
from testprio.seeding import fnv1a64, mix_seed, splitmix64

from .conftest import forks


def _tiny_history():
    spec = SyntheticSpec(n_tests=8, n_cycles=30, base_failure_prob=0.4,
                         persistence=0.9, flip_prob=0.05)
    return generate_synthetic(spec, 13)


def _light_spec(**kwargs):
    rankers = (
        (RankerKind.RANDOM, RandomParams()),
        (RankerKind.ROCKET, RocketParams()),
        (RankerKind.SVM, SvmParams(epochs=5)),
        (RankerKind.ANN, AnnParams(epochs=3, restarts=2)),
        (RankerKind.GBDT, GbdtParams(n_estimators=8)),
        (RankerKind.LRN, LrnParams(epochs=3, restarts=2)),
    )
    return GridSpec(rankers=rankers, **kwargs)


@pytest.fixture(scope="module")
def grid_result():
    return run_grid(_tiny_history(), _light_spec())


class TestSeeding:
    def test_splitmix64_known_vector(self):
        # published SplitMix64 output for state 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_fnv1a64_known_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C

    def test_mix_seed_order_sensitivity(self):
        assert mix_seed(1, "svm", 2) != mix_seed(1, 2, "svm")
        assert mix_seed(1, "svm", 2) != mix_seed(2, "svm", 2)
        assert mix_seed(1, "svm", 2) == mix_seed(1, "svm", 2)


class TestRunGrid:
    def test_cell_count_is_axis_product(self, grid_result):
        assert len(grid_result.cells) == 6 * 5 * 5

    def test_random_rows_constant_across_history(self, grid_result):
        for b in range(5):
            cells = [grid_result.cell("random", h, b) for h in range(5)]
            assert all(c == cells[0] for c in cells)

    def test_two_runs_identical_reports(self, grid_result, tmp_path):
        again = run_grid(_tiny_history(), _light_spec())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        p1 = emit_report(grid_result, d1)
        p2 = emit_report(again, d2)
        for name in p1:
            assert p1[name].read_bytes() == p2[name].read_bytes()

    def test_workers_do_not_change_bytes(self, grid_result, tmp_path):
        parallel = run_grid(_tiny_history(), _light_spec(), workers=4)
        d1, d2 = tmp_path / "seq", tmp_path / "par"
        p1 = emit_report(grid_result, d1)
        p2 = emit_report(parallel, d2)
        for name in p1:
            assert p1[name].read_bytes() == p2[name].read_bytes()

    def test_serial_grid_forks_nothing(self, grid_result):
        before = forks()
        assert run_grid(_tiny_history(), _light_spec(), workers=1).cells == grid_result.cells
        assert forks() == before

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_raise(self, workers):
        before = forks()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_grid(_tiny_history(), _light_spec(), workers=workers)
        assert forks() == before

    def test_walks_in_pool_units_stay_serial(self, grid_result, monkeypatch):
        def no_pool(*_):
            raise AssertionError("a walk fanned out")

        monkeypatch.setattr(replay, "pool_map", no_pool)  # the walk's, not the grid's
        assert run_grid(_tiny_history(), _light_spec(), workers=2).cells == grid_result.cells
        assert multiprocessing.active_children() == []

    def test_pool_takes_longest_units_first(self, grid_result, monkeypatch):
        sent = []
        pool_map = bench.pool_map

        def spy(task, items, workers, state):
            sent.extend(items)
            return pool_map(task, items, workers, state)

        monkeypatch.setattr(bench, "pool_map", spy)
        spec = _light_spec()
        assert run_grid(_tiny_history(), spec, workers=2).cells == grid_result.cells
        kinds = [spec.rankers[r][0].value for r, _ in sent]
        assert kinds == ["ann"] * 5 + ["lrn"] * 5 + ["gbdt"] * 5 + ["svm"] * 5 + [
            "rocket"] * 5 + ["random"]
        assert [h for _, h in sent] == [4, 3, 2, 1, 0] * 5 + [0]

    def test_timing_structure(self, grid_result):
        for (ranker, _, _), cell in grid_result.cells.items():
            if ranker in ("svm", "ann", "gbdt", "lrn"):
                assert cell.mean_train_s > cell.mean_rank_s > 0.0
            else:
                assert cell.mean_train_s == 0.0
                assert cell.mean_rank_s > 0.0

    def test_budgets_derived_from_average_suite_duration(self, grid_result):
        from testprio.domain import average_suite_duration

        b5 = average_suite_duration(_tiny_history())
        assert grid_result.budgets_s == tuple(
            pytest.approx(f * b5) for f in (0.2, 0.4, 0.6, 0.8, 1.0)
        )


def _fake_result(apfd_by_h):
    budgets = (1.0, 2.0)
    cells = {}
    for h, v in enumerate(apfd_by_h):
        for b in range(2):
            cells[("rocket", h, b)] = AggregateSummary(
                cycles=3, mean_apfd=v if b == 1 else 0.0, std_apfd=None,
                apfd_defined=3, mean_napfd=v, napfd_defined=3,
                mean_tdff_pct=None, tdff_defined=0, mean_tdlf_pct=None,
                tdlf_defined=0, mean_train_s=0.0, mean_rank_s=0.1,
                degenerate_count=0,
            )
    return GridResult(
        ranker_names=("rocket",),
        history_fractions=tuple((i + 1) / len(apfd_by_h) for i in range(len(apfd_by_h))),
        budgets_s=budgets, eval_fraction=0.2, base_seed=0, cells=cells,
        provenance={},
    )


def _log(directory, *record):
    """Append ``record`` to this process's log under ``directory`` (pool
    workers are forked with the spies in place and write their own)."""
    with open(directory / f"{os.getpid()}.log", "a") as f:
        f.write(repr(record) + "\n")


def _logged(directory) -> list:
    return [ast.literal_eval(line) for path in sorted(directory.glob("*.log"))
            for line in path.read_text().splitlines()]


class TestObservationPoints:
    """perfbench measures a grid through ``walk_forward_budgets`` (one call
    per (ranker, H) unit, with that unit's config), ``bench._run_unit``
    (one per unit) and ``FITTERS``."""

    @staticmethod
    def _units(spec):
        return sorted(
            (kind.value, spec.history_fractions[h], mix_seed(spec.base_seed, kind.value, h))
            for kind, _ in spec.rankers
            for h in (range(len(spec.history_fractions)) if kind.history_dependent else [0]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_walk_and_one_unit_call_per_unit(self, workers, monkeypatch, tmp_path,
                                                 grid_result):
        walk, unit = bench.walk_forward_budgets, bench._run_unit
        spec = _light_spec()

        def walk_spy(history, cfg, budgets, *args, **kwargs):
            params = dict(spec.rankers)[cfg.ranker]
            _log(tmp_path, "walk", cfg.ranker.value, cfg.history_fraction, cfg.base_seed,
                 cfg.eval_fraction == spec.eval_fraction and cfg.params == params
                 and cfg.features == spec.features and cfg.budget_s == budgets[-1],
                 len(budgets))
            return walk(history, cfg, budgets, *args, **kwargs)

        def unit_spy(history, spec, budgets, kind, params, h_idx, *args):
            _log(tmp_path, "unit", kind.value, h_idx)
            return unit(history, spec, budgets, kind, params, h_idx, *args)

        monkeypatch.setattr(bench, "walk_forward_budgets", walk_spy)
        monkeypatch.setattr(bench, "_run_unit", unit_spy)
        assert run_grid(_tiny_history(), spec, workers=workers).cells == grid_result.cells
        logged = _logged(tmp_path)
        walks = sorted(r[1:4] for r in logged if r[0] == "walk")
        assert walks == self._units(spec)
        assert all(r[4] and r[5] == 5 for r in logged if r[0] == "walk")
        units = sorted(r[1:] for r in logged if r[0] == "unit")
        assert units == sorted((kind, spec.history_fractions.index(h)) for kind, h, _ in walks)

    def test_short_history_raises_before_any_fit(self, monkeypatch):
        spec = SyntheticSpec(n_tests=5, n_cycles=4, base_failure_prob=0.3, persistence=0.5,
                             flip_prob=0.1)
        monkeypatch.setitem(FITTERS, RankerKind.SVM, lambda *_: pytest.fail("a window was fitted"))
        with pytest.raises(HistoryTooShort):
            run_grid(generate_synthetic(spec, 1), _light_spec())

    @pytest.mark.parametrize("kind", [RankerKind.SVM, RankerKind.ANN, RankerKind.GBDT])
    def test_serial_grid_fits_each_capped_group_in_one_call(self, kind, monkeypatch):
        h, spec, cap = _tiny_history(), _light_spec(), 700
        # every eval window of the kind, largest history first, packed in
        # order under the cap; too-small windows have no rows to fit
        groups, rows = [[]], 0
        n = h.n_cycles
        for frac in spec.history_fractions[::-1]:
            for prior in history_prefixes(h, range(n - math.ceil(spec.eval_fraction * n), n)):
                window = slice_recent(prior, frac)
                k = training_rows(window)
                if groups[-1] and rows + k > cap:
                    groups.append([])
                    rows = 0
                if window.n_cycles > 1:
                    groups[-1].append(k)
                rows += k
        calls, fit = [], FITTERS[kind]

        def spy(tss, params):
            calls.append([ts.n_examples for ts in tss])
            return fit(tss, params)

        monkeypatch.setitem(FITTERS, kind, spy)
        monkeypatch.setattr(replay, "_STACK_ROWS", cap)
        run_grid(h, spec)
        assert calls == groups and len(groups) > 2


class TestSelectBestHistory:
    def test_argmax_at_full_budget(self):
        result = _fake_result([0.5, 0.7, 0.9, 0.8, 0.6])
        assert select_best_history(result, "rocket") == 2  # H3, 0-based

    def test_tie_goes_to_smallest_history(self):
        result = _fake_result([0.7, 0.7, 0.7])
        assert select_best_history(result, "rocket") == 0

    def test_incomplete_grid(self):
        result = _fake_result([0.5, 0.6])
        del result.cells[("rocket", 1, 1)]
        with pytest.raises(IncompleteGrid):
            select_best_history(result, "rocket")

    def test_all_undefined_picks_first(self):
        result = _fake_result([0.5])
        cells = {k: replace(v, mean_apfd=None) for k, v in result.cells.items()}
        result = GridResult(
            ranker_names=result.ranker_names,
            history_fractions=result.history_fractions,
            budgets_s=result.budgets_s, eval_fraction=0.2, base_seed=0,
            cells=cells, provenance={},
        )
        assert select_best_history(result, "rocket") == 0


class TestEmitReport:
    def test_csv_shape_and_header(self, grid_result, tmp_path):
        paths = emit_report(grid_result, tmp_path)
        lines = paths["report.csv"].read_bytes().decode().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 1 + 150

    def test_emit_twice_identical(self, grid_result, tmp_path):
        p1 = emit_report(grid_result, tmp_path / "x")
        p2 = emit_report(grid_result, tmp_path / "y")
        for name in p1:
            assert p1[name].read_bytes() == p2[name].read_bytes()

    def test_json_schema_and_provenance(self, grid_result, tmp_path):
        paths = emit_report(grid_result, tmp_path)
        doc = json.loads(paths["report.json"].read_bytes())
        assert doc["schema_version"] == 1
        assert doc["provenance"]["config_hash"] == _light_spec().config_hash()
        assert set(doc["grid"]) == {"random", "rocket", "svm", "ann", "gbdt", "lrn"}
        assert set(doc["grid"]["svm"]) == {f"H{i}" for i in range(1, 6)}
        assert set(doc["grid"]["svm"]["H1"]["budgets"]) == {f"B{i}" for i in range(1, 6)}

    def test_csv_and_json_cells_carry_the_same_fields(self, grid_result, tmp_path):
        """report.csv's summary columns plus napfd_defined are the keys of a
        report.json cell without b_seconds, and those are the AggregateSummary
        fields under their report names: a new field goes in both on purpose."""
        paths = emit_report(grid_result, tmp_path)
        csv_fields = set(CSV_COLUMNS.split(",")[5:])
        report_names = {"cycles": "cycles_evaluated", "degenerate_count": "degenerate_cells"}
        summary_fields = {report_names.get(f.name, f.name) for f in fields(AggregateSummary)}
        assert "napfd_defined" not in csv_fields
        assert csv_fields | {"napfd_defined"} == summary_fields
        doc = json.loads(paths["report.json"].read_bytes())
        cells = [cell for by_h in doc["grid"].values() for h in by_h.values()
                 for cell in h["budgets"].values()]
        assert len(cells) == len(grid_result.cells)
        for cell in cells:
            assert set(cell) - {"b_seconds"} == summary_fields

    @pytest.mark.parametrize("axis", ["history_fractions", "budget_fractions"])
    @pytest.mark.parametrize("values", [(0.5, 0.5), (1.0, 0.5), (0.2, 0.6, 0.4)])
    def test_axis_must_strictly_increase(self, axis, values):
        with pytest.raises(ValueError, match=f"{axis} must be strictly increasing"):
            _light_spec(**{axis: values})

    def test_config_hash_changes_iff_spec_changes(self):
        a = _light_spec()
        b = _light_spec()
        assert a.config_hash() == b.config_hash()
        c = _light_spec(base_seed=99)
        assert a.config_hash() != c.config_hash()
        d = GridSpec(rankers=((RankerKind.SVM, SvmParams(epochs=6)),))
        e = GridSpec(rankers=((RankerKind.SVM, SvmParams(epochs=7)),))
        assert d.config_hash() != e.config_hash()

    def test_plot_files_cover_axes(self, grid_result, tmp_path):
        paths = emit_report(grid_result, tmp_path)
        hist = paths["plot_apfd_by_history.csv"].read_bytes().decode().splitlines()
        assert len(hist) == 1 + 6 * 5
        budget = paths["plot_apfd_by_budget.csv"].read_bytes().decode().splitlines()
        assert len(budget) == 1 + 6 * 5

    def test_incomplete_grid_refused(self, grid_result, tmp_path):
        broken = GridResult(
            ranker_names=grid_result.ranker_names,
            history_fractions=grid_result.history_fractions,
            budgets_s=grid_result.budgets_s,
            eval_fraction=grid_result.eval_fraction,
            base_seed=grid_result.base_seed,
            cells={k: v for k, v in grid_result.cells.items() if k[1] != 2},
            provenance=grid_result.provenance,
        )
        with pytest.raises(IncompleteGrid):
            emit_report(broken, tmp_path / "broken")


class TestEmitCanonical:
    def test_round_trip_identity(self, small_history):
        assert parse_canonical(emit_canonical(small_history)) == small_history

    def test_round_trip_synthetic(self, persistent_history):
        assert parse_canonical(emit_canonical(persistent_history)) == persistent_history

    def test_deterministic(self, persistent_history):
        assert emit_canonical(persistent_history) == emit_canonical(persistent_history)

    def test_row_count(self, small_history):
        data = emit_canonical(small_history).decode()
        assert len(data.splitlines()) == small_history.n_executions + 1

    def test_quoting_round_trip(self):
        from .conftest import cyc, history

        tricky = history(cyc(0, ('A,"x"', "fail", 1.0), ("B", "pass", 2.0)))
        assert parse_canonical(emit_canonical(tricky)) == tricky


def test_default_grid_spec_covers_all_kinds():
    # without --config the grid reads an empty config: every kind, stock params
    spec = _grid_spec_from_args(argparse.Namespace(config=None, seed=None))
    assert spec.rankers == tuple((k, default_params(k)) for k in RankerKind)
    assert spec.base_seed == DEFAULT_SEED
