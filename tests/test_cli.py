import json
from pathlib import Path

import pytest

from testprio.bench import emit_canonical
from testprio.cli import main
from testprio.ingest import dataset_stats
from testprio.rankers import RankerKind

from .conftest import cyc, history

DATA = Path(__file__).parent / "data"


@pytest.fixture
def history_file(tmp_path):
    h = history(*[
        cyc(i, ("A", "fail" if i % 3 == 0 else "pass", 2.0), ("B", "pass", 1.0))
        for i in range(10)
    ])
    path = tmp_path / "history.csv"
    path.write_bytes(emit_canonical(h))
    return path, h


SYNTH_SPEC_TEXT = """\
n_tests = 6
n_cycles = 12
base_failure_prob = 0.4
persistence = 0.9
flip_prob = 0.05
duration_min_s = 0.5
duration_max_s = 1.5
"""


class TestStats:
    def test_text_output(self, history_file, capsys):
        path, h = history_file
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tests:" in out and "2" in out
        assert "cycles:" in out and "10" in out

    def test_json_matches_library(self, history_file, capsys):
        path, h = history_file
        assert main(["stats", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == dataset_stats(h).as_dict()

    def test_missing_file_exit_2_names_path(self, capsys):
        assert main(["stats", "does-not-exist.csv"]) == 2
        assert "does-not-exist.csv" in capsys.readouterr().err

    def test_parse_error_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("cycle_id,test_id,verdict,duration_s\n0,A,maybe,1.0\n")
        assert main(["stats", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_cycle_id_beyond_int64_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("cycle_id,test_id,verdict,duration_s\n9223372036854775808,A,pass,1.0\n")
        assert main(["stats", str(bad)]) == 2
        assert "line 2: bad cycle_id" in capsys.readouterr().err

    def test_mapping_preset(self, tmp_path, capsys):
        f = tmp_path / "abb-style.csv"
        f.write_text(
            "Id;Name;Duration;CalcPrio;LastRun;LastResults;Verdict;Cycle\n"
            "1;TC_A;3.5;0;x;[];1;1\n"
            "2;TC_B;1.0;0;x;[];0;1\n"
        )
        assert main(["stats", str(f), "--mapping", "abb", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tests"] == 2
        assert doc["n_executions"] == 2


    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_mapping_delimiter_not_one_character_exit_2(self, tmp_path, capsys, delimiter):
        f = tmp_path / "h.csv"
        f.write_text("c;t;v;d\n1;A;1;1.0\n")
        mapping = tmp_path / "m.map"
        mapping.write_text("cycle_col = c\ntest_col = t\nverdict_col = v\n"
                           f"duration_col = d\nverdict_map.1 = fail\ndelimiter = {delimiter}\n")
        assert main(["stats", str(f), "--mapping", str(mapping)]) == 2
        assert "delimiter" in capsys.readouterr().err

    def test_unknown_mapping_key_exit_2_names_it(self, tmp_path, capsys):
        # a misspelt duration_unit_s would otherwise read milliseconds as seconds
        f = tmp_path / "h.csv"
        f.write_text("c;t;v;d\n1;A;1;1.0\n")
        mapping = tmp_path / "m.map"
        mapping.write_text("cycle_col = c\ntest_col = t\nverdict_col = v\nduration_col = d\n"
                           "verdict_map.1 = fail\ndelimiter = ;\nduration_units_s = 0.001\n")
        assert main(["stats", str(f), "--mapping", str(mapping)]) == 2
        assert capsys.readouterr().err == "error: unknown key 'duration_units_s'\n"


class TestSynth:
    def test_deterministic_output_files(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SYNTH_SPEC_TEXT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", str(spec), "--out", str(out1), "--seed", "3"]) == 0
        assert main(["synth", str(spec), "--out", str(out2), "--seed", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SYNTH_SPEC_TEXT.replace("n_cycles = 12", "n_cycles = 0"))
        assert main(["synth", str(spec), "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_key_exit_2_names_it(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SYNTH_SPEC_TEXT + "persistance = 0.5\n")
        out = tmp_path / "x.csv"
        assert main(["synth", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown key 'persistance'\n"
        assert not out.exists()

    def test_out_is_a_directory_exit_1_leaves_no_temp_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SYNTH_SPEC_TEXT)
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["synth", str(spec), "--out", str(out)]) == 1
        assert "cannot write" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.cfg", "taken"]

    def test_round_trip_through_stats(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SYNTH_SPEC_TEXT)
        out = tmp_path / "synth.csv"
        assert main(["synth", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tests"] == 6
        assert doc["n_cycles"] == 12
        assert doc["n_executions"] == 72


class TestReplay:
    def test_smoke_summary(self, history_file, capsys):
        path, _ = history_file
        rc = main(["replay", str(path), "--ranker", "rocket",
                   "--history-frac", "0.6", "--budget-frac", "1.0", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "mean_apfd" in doc
        assert doc["ranker"] == "rocket"
        assert doc["cycles_evaluated"] == 2

    def test_unknown_ranker_exit_2_lists_kinds(self, history_file, capsys):
        path, _ = history_file
        assert main(["replay", str(path), "--ranker", "rl"]) == 2
        err = capsys.readouterr().err
        for kind in ("random", "rocket", "svm", "ann", "gbdt", "lrn"):
            assert kind in err

    def test_history_too_short_exit_3(self, tmp_path, capsys):
        h = history(*[cyc(i, ("A", "pass", 1.0)) for i in range(4)])
        path = tmp_path / "short.csv"
        path.write_bytes(emit_canonical(h))
        assert main(["replay", str(path), "--ranker", "random"]) == 3

    @pytest.mark.parametrize("command, flag", [("replay", "--out"), ("grid", "--out-dir")])
    def test_history_too_short_exit_3_makes_no_out_dir(self, tmp_path, capsys, command, flag):
        h = history(*[cyc(i, ("A", "fail" if i % 2 else "pass", 1.0)) for i in range(3)])
        path = tmp_path / "short.csv"
        path.write_bytes(emit_canonical(h))
        out = tmp_path / "out"
        extra = ["--ranker", "random"] if command == "replay" else []
        assert main([command, str(path), *extra, flag, str(out)]) == 3
        assert capsys.readouterr().err == "error: need >= 5 cycles, history has 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("frac", ["0", "-1"])
    def test_non_positive_budget_exit_2(self, history_file, frac, capsys):
        path, _ = history_file
        assert main(["replay", str(path), "--ranker", "rocket",
                     "--budget-frac", frac]) == 2
        assert "internal error" not in capsys.readouterr().err

    def test_out_files_written(self, history_file, tmp_path, capsys):
        path, _ = history_file
        out = tmp_path / "report"
        rc = main(["replay", str(path), "--ranker", "rocket", "--out", str(out)])
        assert rc == 0
        assert (out / "summary.json").exists()
        lines = (out / "cycles.csv").read_text().splitlines()
        assert len(lines) == 1 + 2

    def test_out_path_is_a_file_exit_1(self, history_file, tmp_path, capsys):
        path, _ = history_file
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["replay", str(path), "--ranker", "rocket", "--out", str(out)]) == 1
        assert "cannot create" in capsys.readouterr().err

    def test_out_path_is_a_file_exit_1_before_the_walk(self, history_file, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr("testprio.cli.walk_forward", _must_not_run)
        path, _ = history_file
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["replay", str(path), "--ranker", "gbdt", "--out", str(out)]) == 1
        assert "cannot create" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_worker_count_changes_no_byte(self, history_file, tmp_path, capsys):
        path, _ = history_file
        outs = [tmp_path / f"w{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main(["replay", str(path), "--ranker", "svm", "--workers", str(w),
                         "--out", str(out)]) == 0
        for name in ("summary.json", "cycles.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_golden_summary(self, tmp_path, capsys):
        """Frozen summary from the first verified run of this configuration."""
        golden_path = DATA / "golden_replay_summary.json"
        fixture = DATA / "golden_fixture.csv"
        out = tmp_path / "golden-run"
        rc = main(["replay", str(fixture), "--ranker", "rocket",
                   "--history-frac", "0.6", "--budget-frac", "0.6",
                   "--seed", "99", "--out", str(out)])
        assert rc == 0
        assert (out / "summary.json").read_bytes() == golden_path.read_bytes()


class TestGrid:
    def test_tiny_grid_row_count_and_workers(self, tmp_path, capsys):
        from testprio.ingest import SyntheticSpec, generate_synthetic

        spec = SyntheticSpec(n_tests=6, n_cycles=20, base_failure_prob=0.4,
                             persistence=0.9, flip_prob=0.1)
        data = tmp_path / "d.csv"
        data.write_bytes(emit_canonical(generate_synthetic(spec, 4)))
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "rankers = random,rocket,svm\n"
            "history_fractions = 0.5,1.0\n"
            "budget_fractions = 0.5,1.0\n"
            "svm.epochs = 3\n"
        )
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["grid", str(data), "--config", str(cfg),
                     "--workers", "1", "--out-dir", str(d1)]) == 0
        assert main(["grid", str(data), "--config", str(cfg),
                     "--workers", "4", "--out-dir", str(d2)]) == 0
        csv1 = (d1 / "report.csv").read_bytes()
        assert csv1 == (d2 / "report.csv").read_bytes()
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert len(csv1.decode().splitlines()) == 1 + 3 * 2 * 2

    def test_config_restricting_history_fractions(self, tmp_path, capsys):
        from testprio.ingest import SyntheticSpec, generate_synthetic

        spec = SyntheticSpec(n_tests=5, n_cycles=15, base_failure_prob=0.4,
                             persistence=0.9, flip_prob=0.1)
        data = tmp_path / "d.csv"
        data.write_bytes(emit_canonical(generate_synthetic(spec, 8)))
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "history_fractions = 0.5\n"
            "svm.epochs = 2\nann.epochs = 2\nann.restarts = 2\n"
            "lrn.epochs = 2\nlrn.restarts = 2\ngbdt.n_estimators = 4\n"
        )
        out = tmp_path / "r"
        assert main(["grid", str(data), "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 1 * 5  # 30 data rows

    @pytest.mark.parametrize("config_seed, flag, expected", [
        ("seed = 5\n", None, 5),
        ("seed = 5\n", "1729", 1729),
        ("seed = 5\n", "1730", 1730),
        ("", None, 1729),
    ], ids=["config", "flag-1729", "flag-1730", "default"])
    def test_seed_flag_then_config_then_default(self, history_file, tmp_path, capsys,
                                                 config_seed, flag, expected):
        path, _ = history_file
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("rankers = random\n" + config_seed)
        out = tmp_path / "r"
        argv = ["grid", str(path), "--config", str(cfg), "--out-dir", str(out)]
        assert main(argv + (["--seed", flag] if flag else [])) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["provenance"]["base_seed"] == expected

    def test_decay_out_of_range_exit_2(self, history_file, tmp_path, capsys):
        path, _ = history_file
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("rankers = random\nfeatures.decay = 1.5\n")
        assert main(["grid", str(path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert "decay" in capsys.readouterr().err

    @pytest.mark.parametrize("line, text", [
        ("seed = 1.5", "key 'seed': not an integer: '1.5'"),
        ("eval_fraction = abc", "key 'eval_fraction': not a number: 'abc'"),
        ("history_fractions = 0.2, x", "key 'history_fractions': not a number: 'x'"),
        ("budget_fractions = 0.5,,y", "key 'budget_fractions': not a number: 'y'"),
    ])
    def test_bad_grid_value_exit_2_names_its_key(self, history_file, tmp_path, capsys,
                                                 line, text):
        path, _ = history_file
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"rankers = random\n{line}\n")
        assert main(["grid", str(path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    @pytest.mark.parametrize("rankers, line", [
        ("random", "history_fraction = 0.5"),
        ("random", "eval_fracton = 0.3"),
        ("random", "features.decy = 0.5"),
        ("random", "features = 0.5"),
        ("rocket,ann", "svm.epohcs = 3"),  # checked though svm is not in the grid
        *(("random", f"{kind.value}.bogus = 1") for kind in RankerKind),
    ])
    def test_unknown_grid_key_exit_2_names_it(self, history_file, tmp_path, capsys,
                                              rankers, line):
        path, _ = history_file
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"rankers = {rankers}\n{line}\n")
        assert main(["grid", str(path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 2
        key = line.partition(" =")[0]
        assert capsys.readouterr().err == f"error: unknown key {key!r}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key", ["history_fractions", "budget_fractions"])
    def test_repeated_fraction_exit_2_names_its_key(self, history_file, tmp_path, capsys,
                                                    key):
        path, _ = history_file
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"rankers = rocket\n{key} = 0.5,0.5\n")
        assert main(["grid", str(path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"error: {key} must be strictly increasing, got (0.5, 0.5)\n")
        assert not (tmp_path / "r").exists()

    def test_blank_fraction_items_are_skipped(self, history_file, tmp_path, capsys):
        path, _ = history_file
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("rankers = random\nhistory_fractions = 0.5, ,1.0,\n"
                       "budget_fractions = ,1.0\n")
        assert main(["grid", str(path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 0
        assert len((tmp_path / "r" / "report.csv").read_text().splitlines()) == 1 + 2 * 1

    @pytest.mark.parametrize("key, value", [
        ("ann.batch_size", "0"),
        ("ann.restarts", "0"),
        ("lrn.restarts", "0"),
        ("gbdt.min_samples_leaf", "-3"),
        ("gbdt.max_depth", "-1"),
        ("svm.batch_size", "0"),
        ("lrn.hidden2", "0"),
        ("ann.learning_rate", "nan"),
        ("svm.epochs", "two"),
    ])
    def test_bad_hyperparameter_exit_2_before_any_fit(self, history_file, tmp_path,
                                                       capsys, monkeypatch, key, value):
        from testprio.rankers import FITTERS

        def no_fit(*_):
            raise AssertionError("a fit started")

        for kind in list(FITTERS):
            monkeypatch.setitem(FITTERS, kind, no_fit)
        path, _ = history_file
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"rankers = {key.split('.')[0]}\n{key} = {value}\n")
        assert main(["grid", str(path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


    def test_out_dir_is_a_file_exit_1_before_the_grid(self, history_file, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr("testprio.cli.run_grid", _must_not_run)
        path, _ = history_file
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["grid", str(path), "--out-dir", str(out)]) == 1
        assert "cannot create" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_unwritable_out_dir_exit_1_before_the_grid(self, history_file, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr("testprio.cli.run_grid", _must_not_run)
        monkeypatch.setattr("os.access", lambda *_: False)  # root may write anywhere
        path, _ = history_file
        assert main(["grid", str(path), "--out-dir", str(tmp_path / "r")]) == 1
        assert "cannot write to" in capsys.readouterr().err


def _must_not_run(*_, **__):
    raise AssertionError("the run started before its output path was checked")


def test_unknown_flag_is_an_error(history_file, capsys):
    path, _ = history_file
    with pytest.raises(SystemExit) as exc:
        main(["stats", str(path), "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["replay", "grid"])
@pytest.mark.parametrize("workers", ["0", "-4"])
def test_workers_below_one_exit_2(history_file, capsys, command, workers):
    path, _ = history_file
    extra = ["--ranker", "rocket"] if command == "replay" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(path), *extra, "--workers", workers])
    assert exc.value.code == 2
    assert "argument --workers: must be >= 1" in capsys.readouterr().err
