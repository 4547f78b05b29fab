import csv
import io
import warnings

import numpy as np
import pytest

from testprio import ingest
from testprio.bench import emit_canonical
from testprio.errors import (
    ConfigError,
    InvalidSpec,
    MalformedRow,
    MappingMismatch,
    UnknownVerdictToken,
)
from testprio.ingest import (
    ColumnMapping,
    SyntheticSpec,
    dataset_stats,
    generate_synthetic,
    parse_canonical,
    parse_external,
    preset_mapping_path,
)

from . import oracles
from .conftest import churn_history, cyc, history

CANONICAL = """cycle_id,test_id,verdict,duration_s
0,A,fail,1.5
0,B,pass,2.0
"""


class TestParseCanonical:
    def test_two_rows(self):
        h = parse_canonical(CANONICAL)
        assert h.n_cycles == 1
        assert len(h.cycles[0]) == 2
        c = h.cycles[0]
        assert c.test_ids == ("A", "B") and c.failed.tolist() == [True, False]
        assert c.duration_s[1] == 2.0

    def test_unknown_verdict_token(self):
        text = CANONICAL + "1,A,skip,1.0\n"
        with pytest.raises(UnknownVerdictToken, match="skip"):
            parse_canonical(text)

    def test_failure_count_hand_check(self):
        # oracle: hand count of A's failures across three cycles = 3
        rows = ["cycle_id,test_id,verdict,duration_s"]
        for c in range(3):
            rows.append(f"{c},A,fail,1.0")
            rows.append(f"{c},B,pass,1.0")
        h = parse_canonical("\n".join(rows) + "\n")
        fails = sum(
            int(c.failed[c.test_ids.index("A")]) for c in h.cycles
        )
        assert fails == 3

    def test_bad_header(self):
        with pytest.raises(MalformedRow, match="header"):
            parse_canonical("cycle,test,verdict,duration\n")

    def test_bad_duration(self):
        with pytest.raises(MalformedRow, match="line 2"):
            parse_canonical("cycle_id,test_id,verdict,duration_s\n0,A,pass,abc\n")

    def test_verdict_case_insensitive(self):
        h = parse_canonical("cycle_id,test_id,verdict,duration_s\n0,A,FAIL,1.0\n")
        assert bool(h.cycles[0].failed[0])

    def test_rows_grouped_even_if_scattered(self):
        text = (
            "cycle_id,test_id,verdict,duration_s\n"
            "1,A,pass,1.0\n0,A,pass,1.0\n1,B,pass,1.0\n0,B,fail,1.0\n"
        )
        h = parse_canonical(text)
        assert [c.cycle_id for c in h.cycles] == [0, 1]
        assert len(h.cycles[0]) == 2


H = "cycle_id,test_id,verdict,duration_s\n"

# Inputs on which the columnar parse must give the oracle's history or error.
PARSE_CASES = {
    "quoted comma": H + '0,"A,1",pass,1.5\n0,B,fail,2\n',
    "doubled quote": H + '0,"A""1",pass,1.5\n1,"A""1",fail,2\n',
    "quoted LF": H + '0,"A\n1",pass,1.5\n1,"A\n1",fail,2\n',
    "quoted CRLF and CR": H + '0,"T\r\n1",pass,1\n0,"T\r1",pass,1\n',
    "quoted numbers and verdict": H + '"0",A,"fail","1.5"\n',
    "hash and blanks in ids": H + "0,#A,pass,1\n0, A ,fail,2\n0,A ,pass,3\n",
    "signs and blanks around numbers": H + "+1,A,pass,+1.5\n 2 ,A, FAIL ,\t2.5 \n-3,B,pass,1e3\n",
    "verdict spellings": H + '0,A, Pass ,1\n0,B,"FAIL",1\n0,C,  fail  ,1\n0,D,pass   ,1\n',
    "int64 bounds": H + "9223372036854775807,A,pass,1\n-9223372036854775808,A,pass,1\n",
    "scattered cycles": H + "2,A,pass,1\n0,B,fail,2\n2,B,pass,3\n0,A,pass,4\n1,C,pass,5\n",
    "blank lines": H + "\n0,A,pass,1\n\n\n1,A,pass,1\n\n",
    "CRLF": (H + "0,A,pass,1\n\n1,B,fail,2\n").replace("\n", "\r\n"),
    "bare CR": (H + "0,A,pass,1\n1,B,fail,2\n").replace("\n", "\r"),
    "no final newline": H + "0,A,pass,1",
    "quoted header": '"cycle_id", test_id ,verdict,duration_s\n0,A,pass,1\n',
    "underscores in numbers": H + "1_0,A,pass,1_5\n",
    "non-ASCII digits": H + "\u0663,A,pass,\u0663.5\n",
    "non-ASCII id": H + "0,T\u00e9st,pass,1\n",
    "NUL in id": H + "0,A\x00B,pass,1\n",
    # malformed rows
    "empty input": "",
    "header only": H,
    "header only, no newline": H.rstrip(),
    "header and blank lines": H + "\n\r\n",
    "bad header": "cycle,test,verdict,duration\n0,A,pass,1\n",
    "whitespace-only line": H + "0,A,pass,1\n   \n",
    "three fields": H + "0,A,pass,1\n0,B,pass\n",
    "five fields": H + "0,A,pass,1,\n",
    "bad cycle id": H + "0,A,pass,1\nx,A,pass,1\n",
    "float cycle id": H + "1.0,A,pass,1\n",
    "cycle id beyond int64": H + "9223372036854775808,A,pass,1\n",
    "cycle id below int64": H + "-9223372036854775809,A,pass,1\n",
    "separator byte around a number": H + "\x1c0,A,pass,1\n",
    "bad duration": H + "0,A,pass,abc\n",
    "empty duration": H + "0,A,pass,\n",
    "unknown verdict": H + "0,A,pass,1\n1,A,skip,1\n",
    "empty verdict": H + "0,A,,1\n",
    "long verdict": H + "0,A,passpass,1\n",
    "verdict valid in its first 8 bytes": H + "0,A,pass    x,1\n",
    "NUL after verdict": H + "0,A,pass\x00,1\n",
    "unterminated quote": H + '0,"A,pass,1\n',
    "row error before history error": H + "0,A,pass,0\n1,A,skip,1\n",
    # the csv module refuses a field longer than csv.field_size_limit() (131072)
    "140,000-character ASCII id": H + "0,A,pass,1\n0," + "x" * 140_000 + ",pass,1\n",
    "140,000-character duration field": H + "0,A,pass," + "0" * 139_997 + "1.5\n",
    "140,000-character id over quoted line breaks":
        H + '0,"' + ("x" * 70_000 + "\n") * 2 + '",pass,1\n',
    # numpy reads these quoted line breaks as blanks around 1.5
    "140,000-character duration over quoted line breaks":
        H + '0,A,pass,"' + (" " * 70_000 + "\n") * 2 + '1.5"\n',
    "id at the field limit": H + "0," + "x" * 131_072 + ",pass,1\n",
    "line past the field limit, fields within it":
        H + "0," + "x" * 131_072 + ",pass," + "0" * 1_000 + "1\n",
    # history errors, earliest cycle first and, within a cycle, in row order
    "duplicate test": H + "0,A,pass,1\n1,B,pass,1\n1,B,fail,2\n",
    "duplicate test, scattered rows": H + "0,A,pass,1\n1,A,pass,1\n0,A,fail,1\n",
    "zero duration": H + "0,A,pass,1\n0,B,pass,0\n",
    "negative, inf and nan durations": H + "0,A,pass,1\n1,A,pass,-1\n1,B,pass,inf\n2,A,pass,nan\n",
    "earlier cycle's error first": H + "1,A,pass,1\n1,A,pass,1\n0,B,pass,0\n",
    "duplicate before duration in a cycle": H + "0,B,pass,-1\n0,A,pass,1\n0,A,pass,1\n",
}


def _outcome(parse, stream):
    """A parse's history as plain values (cycles, codes, registry in order),
    or its exception type and message; any warning counts as an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = parse(stream)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return ([(c.cycle_id, c.test_ids, c.failed.tolist(), c.duration_s.tolist())
             for c in h.cycles], [k.tolist() for k in h.codes], list(h.registry.items()))


def _input_kinds(text: str):
    data = text.encode()
    return [text, data, io.BytesIO(data), io.StringIO(text, newline="")]


class TestParseMatchesOracle:
    @pytest.mark.parametrize("name", PARSE_CASES)
    def test_every_input_kind_gives_the_oracle_outcome(self, name):
        text = PARSE_CASES[name]
        expected = _outcome(oracles.parse_canonical, text)
        for stream in _input_kinds(text):
            assert _outcome(parse_canonical, stream) == expected, type(stream).__name__

    def test_int64_bounds_underscores_and_quoted_line_breaks(self):
        with pytest.raises(MalformedRow, match="line 2: bad cycle_id '9223372036854775808'"):
            parse_canonical(PARSE_CASES["cycle id beyond int64"])
        assert parse_canonical(PARSE_CASES["underscores in numbers"]).cycles[0].cycle_id == 10
        h = parse_canonical(PARSE_CASES["quoted CRLF and CR"].encode())
        assert h.cycles[0].test_ids == ("T\r\n1", "T\r1")

    def test_plain_ascii_input_skips_the_row_loop(self, monkeypatch):
        def row_loop(text):
            raise AssertionError("row loop used")

        monkeypatch.setattr(ingest, "_parse_rows", row_loop)
        for name in ("quoted LF", "signs and blanks around numbers", "quoted numbers and verdict",
                     "scattered cycles", "CRLF", "duplicate test"):
            assert _outcome(parse_canonical, PARSE_CASES[name].encode())[0] is not AssertionError
        with pytest.raises(AssertionError, match="row loop used"):
            parse_canonical(PARSE_CASES["non-ASCII id"])

    def test_long_quoted_input_on_one_line_per_record_skips_the_row_loop(self, monkeypatch):
        def row_loop(text):
            raise AssertionError("row loop used")

        monkeypatch.setattr(ingest, "_parse_rows", row_loop)
        text = H + "".join(f'{c % 7},"T,{c}",pass,1\n' for c in range(10_000))
        assert len(text) > csv.field_size_limit()
        assert parse_canonical(text).n_cycles == 7

    def test_csv_error_is_malformed_row_with_its_line(self):
        text = H + "0,A,pass,1\n0,\u00e9" + "x" * 140_000 + ",pass,1\n"
        with pytest.raises(MalformedRow, match="line 3: field larger than field limit"):
            parse_canonical(text)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_churn_history_and_fixture(self, seed, persistent_history):
        for h in (churn_history(seed, n_tests=300, n_cycles=30), persistent_history):
            data = emit_canonical(h)
            assert _outcome(parse_canonical, data) == _outcome(oracles.parse_canonical, data)
            parsed = parse_canonical(data)
            assert parsed == h and list(parsed.registry) == list(h.registry)


ABB_STYLE = """Id;Name;Duration;CalcPrio;LastRun;LastResults;Verdict;Cycle
1;TC_A;3.5;0;2016-01-01;[];1;1
2;TC_B;1.0;0;2016-01-01;[];0;1
3;TC_A;3.0;0;2016-01-02;[];0;2
"""


class TestParseExternal:
    def _mapping(self, **overrides):
        base = dict(
            cycle_col="Cycle",
            test_col="Name",
            verdict_col="Verdict",
            duration_col="Duration",
            verdict_map={"1": "fail", "0": "pass"},
            delimiter=";",
        )
        base.update(overrides)
        return ColumnMapping(**base)

    def test_abb_style_rows(self):
        h = parse_external(ABB_STYLE, self._mapping())
        assert h.n_cycles == 2
        assert h.n_tests == 2
        assert bool(h.cycles[0].failed[h.cycles[0].test_ids.index("TC_A")])

    def test_missing_mapped_column(self):
        mapping = self._mapping(duration_col="Runtime")
        with pytest.raises(MappingMismatch, match="Runtime"):
            parse_external(ABB_STYLE, mapping)

    def test_drop_rows_excluded(self):
        text = ABB_STYLE + "4;TC_C;9.9;0;2016-01-02;[];2;2\n"
        mapping = self._mapping(verdict_map={"1": "fail", "0": "pass", "2": "drop"})
        h = parse_external(text, mapping)
        assert "TC_C" not in h.registry

    def test_unmapped_token_is_error(self):
        text = ABB_STYLE + "4;TC_C;9.9;0;2016-01-02;[];2;2\n"
        with pytest.raises(UnknownVerdictToken, match="2"):
            parse_external(text, self._mapping())

    def test_duplicate_rows_keep_last(self):
        text = ABB_STYLE + "4;TC_A;7.0;0;2016-01-02;[];1;2\n"
        h = parse_external(text, self._mapping())
        c2 = h.cycles[1]
        pos = c2.test_ids.index("TC_A")
        assert c2.duration_s[pos] == 7.0
        assert bool(c2.failed[pos])
        assert len(c2) == 1

    def test_duration_unit_conversion(self):
        mapping = self._mapping(duration_unit_s=0.001)
        h = parse_external(ABB_STYLE, mapping)
        pos = h.cycles[0].test_ids.index("TC_A")
        assert h.cycles[0].duration_s[pos] == pytest.approx(0.0035)

    def test_clamp_min_duration(self):
        text = ABB_STYLE.replace("3.5", "0.0")
        mapping = self._mapping(clamp_min_duration_s=0.001)
        h = parse_external(text, mapping)
        pos = h.cycles[0].test_ids.index("TC_A")
        assert h.cycles[0].duration_s[pos] == 0.001

    def test_bad_clamp_min_duration_names_its_key(self):
        cfg = {"verdict_map.1": "fail", "clamp_min_duration_s": "tiny"}
        with pytest.raises(ConfigError, match="key 'clamp_min_duration_s': not a number"):
            ColumnMapping.from_config(cfg)
        cfg["clamp_min_duration_s"] = "0.5"
        assert ColumnMapping.from_config(cfg).clamp_min_duration_s == 0.5

    def test_headerless_mapping_uses_indices(self):
        text = "1;TC_A;3.5;1\n2;TC_B;1.0;1\n"
        mapping = ColumnMapping(
            cycle_col="3", test_col="1", verdict_col="3", duration_col="2",
            verdict_map={"1": "fail", "2": "pass"}, delimiter=";", has_header=False,
        )
        h = parse_external(text, mapping)
        assert h.n_tests == 2

    def test_headerless_mapping_requires_integer_columns(self):
        mapping = ColumnMapping(
            cycle_col="Cycle", test_col="Name", verdict_col="Verdict",
            duration_col="Duration", verdict_map={"1": "fail"},
            delimiter=";", has_header=False,
        )
        with pytest.raises(MappingMismatch):
            parse_external("a;b;c;d\n", mapping)

    def test_headerless_mapping_rejects_negative_columns(self):
        # -1 would index the last field of every row
        mapping = ColumnMapping(
            cycle_col="-1", test_col="1", verdict_col="3", duration_col="2",
            verdict_map={"1": "fail", "2": "pass"}, delimiter=";", has_header=False,
        )
        with pytest.raises(MappingMismatch, match="non-negative"):
            parse_external("1;TC_A;3.5;1;7\n", mapping)

    @pytest.mark.parametrize("delimiter", [";;", "", "\n", "\r"])
    def test_delimiter_must_be_one_character_and_no_line_break(self, delimiter):
        with pytest.raises(ConfigError, match="delimiter"):
            self._mapping(delimiter=delimiter)

    def test_short_row_is_malformed(self):
        text = ABB_STYLE + "4;TC_C\n"
        with pytest.raises(MalformedRow, match="line 5"):
            parse_external(text, self._mapping())

    def test_duplicate_rows_warning_count(self, caplog):
        import logging

        text = ABB_STYLE + "4;TC_A;7.0;0;x;[];1;2\n5;TC_A;8.0;0;x;[];0;2\n"
        with caplog.at_level(logging.WARNING, logger="testprio.ingest"):
            parse_external(text, self._mapping())
        assert "2 duplicate" in caplog.text

    def test_cycle_id_beyond_int64_is_malformed(self):
        text = ABB_STYLE + "4;TC_C;1.0;0;x;[];1;9223372036854775808\n"
        with pytest.raises(MalformedRow, match="line 5: bad cycle id"):
            parse_external(text, self._mapping())

    def test_line_endings_parse_alike_for_every_input_kind(self):
        expected = parse_external(ABB_STYLE, self._mapping())
        for eol in ("\r\n", "\r"):
            for stream in _input_kinds(ABB_STYLE.replace("\n", eol)):
                assert parse_external(stream, self._mapping()) == expected

    def test_bundled_presets_load(self):
        for name in ("abb", "google"):
            mapping = ColumnMapping.from_file(preset_mapping_path(name))
            assert mapping.verdict_map  # non-empty vocabulary
        with pytest.raises(ConfigError):
            preset_mapping_path("nonexistent")

    def test_preset_matches_abb_layout(self):
        mapping = ColumnMapping.from_file(preset_mapping_path("abb"))
        h = parse_external(ABB_STYLE, mapping)
        assert h.n_tests == 2 and h.n_cycles == 2


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n_tests=5, n_cycles=20, base_failure_prob=0.5)
        assert generate_synthetic(spec, 123) == generate_synthetic(spec, 123)

    def test_different_seed_differs(self):
        spec = SyntheticSpec(n_tests=20, n_cycles=50, base_failure_prob=0.5)
        assert generate_synthetic(spec, 1) != generate_synthetic(spec, 2)

    def test_zero_base_failure_means_no_fails(self):
        spec = SyntheticSpec(n_tests=5, n_cycles=30, base_failure_prob=0.0)
        h = generate_synthetic(spec, 7)
        assert all(not c.failed.any() for c in h.cycles)

    def test_empirical_persistence_close_to_nominal(self):
        # Monte-Carlo oracle: empirical P(fail@c | fail@c-1) ~ persistence
        spec = SyntheticSpec(
            n_tests=50, n_cycles=200, base_failure_prob=0.5,
            persistence=0.9, flip_prob=0.05,
        )
        h = generate_synthetic(spec, 99)
        fails = np.array([c.failed for c in h.cycles])
        prev, cur = fails[:-1], fails[1:]
        stay = (prev & cur).sum()
        total = prev.sum()
        assert total > 200  # enough transitions to estimate
        assert abs(stay / total - 0.9) < 0.05

    def test_output_is_valid_history(self):
        spec = SyntheticSpec(n_tests=8, n_cycles=15, base_failure_prob=0.4)
        h = generate_synthetic(spec, 5)
        assert h.n_cycles == 15
        assert h.n_tests == 8
        assert all(len(c) == 8 for c in h.cycles)

    def test_durations_fixed_per_test(self):
        spec = SyntheticSpec(n_tests=5, n_cycles=10, base_failure_prob=0.3)
        h = generate_synthetic(spec, 3)
        first = h.cycles[0].duration_s
        for c in h.cycles[1:]:
            assert np.array_equal(c.duration_s, first)

    def test_regime_shift_moves_failures(self):
        spec = SyntheticSpec(
            n_tests=10, n_cycles=60, base_failure_prob=0.3,
            persistence=0.5, flip_prob=0.5, regime_shift_cycle=30,
        )
        h = generate_synthetic(spec, 21)
        pre = np.array([c.failed for c in h.cycles[:30]]).any(axis=0)
        post = np.array([c.failed for c in h.cycles[30:]]).any(axis=0)
        assert pre.any() and post.any()
        assert not np.array_equal(pre, post)

    def test_noise_failures_hit_healthy_tests(self):
        quiet = SyntheticSpec(n_tests=20, n_cycles=100, base_failure_prob=0.0)
        noisy = SyntheticSpec(n_tests=20, n_cycles=100, base_failure_prob=0.0,
                              noise_failure_prob=0.05)
        assert not any(c.failed.any() for c in generate_synthetic(quiet, 4).cycles)
        fails = sum(int(c.failed.sum()) for c in generate_synthetic(noisy, 4).cycles)
        assert 0.02 < fails / 2000 < 0.08  # ~5% of 20x100 executions

    def test_periodic_shift_rotates_roles(self):
        # adjacent 20-cycle blocks sit in different regimes
        spec = SyntheticSpec(n_tests=10, n_cycles=80, base_failure_prob=0.3,
                             persistence=0.5, flip_prob=0.5, regime_shift_period=20)
        h = generate_synthetic(spec, 6)
        blocks = [
            np.array([c.failed for c in h.cycles[i : i + 20]]).any(axis=0)
            for i in (0, 20)
        ]
        assert not np.array_equal(blocks[0], blocks[1])

    @pytest.mark.parametrize("key", ["regime_shift_cycle", "regime_shift_period"])
    def test_bad_regime_shift_key_names_itself(self, key):
        cfg = {"n_tests": "5", "n_cycles": "20", "base_failure_prob": "0.1", key: "1.5"}
        with pytest.raises(ConfigError, match=f"key '{key}': not an integer"):
            SyntheticSpec.from_config(cfg)
        cfg[key] = "10"
        assert getattr(SyntheticSpec.from_config(cfg), key) == 10

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_tests=0, n_cycles=5, base_failure_prob=0.1)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_tests=5, n_cycles=5, base_failure_prob=1.5)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_tests=5, n_cycles=5, base_failure_prob=0.1,
                          duration_min_s=0.0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_tests=5, n_cycles=5, base_failure_prob=0.1,
                          regime_shift_cycle=5)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_tests=5, n_cycles=5, base_failure_prob=0.1,
                          regime_shift_period=0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_tests=5, n_cycles=5, base_failure_prob=0.1,
                          noise_failure_prob=-0.1)


class TestDatasetStats:
    def test_hand_counted_fraction(self):
        # oracle: 4 executions, 1 fail -> 0.25
        h = history(
            cyc(0, ("A", "fail", 1.0), ("B", "pass", 1.0)),
            cyc(1, ("A", "pass", 1.0), ("B", "pass", 1.0)),
        )
        s = dataset_stats(h)
        assert s.n_tests == 2
        assert s.n_executions == 4
        assert s.n_cycles == 2
        assert s.failed_execution_fraction == pytest.approx(0.25)

    def test_all_pass_fraction_zero(self):
        h = history(cyc(0, ("A", "pass", 1.0)))
        assert dataset_stats(h).failed_execution_fraction == 0.0

    def test_as_dict_is_pinned(self, small_history):
        # oracle: 9 executions; A fails in all 3 cycles, B in one -> 4/9
        assert list(dataset_stats(small_history).as_dict().items()) == [
            ("n_tests", 3),
            ("n_executions", 9),
            ("n_cycles", 3),
            ("failed_execution_fraction", 0.4444444444444444),
        ]

    def test_counts_match_brute_force(self, persistent_history):
        s = dataset_stats(persistent_history)
        execs = sum(len(c) for c in persistent_history.cycles)
        fails = sum(int(c.failed.sum()) for c in persistent_history.cycles)
        assert s.n_executions == execs
        assert s.failed_execution_fraction == pytest.approx(fails / execs)
        assert s.n_tests == len(persistent_history.registry)
