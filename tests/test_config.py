import argparse
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from testprio.bench import GridSpec
from testprio.cli import _grid_spec_from_args
from testprio.config import parse_config, read_dataclass
from testprio.errors import ConfigError
from testprio.features import FeatureConfig
from testprio.ingest import ColumnMapping, preset_mapping_path
from testprio.rankers import (
    AnnParams,
    GbdtParams,
    LrnParams,
    RandomParams,
    RankerKind,
    RocketParams,
    SvmParams,
)

DATA = Path(__file__).parent / "data"


def test_parse_basic():
    cfg = parse_config("a = 1\n# comment\n\nb.c = hello world\n")
    assert cfg == {"a": "1", "b.c": "hello world"}


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a pair")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("a = 1\na = 2\n")


@dataclass(frozen=True)
class _Inner:
    k: int = 1


@dataclass(frozen=True)
class _Fields:
    n: int
    x: float = 0.5
    flag: bool = False
    name: str = "a"
    limit: float | None = None
    fracs: tuple[float, ...] = (1.0,)
    roles: dict[str, str] = field(default_factory=dict)
    inner: _Inner = _Inner()


def test_read_dataclass_reads_each_field_by_its_type():
    cfg = parse_config("n = 3\nx = 2\nflag = yes\nname = b c\nlimit = 0.25\n"
                       "fracs = 0.2, ,0.4\nroles.P = pass\ninner.k = 9\n")
    assert read_dataclass(_Fields, cfg) == _Fields(
        n=3, x=2.0, flag=True, name="b c", limit=0.25, fracs=(0.2, 0.4),
        roles={"P": "pass"}, inner=_Inner(k=9))
    assert read_dataclass(_Fields, {"n": "3"}) == _Fields(n=3)


@pytest.mark.parametrize("cfg, text", [
    ({}, "missing required key 'n'"),
    ({"n": "1", "m": "2"}, "unknown key 'm'"),
    ({"n": "1", "inner": "2"}, "unknown key 'inner'"),
    ({"n": "1", "inner.j": "2"}, "unknown key 'inner.j'"),
    ({"n": "1.5"}, "key 'n': not an integer: '1.5'"),
    ({"n": "1", "limit": "low"}, "key 'limit': not a number: 'low'"),
    ({"n": "1", "flag": "maybe"}, "key 'flag': not a boolean: 'maybe'"),
])
def test_read_dataclass_names_the_bad_key(cfg, text):
    with pytest.raises(ConfigError) as exc:
        read_dataclass(_Fields, cfg)
    assert str(exc.value) == text


def test_read_dataclass_checks_only_the_keys_under_its_prefix():
    cfg = {"a.n": "4", "a.inner.k": "2", "b.n": "x", "other": "1"}
    assert read_dataclass(_Fields, cfg, "a.") == _Fields(n=4, inner=_Inner(k=2))
    with pytest.raises(ConfigError, match="unknown key 'b.m'"):
        read_dataclass(_Fields, {"b.n": "1", "b.m": "1"}, "b.")


def test_bundled_files_load_to_their_pinned_values():
    # the values every config reader has produced for these files
    assert ColumnMapping.from_file(preset_mapping_path("abb")) == ColumnMapping(
        cycle_col="Cycle", test_col="Name", verdict_col="Verdict", duration_col="Duration",
        verdict_map={"1": "fail", "0": "pass"}, delimiter=";", duration_unit_s=1.0,
        clamp_min_duration_s=0.001)
    assert ColumnMapping.from_file(preset_mapping_path("google")) == ColumnMapping(
        cycle_col="changelistStartTime", test_col="testSuiteName", verdict_col="status",
        duration_col="executionTime",
        verdict_map={"PASSED": "pass", "FAILED": "fail", "SKIPPED": "drop"},
        delimiter=",", duration_unit_s=0.001, clamp_min_duration_s=0.001)
    spec = _grid_spec_from_args(argparse.Namespace(config=str(DATA / "acceptance_grid.cfg"),
                                                   seed=None))
    fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    assert spec == GridSpec(
        rankers=((RankerKind.RANDOM, RandomParams()), (RankerKind.ROCKET, RocketParams()),
                 (RankerKind.SVM, SvmParams(epochs=20)),
                 (RankerKind.ANN, AnnParams(epochs=15, restarts=3)),
                 (RankerKind.GBDT, GbdtParams(n_estimators=40)),
                 (RankerKind.LRN, LrnParams(epochs=15, restarts=3))),
        history_fractions=fractions, budget_fractions=fractions, eval_fraction=0.1,
        base_seed=1729, features=FeatureConfig())
    assert spec.config_hash() == (
        "d2163867a6eb96e5cbf973a1786e8ab6320d35f4e583c8c35982ff825c37b50b")
