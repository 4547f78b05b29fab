import pytest

from testprio.config import get_bool, get_float, get_int, parse_config, subkeys
from testprio.errors import ConfigError


def test_parse_basic():
    cfg = parse_config("a = 1\n# comment\n\nb.c = hello world\n")
    assert cfg == {"a": "1", "b.c": "hello world"}


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a pair")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("a = 1\na = 2\n")


def test_typed_getters():
    cfg = {"x": "2.5", "n": "7", "flag": "true"}
    assert get_float(cfg, "x") == 2.5
    assert get_int(cfg, "n") == 7
    assert get_bool(cfg, "flag", False) is True
    assert get_float(cfg, "missing", 1.0) == 1.0
    with pytest.raises(ConfigError):
        get_int(cfg, "x")
    with pytest.raises(ConfigError):
        get_float(cfg, "nope")


def test_subkeys():
    cfg = parse_config("verdict_map.PASS = pass\nverdict_map.FAIL = fail\nother = 1\n")
    assert subkeys(cfg, "verdict_map") == {"PASS": "pass", "FAIL": "fail"}
