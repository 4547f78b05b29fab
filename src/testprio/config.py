"""Shared key-value config format.

All on-disk configuration (column-mapping presets, synthetic history specs,
feature settings, grid specs) uses one flat format::

    # comment
    delimiter = ;
    duration_unit_s = 0.001
    verdict_map.PASSED = pass

One ``key = value`` pair per line.  Keys may be dotted; values are taken
verbatim (surrounding whitespace stripped) and coerced by the consumer.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {no}: empty key")
        if key in out:
            raise ConfigError(f"line {no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}") from exc


def get_floats(cfg: dict[str, str], key: str, default: tuple[float, ...]) -> tuple[float, ...]:
    """A comma-separated list of numbers; blank items are skipped."""
    if key not in cfg:
        return default
    return tuple(get_float({key: t.strip()}, key) for t in cfg[key].split(",") if t.strip())


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {cfg[key]!r}") from exc


def get_bool(cfg: dict[str, str], key: str, default: bool) -> bool:
    if key not in cfg:
        return default
    value = cfg[key].lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {cfg[key]!r}")


def subkeys(cfg: dict[str, str], prefix: str) -> dict[str, str]:
    """All entries under ``prefix.``, with the prefix stripped."""
    dot = prefix + "."
    return {k[len(dot):]: v for k, v in cfg.items() if k.startswith(dot)}
