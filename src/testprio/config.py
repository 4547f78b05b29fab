"""Shared key-value config format.

All on-disk configuration (column-mapping presets, synthetic history specs,
feature settings, grid specs) uses one flat format::

    # comment
    delimiter = ;
    duration_unit_s = 0.001
    verdict_map.PASSED = pass

One ``key = value`` pair per line.  Keys may be dotted; values are taken
verbatim (surrounding whitespace stripped).  :func:`read_dataclass` reads
them by field type, and a key that names no field is an error.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Mapping, get_args, get_type_hints

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


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
_NOT_A = {int: "an integer", float: "a number", bool: "a boolean"}


def _read(kind: type, cfg: Mapping[str, str], key: str):
    """The value of ``key`` as ``kind``: ``str``, ``int``, ``float``,
    ``bool`` or ``tuple[float, ...]`` (comma-separated; blank items are
    skipped).  Text that is no such value raises :class:`ConfigError`."""
    text = cfg[key]
    if kind is str:
        return text
    if kind == tuple[float, ...]:
        return tuple(_read(float, {key: t.strip()}, key) for t in text.split(",") if t.strip())
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"key {key!r}: not {_NOT_A[kind]}: {text!r}") from exc


def read_dataclass(cls: type, cfg: Mapping[str, str], prefix: str = ""):
    """Dataclass ``cls`` from the keys ``prefix + field name``, each read by
    its field's type (see :func:`_read`; ``X | None`` reads as ``X``).  A
    ``dict[str, str]`` field holds the subkeys ``name.<key>``; a dataclass
    field reads its own fields under ``name.``.  An absent key leaves its
    field at the default.  A missing required key, or a key under
    ``prefix`` that names no field, raises :class:`ConfigError`."""
    hints = get_type_hints(cls)
    values, known = {}, set()
    for f in fields(cls):
        key, kind = prefix + f.name, hints[f.name]
        if kind == dict[str, str] or is_dataclass(kind):
            under = [k for k in cfg if k.startswith(key + ".")]
            known.update(under)
            values[f.name] = (read_dataclass(kind, cfg, key + ".") if is_dataclass(kind)
                              else {k[len(key) + 1:]: cfg[k] for k in under})
        elif key in cfg:
            known.add(key)
            if type(None) in get_args(kind):  # X | None
                kind, = (a for a in get_args(kind) if a is not type(None))
            values[f.name] = _read(kind, cfg, key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {key!r}")
    unknown = [k for k in cfg if k.startswith(prefix) and k not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    return cls(**values)
