"""Parsing, synthesis and summary statistics for CI test histories.

Three sources of histories are supported:

* the canonical CSV format (``cycle_id,test_id,verdict,duration_s``),
* arbitrary delimited files described by a :class:`ColumnMapping` (presets
  for the public ABB and Google datasets ship under ``testprio/presets``),
* a seeded synthetic generator useful for benchmarks and fixtures.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from array import array
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from . import config as cfgmod
from .domain import Cycle, ExecutionColumns, TestHistory, validate_history
from .errors import (
    ConfigError,
    InvalidSpec,
    MalformedRow,
    MappingMismatch,
    UnknownVerdictToken,
)

logger = logging.getLogger(__name__)

CANONICAL_HEADER = ("cycle_id", "test_id", "verdict", "duration_s")
_HEADER = tuple(h.encode() for h in CANONICAL_HEADER)
_VERDICTS = {"pass": False, "fail": True}  # canonical token -> failed

# One canonical row as numpy's C parser reads it.  Verdict tokens are read as
# fixed-width bytes; a token that fills the width may have been cut short.
_TOKEN_BYTES = 8
_ROW = np.dtype([("cycle", np.int64), ("test", object), ("verdict", f"S{_TOKEN_BYTES}"),
                 ("duration", np.float64)])
# Input holding these bytes, or any non-ASCII byte, takes the row loop: numpy
# strips trailing NULs from bytes fields and reads \x1c-\x1f (and some
# non-ASCII characters) as blanks around a number, where int() and float()
# reject them.
_ROW_LOOP_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_ANY_ROW = re.compile(rb"[^\r\n]")
_LINE_END = re.compile(rb"[^\r\n](?![^\r\n])")  # last byte of a non-empty line

# Roles a source verdict token can map to.  Drop removes the row entirely:
# coercing inconclusive runs to a pass would silently dilute failure rates.
_ROLES = ("pass", "fail", "drop")


@dataclass(frozen=True)
class ColumnMapping:
    """Declarative description of an external results file.

    ``cycle_col`` etc. name header columns when ``has_header`` is true,
    otherwise they are 0-based column indices; :meth:`from_file` requires
    all four.  ``verdict_map`` sends every source token to one of
    ``pass|fail|drop`` (any case).  ``duration_unit_s`` converts recorded
    durations to seconds; ``clamp_min_duration_s`` (optional) lifts
    zero/negative durations up to a floor so files with truncated timings
    still satisfy the strictly-positive-duration invariant.
    """

    cycle_col: str = ""
    test_col: str = ""
    verdict_col: str = ""
    duration_col: str = ""
    verdict_map: dict[str, str] = field(default_factory=dict)
    delimiter: str = ","
    duration_unit_s: float = 1.0
    has_header: bool = True
    clamp_min_duration_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdict_map",
                           {token: role.lower() for token, role in self.verdict_map.items()})
        for token, role in self.verdict_map.items():
            if role not in _ROLES:
                raise ConfigError(
                    f"verdict_map.{token}: role must be one of {_ROLES}, got {role!r}"
                )
        if not self.verdict_map:
            raise ConfigError("verdict_map must declare at least one token")
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise ConfigError(f"delimiter must be one character, not a line break, "
                              f"got {self.delimiter!r}")

    @classmethod
    def from_config(cls, cfg: dict[str, str]) -> "ColumnMapping":
        return cfgmod.read_dataclass(cls, cfg)

    @classmethod
    def from_file(cls, path: str | Path) -> "ColumnMapping":
        mapping = cls.from_config(cfgmod.load_config(path))
        missing = [name for name in ("cycle_col", "test_col", "verdict_col", "duration_col")
                   if not getattr(mapping, name)]
        if missing:
            raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
        return mapping


def preset_mapping_path(name: str) -> Path:
    """Path of a bundled mapping preset (``abb`` or ``google``)."""
    path = Path(__file__).parent / "presets" / f"{name}.map"
    if not path.exists():
        raise ConfigError(f"no bundled mapping preset named {name!r}")
    return path


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic history generator.

    A seeded subset of tests is failure-prone (each test independently with
    probability ``base_failure_prob``).  Prone tests follow a two-state
    pass/fail Markov chain: P(fail | failed previous cycle) = ``persistence``
    and P(fail | passed previous cycle) = ``flip_prob``; setting the two
    equal yields independent per-cycle failures.  Healthy tests pass except
    for rare sporadic failures at ``noise_failure_prob`` per cycle.
    Durations are drawn uniformly in ``[duration_min_s, duration_max_s]``
    once per test and stay fixed.  If ``regime_shift_cycle`` is set, the
    failure roles (prone flags and current chain states) rotate across test
    ids by ``n_tests // 2`` at that cycle, so previously failing tests go
    quiet and a fresh set takes over - old history becomes misleading.
    ``regime_shift_period`` instead rotates the roles every that many
    cycles, modeling a codebase whose hot spots keep moving.
    """

    n_tests: int
    n_cycles: int
    base_failure_prob: float
    persistence: float = 0.9
    flip_prob: float = 0.05
    duration_min_s: float = 0.5
    duration_max_s: float = 2.0
    regime_shift_cycle: int | None = None
    regime_shift_period: int | None = None
    noise_failure_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.n_tests <= 0 or self.n_cycles <= 0:
            raise InvalidSpec("n_tests and n_cycles must be positive")
        for name in ("base_failure_prob", "persistence", "flip_prob",
                     "noise_failure_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise InvalidSpec(f"{name} must be in [0, 1], got {p}")
        if not (0.0 < self.duration_min_s <= self.duration_max_s):
            raise InvalidSpec("durations must satisfy 0 < min <= max")
        if self.regime_shift_cycle is not None and not (
            0 < self.regime_shift_cycle < self.n_cycles
        ):
            raise InvalidSpec("regime_shift_cycle must lie strictly inside the history")
        if self.regime_shift_period is not None and self.regime_shift_period <= 0:
            raise InvalidSpec("regime_shift_period must be positive")

    @classmethod
    def from_config(cls, cfg: dict[str, str]) -> "SyntheticSpec":
        return cfgmod.read_dataclass(cls, cfg)


@dataclass(frozen=True)
class DatasetStats:
    n_tests: int
    n_executions: int
    n_cycles: int
    failed_execution_fraction: float

    def as_dict(self) -> dict:
        return asdict(self)


def _read_bytes(stream: bytes | str | IO) -> bytes:
    """All of ``stream`` as UTF-8 bytes, line endings untouched, so every
    input kind parses the same."""
    data = stream if isinstance(stream, (bytes, str)) else stream.read()
    return data.encode("utf-8") if isinstance(data, str) else data


def _csv_records(text: str, delimiter: str = ",") -> Iterator[list[str]]:
    """The fields of each record of ``text``; LF, CRLF and CR all end a
    record, and a quoted field keeps its line breaks as they are.  A record
    the csv module rejects raises :class:`MalformedRow` with its number."""
    n = 0
    try:
        for n, row in enumerate(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter),
                                start=1):
            yield row
    except csv.Error as exc:
        raise MalformedRow(n + 1, str(exc)) from None


def _has_long_line(data: bytes, limit: int) -> bool:
    """Whether some line of ``data`` (bytes between line feeds) is longer
    than ``limit``: each step jumps to the last line feed within reach."""
    pos = 0
    while len(data) - pos > limit:
        end = data.rfind(b"\n", pos, pos + limit + 1)
        if end < 0:
            return True
        pos = end + 1
    return False


def _read_columns(data: bytes) -> ExecutionColumns | None:
    """The rows after the canonical header, read by numpy's C parser; None
    where only the row loop can give the exact result or error: see
    ``_ROW_LOOP_BYTES``, and a field the csv module finds too long, which
    only a line longer than its limit, or a quoted field that spans lines in
    an input longer than that limit, can hold."""
    head_end = data.find(b"\n")
    limit = csv.field_size_limit()
    if (head_end < 0 or not data.isascii() or any(b in data for b in _ROW_LOOP_BYTES)
            or tuple(f.strip() for f in data[:head_end].split(b",")) != _HEADER
            or not _ANY_ROW.search(data, head_end + 1)  # no rows: numpy would warn
            or _has_long_line(data, limit)):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(data), dtype=_ROW, delimiter=",", comments=None,
                          quotechar='"', skiprows=1, encoding="utf-8", ndmin=1)
    except ValueError:
        return None
    if b'"' in data and len(data) > limit and len(rows) < len(_LINE_END.findall(data, head_end)):
        return None  # a record spans lines: a quoted field may be too long
    tokens = rows["verdict"].copy()
    if tokens.view(np.uint8)[_TOKEN_BYTES - 1 :: _TOKEN_BYTES].any():
        return None  # a token may have been cut to _TOKEN_BYTES
    failed = tokens == b"fail"
    odd = ~(failed | (tokens == b"pass"))
    for token in np.unique(tokens[odd]):  # spellings other than "pass"/"fail"
        role = _VERDICTS.get(token.decode().strip().lower())
        if role is None:
            return None
        failed[tokens == token] = role
    return ExecutionColumns(rows["cycle"].copy(), rows["test"], failed, rows["duration"].copy())


def _parse_rows(text: str) -> ExecutionColumns:
    """The canonical rows of ``text``, read one by one; raises the first bad
    row's error."""
    records = _csv_records(text)
    header = next(records, None)
    if header is None:
        raise MalformedRow(1, "empty input")
    if tuple(h.strip() for h in header) != CANONICAL_HEADER:
        raise MalformedRow(1, f"expected header {','.join(CANONICAL_HEADER)}")
    cycle_ids, test_ids, failed, durations = array("q"), [], array("b"), array("d")
    for line_no, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise MalformedRow(line_no, f"expected 4 fields, got {len(row)}")
        cid_s, test_id, verdict_s, dur_s = row
        try:
            cycle_ids.append(int(cid_s))
        except (ValueError, OverflowError):  # OverflowError: beyond int64
            raise MalformedRow(line_no, f"bad cycle_id {cid_s!r}") from None
        role = _VERDICTS.get(verdict_s.strip().lower())
        if role is None:
            raise UnknownVerdictToken(line_no, verdict_s.strip())
        failed.append(role)
        try:
            durations.append(float(dur_s))
        except ValueError:
            raise MalformedRow(line_no, f"bad duration {dur_s!r}") from None
        test_ids.append(test_id)
    return ExecutionColumns(cycle_ids, test_ids, np.asarray(failed, dtype=bool), durations)


def parse_canonical(stream: bytes | str | IO) -> TestHistory:
    """Parse the canonical CSV format into a validated history.

    Header must be exactly ``cycle_id,test_id,verdict,duration_s``; verdict
    tokens are ``pass``/``fail`` (case-insensitive, surrounding blanks
    ignored).  README.md gives the full grammar.
    """
    data = _read_bytes(stream)
    return validate_history(_read_columns(data) or _parse_rows(data.decode("utf-8")))


def parse_external(stream: bytes | str | IO, mapping: ColumnMapping) -> TestHistory:
    """Parse an external results file driven by a :class:`ColumnMapping`.

    Rows whose verdict token maps to ``drop`` are excluded.  Duplicate
    (cycle, test) rows keep the last occurrence; the count is logged.
    """
    records = _csv_records(_read_bytes(stream).decode("utf-8"), mapping.delimiter)

    if mapping.has_header:
        try:
            header = [h.strip() for h in next(records)]
        except StopIteration:
            raise MalformedRow(1, "empty input") from None
        positions = {}
        for role, col in (
            ("cycle", mapping.cycle_col),
            ("test", mapping.test_col),
            ("verdict", mapping.verdict_col),
            ("duration", mapping.duration_col),
        ):
            if col not in header:
                raise MappingMismatch(
                    f"mapped {role} column {col!r} not found in header {header}"
                )
            positions[role] = header.index(col)
        first_row = 2
    else:
        try:
            positions = {
                "cycle": int(mapping.cycle_col),
                "test": int(mapping.test_col),
                "verdict": int(mapping.verdict_col),
                "duration": int(mapping.duration_col),
            }
            if min(positions.values()) < 0:
                raise ValueError("negative column index")
        except ValueError as exc:
            raise MappingMismatch(
                "columns must be non-negative integer indices when has_header is false"
            ) from exc
        first_row = 1

    needed = max(positions.values()) + 1
    cycle_ids, test_ids, failed, durations = array("q"), [], array("b"), array("d")
    for line_no, row in enumerate(records, start=first_row):
        if not row:
            continue
        if len(row) < needed:
            raise MalformedRow(line_no, f"expected >= {needed} fields, got {len(row)}")
        token = row[positions["verdict"]].strip()
        role = mapping.verdict_map.get(token)
        if role is None:
            raise UnknownVerdictToken(line_no, token)
        if role == "drop":
            continue
        try:
            cycle_ids.append(int(row[positions["cycle"]]))
        except (ValueError, OverflowError):  # OverflowError: beyond int64
            raise MalformedRow(line_no, f"bad cycle id {row[positions['cycle']]!r}") from None
        try:
            duration = float(row[positions["duration"]]) * mapping.duration_unit_s
        except ValueError:
            raise MalformedRow(
                line_no, f"bad duration {row[positions['duration']]!r}"
            ) from None
        if mapping.clamp_min_duration_s is not None:
            duration = max(duration, mapping.clamp_min_duration_s)
        test_ids.append(row[positions["test"]])
        failed.append(role == "fail")
        durations.append(duration)

    cycle_ids = np.asarray(cycle_ids)
    order = np.argsort(cycle_ids, kind="stable")
    keep: list[int] = []
    for rows in np.split(order, np.flatnonzero(np.diff(cycle_ids[order])) + 1):
        # one row per test: the last one's values at the first one's place
        keep.extend({test_ids[r]: r for r in rows.tolist()}.values())
    if len(keep) < len(test_ids):
        logger.warning("kept last occurrence of %d duplicate (cycle, test) rows",
                       len(test_ids) - len(keep))
    return validate_history(ExecutionColumns(
        cycle_ids[keep], np.asarray(test_ids, dtype=object)[keep],
        np.asarray(failed, dtype=bool)[keep], np.asarray(durations)[keep]))


def generate_synthetic(spec: SyntheticSpec, seed: int) -> TestHistory:
    """Deterministic synthetic history: a pure function of ``(spec, seed)``.

    Draw order (fixed so results never shift between runs): per-test
    durations, then prone roles, then the initial chain state, then one
    uniform per test per cycle.
    """
    rng = np.random.default_rng(seed)
    n, m = spec.n_tests, spec.n_cycles
    test_ids = tuple(f"T{i:04d}" for i in range(n))

    durations = rng.uniform(spec.duration_min_s, spec.duration_max_s, size=n)
    prone = rng.random(n) < spec.base_failure_prob

    # Start prone chains at their stationary fail probability so short
    # histories are not biased toward an all-pass prefix.
    denom = spec.flip_prob + (1.0 - spec.persistence)
    p0 = spec.flip_prob / denom if denom > 0 else 1.0
    failing = prone & (rng.random(n) < p0)

    cycles = []
    for c in range(m):
        shifts_now = (
            spec.regime_shift_cycle is not None and c == spec.regime_shift_cycle
        ) or (
            spec.regime_shift_period is not None
            and c > 0 and c % spec.regime_shift_period == 0
        )
        if shifts_now:
            shift = n // 2
            prone = np.roll(prone, shift)
            failing = np.roll(failing, shift)
        u = rng.random(n)
        p_fail = np.where(
            prone,
            np.where(failing, spec.persistence, spec.flip_prob),
            spec.noise_failure_prob,
        )
        failing = u < p_fail
        cycles.append(Cycle(c, test_ids, failing.copy(), durations.copy()))

    return validate_history(cycles)


def dataset_stats(h: TestHistory) -> DatasetStats:
    n_exec = h.n_executions
    n_fail = sum(int(c.failed.sum()) for c in h.cycles)
    return DatasetStats(
        n_tests=h.n_tests,
        n_executions=n_exec,
        n_cycles=h.n_cycles,
        failed_execution_fraction=(n_fail / n_exec) if n_exec else 0.0,
    )
