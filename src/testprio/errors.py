"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`TestPrioError`, so
callers (and the CLI) can separate library failures from genuine bugs.
"""

from __future__ import annotations


class TestPrioError(Exception):
    """Base class for all errors raised by this package."""


# --- history / domain model -------------------------------------------------

class ValidationError(TestPrioError):
    """A test history (or candidate) violates a structural invariant."""


class EmptyHistory(ValidationError):
    pass


class EmptyCycle(ValidationError):
    pass


class DuplicateCycleId(ValidationError):
    """Cycle ids repeat or are not strictly increasing."""


class DuplicateTestInCycle(ValidationError):
    pass


class NonPositiveDuration(ValidationError):
    pass


class FractionOutOfRange(TestPrioError):
    pass


class NonPositiveBudget(TestPrioError):
    pass


# --- ingestion ----------------------------------------------------------------

class IngestError(TestPrioError):
    pass


class MalformedRow(IngestError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownVerdictToken(IngestError):
    def __init__(self, line_no: int, token: str):
        super().__init__(f"line {line_no}: unknown verdict token {token!r}")
        self.line_no = line_no
        self.token = token


class MappingMismatch(IngestError):
    pass


class InvalidSpec(IngestError):
    pass


class ConfigError(TestPrioError):
    """A key-value config file is malformed or has bad values."""


# --- features -----------------------------------------------------------------

class AlphaOutOfRange(TestPrioError):
    pass


class WindowTooSmall(TestPrioError):
    pass


class DimensionMismatch(TestPrioError):
    pass


# --- rankers ------------------------------------------------------------------

class NoRankableGroup(TestPrioError):
    """No training group contains both a failing and a passing example.
    ``sets`` are the positions, in a stacked fit's list of training sets,
    of the sets that have no such group."""

    def __init__(self, message: str, sets: tuple[int, ...] = ()):
        super().__init__(message)
        self.sets = sets


class ModelFormatError(TestPrioError):
    """A serialized model cannot be decoded."""


# --- replay / metrics / bench ---------------------------------------------------

class NoPriorHistory(TestPrioError):
    pass


class HistoryTooShort(TestPrioError):
    pass


class NoFaults(TestPrioError):
    pass


class PositionOutOfRange(TestPrioError):
    pass


class EmptyOutcomeList(TestPrioError):
    pass


class IncompleteGrid(TestPrioError):
    pass


class IoFailure(TestPrioError):
    pass
