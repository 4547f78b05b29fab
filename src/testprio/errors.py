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
    """The LambdaRank gradient check was given a group without both a
    failing and a passing example.  A fit never raises it: a training set
    with no such group gets a flagged constant model."""


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
