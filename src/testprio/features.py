"""Feature engineering: from a history window to feature matrices and
cycle-grouped training sets.

The feature layout for verdict window ``F`` (dimension ``d = F + 4``)::

    [ v_1 .. v_F,  presence_fraction,  failure_rate,  recency_score,  norm_duration ]

``v_j`` is 1.0 when the test failed in the j-th most recent cycle before the
reference cycle (pass or missing execution both give 0).  ``presence`` and
``failure_rate`` are computed over the cycles before the reference cycle
inside the window; the recency score is an exponentially decayed failure sum
over the same cycles (most recent weighted highest); ``norm_duration`` is the
test's registry mean duration divided by the registry maximum.

Features for a reference cycle are computed only from strictly earlier
cycles, so labels never leak into their own features.

There is one feature path, and it is vectorized: the window becomes
cumulative presence, failure and recency arrays (one row per window offset,
one column per registry code), and every feature row is gathered from them
at a (window offset, registry code) pair.  :func:`build_training_set`
gathers the rows of the tests that ran in each labeled cycle in one call;
:func:`feature_matrix` gathers the rows of the given codes as of one past
the window's end, for ranking.  A replay builds a window's arrays once and
hands them to both.  A code past the registry is a test that never ran.
Rows stay raw; a model applies its :class:`StandardizationStats` when it
scores them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import HistoryWindow
from .errors import AlphaOutOfRange, WindowTooSmall


@dataclass(frozen=True)
class FeatureConfig:
    verdict_window: int = 4        # F most recent verdicts kept as slots
    decay: float = 0.8             # recency weight alpha
    standardize: bool = True

    def __post_init__(self) -> None:
        if self.verdict_window <= 0:
            raise ValueError("verdict_window must be positive")
        if not (0.0 < self.decay < 1.0):
            raise AlphaOutOfRange(f"decay must be in (0, 1), got {self.decay}")

    @property
    def dimension(self) -> int:
        return self.verdict_window + 4


@dataclass(frozen=True)
class StandardizationStats:
    mean: np.ndarray  # (d,)
    std: np.ndarray   # (d,), zero-variance dimensions recorded as 1.0

    @property
    def dimension(self) -> int:
        return len(self.mean)


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Cycle-grouped labeled examples.

    ``X`` holds raw (unstandardized) feature rows; ``y`` the 0/1 labels
    (1 = failed in the labeled cycle); ``group_cycle_ids`` the labeled
    cycle id per example.  Examples of one group are contiguous and groups
    appear in chronological order.
    """

    X: np.ndarray                # (n, d) float64
    y: np.ndarray                # (n,) float64 in {0, 1}
    group_cycle_ids: np.ndarray  # (n,) int64
    stats: StandardizationStats
    config: FeatureConfig

    @property
    def n_examples(self) -> int:
        return len(self.y)

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    @property
    def single_class(self) -> bool:
        return len(np.unique(self.y)) < 2

    def standardized(self, out: np.ndarray | None = None) -> np.ndarray:
        """The rows standardized by ``stats``, into ``out`` when given."""
        return np.divide(np.subtract(self.X, self.stats.mean, out=out), self.stats.std, out=out)

    def group_slices(self) -> list[slice]:
        ids = self.group_cycle_ids
        starts = np.flatnonzero(np.diff(ids)) + 1
        bounds = np.concatenate(([0], starts, [len(ids)]))
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


class _WindowArrays:
    """Cumulative presence, failure and recency arrays for one window: rows
    = window offsets, columns = source registry tests, indexed by code."""

    def __init__(self, window: HistoryWindow, alpha: float):
        k, n = window.n_cycles, window.source.n_tests
        self.failed = np.zeros((k, n), dtype=bool)
        present = np.zeros((k, n), dtype=bool)
        for j, (cyc, idx) in enumerate(zip(window.cycles, window.codes)):
            present[j, idx] = True
            self.failed[j, idx] = cyc.failed

        # row j = count (or decayed score) over window rows < j;
        # recency obeys s_{j+1} = a*s_j + f_j
        self.cum_present = np.vstack(
            [np.zeros(n), np.cumsum(present, axis=0)]).astype(np.float64)
        self.cum_failed = np.vstack(
            [np.zeros(n), np.cumsum(self.failed, axis=0)]).astype(np.float64)
        self.recency = np.zeros((k + 1, n))
        for j in range(k):
            self.recency[j + 1] = alpha * self.recency[j] + self.failed[j]

        means = window.source.means
        self.norm_duration = means / means.max()
        self.unseen_duration = float(np.mean(means)) / float(means.max())

    def rows(self, offsets: np.ndarray, codes: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
        """Raw feature rows, one per (window offset, registry code) pair; row
        ``i`` uses window rows < ``offsets[i]`` only (every offset >= 1).  A
        code past the registry is a test that never ran: zero history, and
        the registry's normalized mean duration."""
        F = cfg.verdict_window
        n = self.failed.shape[1]
        known = codes < n
        codes = np.where(known, codes, 0)
        out = np.zeros((len(codes), cfg.dimension))
        for s in range(F):
            row = offsets - 1 - s
            out[:, s] = self.failed[np.maximum(row, 0), codes] & (row >= 0)
        pres = self.cum_present[offsets, codes]
        fails = self.cum_failed[offsets, codes]
        out[:, F] = pres / offsets
        out[:, F + 1] = np.divide(fails, pres, out=np.zeros(len(pres)), where=pres > 0)
        out[:, F + 2] = self.recency[offsets, codes]
        out[:, F + 3] = self.norm_duration[codes]
        out[~known] = 0.0
        out[~known, F + 3] = self.unseen_duration
        return out


def build_training_set(window: HistoryWindow, cfg: FeatureConfig,
                       arrays: _WindowArrays | None = None) -> TrainingSet:
    """One example per executed test per window cycle except the first
    (which is feature-only): features as of that cycle, label = failed in it.
    ``arrays``, when given, are the window's, built with ``cfg.decay``.
    """
    if window.n_cycles < 2:
        raise WindowTooSmall(f"need >= 2 cycles, window has {window.n_cycles}")

    labeled = window.cycles[1:]
    sizes = [len(cyc) for cyc in labeled]
    offsets = np.repeat(np.arange(1, window.n_cycles), sizes)
    if arrays is None:
        arrays = _WindowArrays(window, cfg.decay)
    X = arrays.rows(offsets, np.concatenate(window.codes[1:]), cfg)
    y = np.concatenate([cyc.failed for cyc in labeled]).astype(np.float64)
    groups = np.repeat(np.array([cyc.cycle_id for cyc in labeled], dtype=np.int64), sizes)
    stats = compute_stats(X) if cfg.standardize else StandardizationStats(
        mean=np.zeros(X.shape[1]), std=np.ones(X.shape[1])
    )
    return TrainingSet(X=X, y=y, group_cycle_ids=groups, stats=stats, config=cfg)


def training_rows(window: HistoryWindow) -> int:
    """The number of examples :func:`build_training_set` makes of
    ``window``, without building them (0 for a window too small)."""
    return sum(len(cyc) for cyc in window.cycles[1:])


def compute_stats(X: np.ndarray) -> StandardizationStats:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)  # zero-variance dims pass through
    return StandardizationStats(mean=mean, std=std)


def feature_matrix(window: HistoryWindow, codes: np.ndarray, cfg: FeatureConfig,
                   arrays: _WindowArrays | None = None) -> np.ndarray:
    """Raw feature rows for the tests with registry ``codes`` as of one past
    the window's end.  A code past the source registry (a test with no
    recorded run yet) gets all-zero history features and the registry's
    normalized mean duration.  ``arrays`` as in :func:`build_training_set`."""
    codes = np.asarray(codes, dtype=np.int64)
    offsets = np.full(len(codes), window.n_cycles)
    if arrays is None:
        arrays = _WindowArrays(window, cfg.decay)
    return arrays.rows(offsets, codes, cfg)
