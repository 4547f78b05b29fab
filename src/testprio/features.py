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
presence/failure matrices (one row per window cycle, one column per test
code), and each reference cycle's features are read from their cumulative
sums for every test at once.  :func:`build_training_set` stacks the rows
of the tests that ran in each labeled cycle; :func:`feature_matrix` gives
the rows as of one past the window's end, for ranking.  Rows stay raw;
a model applies its :class:`StandardizationStats` when it scores them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config as cfgmod
from .domain import HistoryWindow
from .errors import AlphaOutOfRange, UnknownTest, WindowTooSmall


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

    @classmethod
    def from_config(cls, cfg: dict[str, str]) -> "FeatureConfig":
        return cls(
            verdict_window=cfgmod.get_int(cfg, "verdict_window", 4),
            decay=cfgmod.get_float(cfg, "decay", 0.8),
            standardize=cfgmod.get_bool(cfg, "standardize", True),
        )


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

    def standardized(self) -> np.ndarray:
        return (self.X - self.stats.mean) / self.stats.std

    def group_slices(self) -> list[slice]:
        ids = self.group_cycle_ids
        starts = np.flatnonzero(np.diff(ids)) + 1
        bounds = np.concatenate(([0], starts, [len(ids)]))
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


class _WindowArrays:
    """Presence/failure matrices for one window: rows = window cycles,
    columns = source registry tests, indexed by test code."""

    def __init__(self, window: HistoryWindow):
        k, n = window.n_cycles, window.source.n_tests
        self.present = np.zeros((k, n), dtype=bool)
        self.failed = np.zeros((k, n), dtype=bool)
        for j, (cyc, idx) in enumerate(zip(window.cycles, window.codes)):
            self.present[j, idx] = True
            self.failed[j, idx] = cyc.failed

        # prefix[j] = count over rows < j; recency obeys s_{j+1} = a*s_j + f_j
        self.cum_present = np.vstack(
            [np.zeros(n), np.cumsum(self.present, axis=0)]).astype(np.float64)
        self.cum_failed = np.vstack(
            [np.zeros(n), np.cumsum(self.failed, axis=0)]).astype(np.float64)

        means = window.source.means
        self.norm_duration = means / means.max()

    def recency_scores(self, alpha: float) -> np.ndarray:
        """(k+1, n): row j = decayed failure score as of window offset j."""
        k, n = self.failed.shape
        scores = np.zeros((k + 1, n))
        for j in range(k):
            scores[j + 1] = alpha * scores[j] + self.failed[j]
        return scores

    def features_as_of(self, offset: int, cfg: FeatureConfig,
                       recency: np.ndarray) -> np.ndarray:
        """(n, d) raw feature matrix as of window offset ``offset`` (features
        use rows < offset only)."""
        F = cfg.verdict_window
        k, n = self.failed.shape
        out = np.zeros((n, cfg.dimension))
        for s in range(F):
            row = offset - 1 - s
            if row >= 0:
                out[:, s] = self.failed[row]
        if offset > 0:
            pres = self.cum_present[offset]
            fails = self.cum_failed[offset]
            out[:, F] = pres / offset
            out[:, F + 1] = np.divide(fails, pres, out=np.zeros(n), where=pres > 0)
            out[:, F + 2] = recency[offset]
        out[:, F + 3] = self.norm_duration
        return out


def build_training_set(window: HistoryWindow, cfg: FeatureConfig) -> TrainingSet:
    """One example per executed test per window cycle except the first
    (which is feature-only): features as of that cycle, label = failed in it.
    """
    if window.n_cycles < 2:
        raise WindowTooSmall(f"need >= 2 cycles, window has {window.n_cycles}")

    arrays = _WindowArrays(window)
    recency = arrays.recency_scores(cfg.decay)

    xs, ys, gids = [], [], []
    for offset, (cyc, idx) in enumerate(zip(window.cycles[1:], window.codes[1:]), start=1):
        feats = arrays.features_as_of(offset, cfg, recency)
        xs.append(feats[idx])
        ys.append(cyc.failed.astype(np.float64))
        gids.append(np.full(len(cyc), cyc.cycle_id, dtype=np.int64))

    X = np.vstack(xs)
    y = np.concatenate(ys)
    groups = np.concatenate(gids)
    stats = compute_stats(X) if cfg.standardize else StandardizationStats(
        mean=np.zeros(X.shape[1]), std=np.ones(X.shape[1])
    )
    return TrainingSet(X=X, y=y, group_cycle_ids=groups, stats=stats, config=cfg)


def compute_stats(X: np.ndarray) -> StandardizationStats:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)  # zero-variance dims pass through
    return StandardizationStats(mean=mean, std=std)


def feature_matrix(window: HistoryWindow, test_ids: Sequence[str], cfg: FeatureConfig,
                   fallback_norm_duration: float | None = None) -> np.ndarray:
    """Raw feature rows for ``test_ids`` as of one past the window's end,
    gathered by each test's registry code.

    Tests absent from the source registry get all-zero history features and
    ``fallback_norm_duration`` as the duration component (they have no
    recorded runs yet); passing ``None`` makes unknown tests an error.
    """
    arrays = _WindowArrays(window)
    recency = arrays.recency_scores(cfg.decay)
    feats = arrays.features_as_of(window.n_cycles, cfg, recency)

    n = len(feats)
    code_of = dict(zip(window.source.test_ids, range(n)))
    codes = np.fromiter((code_of.get(tid, n) for tid in test_ids), np.int64, len(test_ids))
    out = feats.take(codes, axis=0, mode="clip")
    unknown = codes == n
    if unknown.any():
        if fallback_norm_duration is None:
            raise UnknownTest(test_ids[int(np.argmax(unknown))])
        out[unknown] = 0.0
        out[unknown, cfg.verdict_window + 3] = fallback_norm_duration
    return out
