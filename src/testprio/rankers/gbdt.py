"""Gradient boosted regression trees on the class-weighted logistic loss.

Each stage fits a depth-limited regression tree to the negative gradients
(class-weighted residuals ``c*(y - p)``) using exact variance-reduction
splits, then takes a shrunken Newton step per leaf:

    leaf value = sum(residual) / (sum(c * p * (1-p)) + 1e-9)

Each node keeps, per feature, its rows in ascending feature order (stable,
so ties stay in row order).  The gain is evaluated only at the admissible
cuts: between two distinct adjacent values, with at least
``min_samples_leaf`` rows on each side.  The residual prefix sums stay one
sequential cumsum over the node's sorted rows, so a tree is the same as one
that scores every sorted position.  The threshold is the midpoint of the two
values, or the lower value when the midpoint rounds onto the upper one.

The build records the leaf each training row lands in, and the training
scores take the new tree's leaf values from there; the threshold rule makes
that the leaf :func:`apply_tree` routes the row to.

The training loss trace (weighted logloss after every stage, including the
initial constant model) is stored in the payload so the non-increasing
property can be checked after the fact.
"""

from __future__ import annotations

import numpy as np

from ..features import TrainingSet
from .base import (
    GbdtParams,
    GbdtPayload,
    GbdtTree,
    Model,
    RankerKind,
    _stable_sigmoid,
    class_weights,
    constant_model,
)

_EPS_HESSIAN = 1e-9


class _TreeBuilder:
    def __init__(self, cols: np.ndarray, presorted: list[np.ndarray],
                 residual: np.ndarray, hessian: np.ndarray,
                 max_depth: int, min_leaf: int):
        self.cols = cols            # (d, n): row f is feature f, shared across trees
        self.presorted = presorted  # per-feature row order, shared across trees
        self.residual = residual
        self.hessian = hessian
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.leaf_of = np.zeros(len(residual), dtype=np.int64)  # node each row reaches

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf(self, node: int, rows: np.ndarray) -> None:
        num = self.residual[rows].sum()
        den = self.hessian[rows].sum() + _EPS_HESSIAN
        self.value[node] = float(num / den)
        self.leaf_of[rows] = node

    def _best_split(self, sorted_rows: list[np.ndarray]):
        """Exact best (feature, threshold) by variance reduction; None when no
        admissible cut exists."""
        best = None  # (gain, feature, cut_index)
        for f, rows in enumerate(sorted_rows):
            n = len(rows)
            if n < 2 * self.min_leaf:
                break  # same n for every feature
            values = self.cols[f][rows]
            # a cut after sorted position i is admissible between distinct
            # values and with min_leaf rows on each side (n_left = i + 1)
            cand = np.flatnonzero(values[:-1] < values[1:])
            cand = cand[np.searchsorted(cand, self.min_leaf - 1):
                        np.searchsorted(cand, n - self.min_leaf)]
            if not len(cand):
                continue
            prefix = np.cumsum(self.residual[rows])
            total = prefix[-1]
            n_left = cand + 1
            left_sum = prefix[cand]
            gain = left_sum**2 / n_left + (total - left_sum) ** 2 / (n - n_left)
            i = int(np.argmax(gain))
            base = total**2 / n
            if gain[i] - base <= 1e-12:  # no real variance reduction
                continue
            if best is None or gain[i] - base > best[0]:
                best = (gain[i] - base, f, int(cand[i]))
        return best

    def build(self) -> GbdtTree:
        root = self._new_node()
        self._grow(root, self.presorted, depth=0)
        return GbdtTree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )

    def _grows(self, n_rows: int, depth: int) -> bool:
        return depth < self.max_depth and n_rows >= 2 * self.min_leaf

    def _grow(self, node: int, sorted_rows: list[np.ndarray], depth: int) -> None:
        rows = sorted_rows[0]
        if not self._grows(len(rows), depth):
            self._leaf(node, rows)
            return
        found = self._best_split(sorted_rows)
        if found is None:
            self._leaf(node, rows)
            return
        _, f, cut = found
        split_rows = sorted_rows[f]
        lo, hi = self.cols[f][split_rows[cut]], self.cols[f][split_rows[cut + 1]]
        mid = (lo + hi) / 2.0
        # between adjacent doubles the midpoint can round onto hi, which
        # apply_tree would then send left
        threshold = mid if mid < hi else lo

        # children keep each feature's sort order by filtering on membership
        # (np.compress: boolean indexing is several times slower on the
        # unpredictable masks); when both children will be leaves, they read
        # only feature 0
        n_left = cut + 1
        either_grows = (self._grows(n_left, depth + 1)
                        or self._grows(len(rows) - n_left, depth + 1))
        in_left = np.zeros(len(self.residual), dtype=bool)
        in_left[split_rows[:n_left]] = True
        left_sorted, right_sorted = [], []
        for g, r in enumerate(sorted_rows if either_grows else sorted_rows[:1]):
            if g == f:
                left_sorted.append(r[:n_left])
                right_sorted.append(r[n_left:])
            else:
                mask = in_left[r]
                left_sorted.append(np.compress(mask, r))
                right_sorted.append(np.compress(~mask, r))

        self.feature[node] = f
        self.threshold[node] = float(threshold)
        left = self._new_node()
        right = self._new_node()
        self.left[node] = left
        self.right[node] = right
        self._grow(left, left_sorted, depth + 1)
        self._grow(right, right_sorted, depth + 1)


def _weighted_logloss(y: np.ndarray, p: np.ndarray, c: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    losses = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float((c * losses).sum() / c.sum())


def fit_gbdt(ts: TrainingSet, hp: GbdtParams = GbdtParams()) -> Model:
    if ts.single_class:
        return constant_model(RankerKind.GBDT, ts.config, ts.stats)

    # (d, n): one contiguous row per feature; the (n, d) matrix is not kept
    cols = np.ascontiguousarray(ts.standardized().T)
    y = ts.y
    c = class_weights(y)

    rate = int((y > 0.5).sum()) / len(y)
    base = float(np.clip(np.log(rate / (1.0 - rate)), -10.0, 10.0))
    scores = np.full(len(y), base)
    p = _stable_sigmoid(scores)
    trace = [_weighted_logloss(y, p, c)]

    presorted = [np.argsort(col, kind="stable") for col in cols]
    trees = []
    for _ in range(hp.n_estimators):
        residual = c * (y - p)
        hessian = c * p * (1.0 - p)
        builder = _TreeBuilder(cols, presorted, residual, hessian, hp.max_depth,
                               hp.min_samples_leaf)
        tree = builder.build()
        trees.append(tree)
        scores += hp.learning_rate * tree.value[builder.leaf_of]
        p = _stable_sigmoid(scores)  # the trace's and the next stage's
        trace.append(_weighted_logloss(y, p, c))

    payload = GbdtPayload(base_score=base, shrinkage=hp.learning_rate,
                          trees=tuple(trees), train_loss_trace=tuple(trace))
    return Model(kind=RankerKind.GBDT, payload=payload, stats=ts.stats, config=ts.config)
