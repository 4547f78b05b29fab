"""Reference GBDT fit for the tests: the straightforward exact tree build.

Every node evaluates the gain at every sorted position of every feature,
both children are filtered on every feature, and the training scores are
re-routed through :func:`apply_tree` after each stage.  ``fit_gbdt`` in
:mod:`testprio.rankers.gbdt` must serialize to the same bytes.
"""

from __future__ import annotations

import numpy as np

from testprio.features import TrainingSet
from testprio.rankers.base import (
    GbdtParams,
    GbdtPayload,
    GbdtTree,
    Model,
    RankerKind,
    _stable_sigmoid,
    apply_tree,
    constant_model,
)
from testprio.rankers.gbdt import _EPS_HESSIAN


def _weighted_logloss(y: np.ndarray, p: np.ndarray, c: np.ndarray) -> float:
    """Class-weighted logloss, both log terms for every row."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    losses = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float((c * losses).sum() / c.sum())


class ReferenceTreeBuilder:
    def __init__(self, X: np.ndarray, presorted: list[np.ndarray],
                 residual: np.ndarray, hessian: np.ndarray,
                 max_depth: int, min_leaf: int):
        self.X = X
        self.presorted = presorted
        self.residual = residual
        self.hessian = hessian
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

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

    def _best_split(self, sorted_rows: list[np.ndarray]):
        best = None  # (gain, feature, cut_index)
        for f, rows in enumerate(sorted_rows):
            n = len(rows)
            if n < 2 * self.min_leaf:
                break
            values = self.X[rows, f]
            r = self.residual[rows]
            prefix = np.cumsum(r)
            total = prefix[-1]
            n_left = np.arange(1, n)
            left_sum = prefix[:-1]
            gain = left_sum**2 / n_left + (total - left_sum) ** 2 / (n - n_left)
            ok = (
                (n_left >= self.min_leaf)
                & (n - n_left >= self.min_leaf)
                & (values[:-1] < values[1:])
            )
            if not ok.any():
                continue
            gain = np.where(ok, gain, -np.inf)
            i = int(np.argmax(gain))
            base = total**2 / n
            if gain[i] - base <= 1e-12:
                continue
            if best is None or gain[i] - base > best[0]:
                best = (gain[i] - base, f, i)
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

    def _grow(self, node: int, sorted_rows: list[np.ndarray], depth: int) -> None:
        rows = sorted_rows[0]
        if depth >= self.max_depth or len(rows) < 2 * self.min_leaf:
            self._leaf(node, rows)
            return
        found = self._best_split(sorted_rows)
        if found is None:
            self._leaf(node, rows)
            return
        _, f, cut = found
        split_rows = sorted_rows[f]
        lo, hi = self.X[split_rows[cut], f], self.X[split_rows[cut + 1], f]
        mid = (lo + hi) / 2.0
        threshold = mid if mid < hi else lo  # same rule as the fast build

        in_left = np.zeros(len(self.X), dtype=bool)
        in_left[split_rows[: cut + 1]] = True
        left_sorted = [r[in_left[r]] for r in sorted_rows]
        right_sorted = [r[~in_left[r]] for r in sorted_rows]

        self.feature[node] = f
        self.threshold[node] = float(threshold)
        left = self._new_node()
        right = self._new_node()
        self.left[node] = left
        self.right[node] = right
        self._grow(left, left_sorted, depth + 1)
        self._grow(right, right_sorted, depth + 1)


def reference_fit_gbdt(ts: TrainingSet, hp: GbdtParams = GbdtParams()) -> Model:
    if ts.single_class:
        return constant_model(RankerKind.GBDT, ts.config, ts.stats)

    X = ts.standardized()
    y = ts.y
    n_pos = int((y > 0.5).sum())
    c = np.where(y > 0.5, (len(y) - n_pos) / n_pos, 1.0)

    rate = n_pos / len(y)
    base = float(np.clip(np.log(rate / (1.0 - rate)), -10.0, 10.0))
    scores = np.full(len(y), base)
    trace = [_weighted_logloss(y, _stable_sigmoid(scores), c)]

    presorted = [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]
    trees = []
    for _ in range(hp.n_estimators):
        p = _stable_sigmoid(scores)
        residual = c * (y - p)
        hessian = c * p * (1.0 - p)
        tree = ReferenceTreeBuilder(X, presorted, residual, hessian, hp.max_depth,
                                    hp.min_samples_leaf).build()
        trees.append(tree)
        scores += hp.learning_rate * apply_tree(tree, X)
        trace.append(_weighted_logloss(y, _stable_sigmoid(scores), c))

    payload = GbdtPayload(base_score=base, shrinkage=hp.learning_rate,
                          trees=tuple(trees), train_loss_trace=tuple(trace))
    return Model(kind=RankerKind.GBDT, payload=payload, stats=ts.stats, config=ts.config)
