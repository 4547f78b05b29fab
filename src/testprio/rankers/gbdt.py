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
that scores every sorted position.  Two features share one cumsum over
complex numbers: complex addition adds the real and the imaginary parts
apart, so each part is the float cumsum bit for bit, and one sequential pass
serves both.  The threshold is the midpoint of the two values, or the lower
value when the midpoint rounds onto the upper one.

The build records the leaf each training row lands in, and the training
scores take the new tree's leaf values from there; the threshold rule makes
that the leaf :func:`apply_tree` routes the row to.

One record tree (:class:`_Node`) is carried from stage to stage.  A record
holds its node's per-feature sorted rows, their admissible cuts, the split
it chose and its two children.  A node's rows are a pure function of its
split path (the root's are the presorted orders), and its admissible cuts a
pure function of its rows.  So when a node picks the same ``(feature, cut)``
as the previous tree's node on the same path, its children reuse that
tree's row lists and admissible cuts instead of partitioning and searching
again, and every tree, leaf value and loss is the one a fresh build gives.
Only the residual gathers, prefix sums and gains are redone each stage.  A
split that differs replaces the old subtree at once, so at most one earlier
tree's records are held.

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


class _Node:
    """A grown node, kept for the next stage's tree."""

    __slots__ = ("rows", "cand", "split", "left", "right")

    def __init__(self, rows: list[np.ndarray]):
        self.rows = rows    # per-feature sorted rows; feature 0 only for a pair of leaves
        self.cand: list[np.ndarray] | None = None  # per-feature admissible cuts
        self.split: tuple[int, int] | None = None  # (feature, cut) chosen
        self.left: _Node | None = None
        self.right: _Node | None = None


class _TreeBuilder:
    def __init__(self, cols: np.ndarray, root: _Node,
                 residual: np.ndarray, hessian: np.ndarray,
                 max_depth: int, min_leaf: int):
        self.cols = cols            # (d, n): row f is feature f, shared across trees
        self.root = root            # the previous tree's records; updated in place
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
        num = self.residual.take(rows).sum()
        den = self.hessian.take(rows).sum() + _EPS_HESSIAN
        self.value[node] = float(num / den)
        self.leaf_of[rows] = node

    def _candidates(self, sorted_rows: list[np.ndarray]) -> list[np.ndarray]:
        """Per feature, the sorted positions i where a cut after i is
        admissible: between distinct values and with min_leaf rows on each
        side (n_left = i + 1)."""
        n = len(sorted_rows[0])
        out = []
        for f, rows in enumerate(sorted_rows):
            values = self.cols[f].take(rows)
            cand = np.flatnonzero(values[:-1] < values[1:])
            cand = cand[cand.searchsorted(self.min_leaf - 1):
                        cand.searchsorted(n - self.min_leaf)]
            out.append(cand)
        return out

    def _prefix_sums(self, rec: _Node, live: list[int]):
        """Yield (f, the residual prefix sums over rec.rows[f]) for each f in
        ``live``, in order.  Two features share one complex cumsum: its real
        and imaginary parts are two independent sequential float sums."""
        rows = rec.rows
        n = len(rows[0])
        idx = np.empty((n, 2), dtype=np.intp)
        for a, b in zip(live[0::2], live[1::2]):
            idx[:, 0] = rows[a]
            idx[:, 1] = rows[b]
            pair = self.residual.take(idx).view(np.complex128)
            both = pair.cumsum().view(np.float64).reshape(n, 2)
            yield a, both[:, 0]
            yield b, both[:, 1]
        if len(live) % 2:
            yield live[-1], self.residual.take(rows[live[-1]]).cumsum()

    def _best_split(self, rec: _Node):
        """Exact best (feature, cut index) by variance reduction; None when no
        admissible cut exists."""
        if rec.cand is None:
            rec.cand = self._candidates(rec.rows)
        n = len(rec.rows[0])
        best = None  # (gain, feature, cut_index)
        live = [f for f, cand in enumerate(rec.cand) if len(cand)]
        for f, prefix in self._prefix_sums(rec, live):
            cand = rec.cand[f]
            total = prefix[-1]
            n_left = cand + 1
            left_sum = prefix[cand]
            gain = left_sum**2 / n_left + (total - left_sum) ** 2 / (n - n_left)
            i = int(gain.argmax())
            base = total**2 / n
            if gain[i] - base <= 1e-12:  # no real variance reduction
                continue
            if best is None or gain[i] - base > best[0]:
                best = (gain[i] - base, f, int(cand[i]))
        return best

    def build(self) -> GbdtTree:
        root = self._new_node()
        self._grow(root, self.root, depth=0)
        return GbdtTree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )

    def _grows(self, n_rows: int, depth: int) -> bool:
        return depth < self.max_depth and n_rows >= 2 * self.min_leaf

    def _grow(self, node: int, rec: _Node, depth: int) -> None:
        sorted_rows = rec.rows
        rows = sorted_rows[0]
        found = self._best_split(rec) if self._grows(len(rows), depth) else None
        if found is None:
            rec.split = rec.left = rec.right = None
            self._leaf(node, rows)
            return
        _, f, cut = found
        if (f, cut) != rec.split:
            rec.left = rec.right = None  # frees the old subtree before the new one
            rec.split = (f, cut)
            rec.left, rec.right = self._partition(sorted_rows, f, cut, depth)
        split_rows = sorted_rows[f]
        lo, hi = self.cols[f][split_rows[cut]], self.cols[f][split_rows[cut + 1]]
        mid = (lo + hi) / 2.0
        # between adjacent doubles the midpoint can round onto hi, which
        # apply_tree would then send left
        threshold = mid if mid < hi else lo

        self.feature[node] = f
        self.threshold[node] = float(threshold)
        left = self._new_node()
        right = self._new_node()
        self.left[node] = left
        self.right[node] = right
        self._grow(left, rec.left, depth + 1)
        self._grow(right, rec.right, depth + 1)

    def _partition(self, sorted_rows: list[np.ndarray], f: int, cut: int,
                   depth: int) -> tuple[_Node, _Node]:
        # children keep each feature's sort order by filtering on membership
        # (np.compress: boolean indexing is several times slower on the
        # unpredictable masks); when both children will be leaves, they read
        # only feature 0
        n_left = cut + 1
        either_grows = (self._grows(n_left, depth + 1)
                        or self._grows(len(sorted_rows[0]) - n_left, depth + 1))
        in_left = np.zeros(len(self.residual), dtype=bool)
        in_left[sorted_rows[f][:n_left]] = True
        left_sorted, right_sorted = [], []
        for g, r in enumerate(sorted_rows if either_grows else sorted_rows[:1]):
            if g == f:
                left_sorted.append(r[:n_left])
                right_sorted.append(r[n_left:])
            else:
                mask = in_left.take(r)
                left_sorted.append(r.compress(mask))
                right_sorted.append(r.compress(~mask))
        return _Node(left_sorted), _Node(right_sorted)


def _weighted_logloss(pos: np.ndarray, p: np.ndarray, c: np.ndarray,
                      c_sum: float) -> float:
    """Class-weighted logloss; ``pos`` marks the positive rows and ``c_sum``
    is ``c.sum()``."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float((c * -np.log(np.where(pos, p, 1.0 - p))).sum() / c_sum)


def fit_gbdt(ts: TrainingSet, hp: GbdtParams = GbdtParams()) -> Model:
    if ts.single_class:
        return constant_model(RankerKind.GBDT, ts.config, ts.stats)

    # (d, n): one contiguous row per feature; the (n, d) matrix is not kept
    cols = np.ascontiguousarray(ts.standardized().T)
    y = ts.y
    pos = y > 0.5
    c = class_weights(y)
    c_sum = c.sum()

    rate = int(pos.sum()) / len(y)
    base = float(np.clip(np.log(rate / (1.0 - rate)), -10.0, 10.0))
    scores = np.full(len(y), base)
    p = _stable_sigmoid(scores)
    trace = [_weighted_logloss(pos, p, c, c_sum)]

    # one record tree, carried from stage to stage (see the module docstring)
    root = _Node([np.argsort(col, kind="stable") for col in cols])
    trees = []
    for _ in range(hp.n_estimators):
        residual = c * (y - p)
        hessian = c * p * (1.0 - p)
        builder = _TreeBuilder(cols, root, residual, hessian, hp.max_depth,
                               hp.min_samples_leaf)
        tree = builder.build()
        trees.append(tree)
        scores += hp.learning_rate * tree.value[builder.leaf_of]
        p = _stable_sigmoid(scores)  # the trace's and the next stage's
        trace.append(_weighted_logloss(pos, p, c, c_sum))

    payload = GbdtPayload(base_score=base, shrinkage=hp.learning_rate,
                          trees=tuple(trees), train_loss_trace=tuple(trace))
    return Model(kind=RankerKind.GBDT, payload=payload, stats=ts.stats, config=ts.config)
