import numpy as np
import pytest

from testprio.domain import history_prefix, slice_recent
from testprio.features import FeatureConfig, build_training_set
from testprio.rankers import GbdtParams, apply_tree, fit_gbdt, gbdt, score_matrix, serialize_model
from testprio.rankers.base import _stable_sigmoid
from testprio.rankers.gbdt import _Node, _TreeBuilder

from .conftest import toy_training_set
from .gbdt_reference import ReferenceTreeBuilder, reference_fit_gbdt


def _random_set(n, d, seed, pos_rate=0.4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (rng.random(n) < pos_rate).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return toy_training_set(X, y)


def _tied_set(n, seed):
    """Heavy ties: binary, quantized and constant columns, and two columns
    whose few low (high) rows allow a cut with as few as ``1 + seed % 6``
    rows on one side, so min_samples_leaf admits it on one side only."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.35).astype(float)
    y[:8] = 1.0
    k = 1 + seed % 6
    few_low = np.zeros(n)
    few_low[rng.choice(np.flatnonzero(y > 0.5), k, replace=False)] = -1.0
    few_high = np.zeros(n)
    few_high[rng.choice(np.flatnonzero(y > 0.5), k, replace=False)] = 1.0
    X = np.column_stack([
        np.logical_xor(y > 0.5, rng.random(n) < 0.3).astype(float),  # binary
        np.round(rng.normal(size=n) + y, 1),                           # quantized
        np.full(n, 2.0),                                               # constant
        few_low,
        few_high,
        rng.integers(0, 4, n).astype(float),
        rng.normal(size=n),
    ])
    return toy_training_set(X, y)


def _google_shaped_set(n, n_pos, seed):
    """A wide-history window: few failing rows, four binary columns and a
    duration-like column with thousands of distinct values."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    y[rng.choice(n, n_pos, replace=False)] = 1.0
    fails = y > 0.5
    X = np.column_stack([
        (rng.random(n) < np.where(fails, 0.7, 0.01)).astype(float),
        (rng.random(n) < np.where(fails, 0.5, 0.05)).astype(float),
        (rng.random(n) < 0.3).astype(float),
        (rng.random(n) < 0.02).astype(float),
        np.round(rng.lognormal(1.5, 0.8, n), 3),
    ])
    return toy_training_set(X, y)


def _leaf_nodes(tree, X):
    """Leaf node each row reaches, walked one row at a time."""
    out = []
    for x in X:
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(node)
    return np.array(out)


def _builder_inputs(X):
    cols = [np.ascontiguousarray(X[:, f]) for f in range(X.shape[1])]
    return cols, [np.argsort(col, kind="stable") for col in cols]


def _builder(X, residual, hessian, max_depth, min_leaf):
    cols, presorted = _builder_inputs(X)
    return _TreeBuilder(cols, _Node(presorted), residual, hessian, max_depth, min_leaf)


def brute_force_best_split(X, residual, min_leaf=2):
    """Exhaustive split-gain oracle over every feature and cut."""
    n, d = X.shape
    best = None
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        values = X[order, f]
        r = residual[order]
        for cut in range(min_leaf - 1, n - min_leaf):
            if values[cut] >= values[cut + 1]:
                continue
            left, right = r[: cut + 1], r[cut + 1 :]
            gain = left.sum() ** 2 / len(left) + right.sum() ** 2 / len(right)
            gain -= r.sum() ** 2 / n
            if best is None or gain > best[0] + 1e-15:
                best = (gain, f, (values[cut] + values[cut + 1]) / 2)
    return best


class TestTreeFitting:
    def test_single_stage_splits_at_sign_boundary(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=80)
        x = x[np.abs(x) > 0.1]
        y = (x > 0).astype(float)
        ts = toy_training_set(x[:, None], y)
        model = fit_gbdt(ts, GbdtParams(n_estimators=1))
        tree = model.payload.trees[0]
        assert tree.feature[0] == 0
        Xs = ts.standardized()
        threshold = tree.threshold[0]
        assert Xs[y == 0, 0].max() < threshold < Xs[y == 1, 0].min()

    def test_root_split_matches_exhaustive_oracle(self):
        ts = _random_set(40, 3, seed=5)
        model = fit_gbdt(ts, GbdtParams(n_estimators=1))
        tree = model.payload.trees[0]

        Xs = ts.standardized()
        y = ts.y
        n_pos = int(y.sum())
        c = np.where(y > 0.5, (len(y) - n_pos) / n_pos, 1.0)
        base = np.clip(np.log(y.mean() / (1 - y.mean())), -10, 10)
        p = _stable_sigmoid(np.full(len(y), base))
        residual = c * (y - p)

        expected = brute_force_best_split(Xs, residual)
        assert expected is not None
        assert tree.feature[0] == expected[1]
        assert tree.threshold[0] == pytest.approx(expected[2])

    def test_depth_limit_respected(self):
        ts = _random_set(300, 4, seed=6)
        model = fit_gbdt(ts, GbdtParams(n_estimators=5, max_depth=2))
        for tree in model.payload.trees:
            # depth-2 trees have at most 3 internal + 4 leaf nodes
            assert len(tree.feature) <= 7

    def test_min_samples_leaf(self):
        ts = _random_set(30, 2, seed=7)
        model = fit_gbdt(ts, GbdtParams(n_estimators=3, min_samples_leaf=5))
        Xs = ts.standardized()
        for tree in model.payload.trees:
            reached = np.bincount(_leaf_nodes(tree, Xs), minlength=len(tree.feature))
            for node in np.flatnonzero(tree.feature < 0):
                assert reached[node] >= 5

    def test_threshold_between_adjacent_doubles(self):
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi  # the midpoint rounds onto hi
        X = np.array([[lo], [lo], [hi], [hi]])
        ts = toy_training_set(X, np.array([1.0, 1.0, 0.0, 0.0]), standardize=False)
        model = fit_gbdt(ts, GbdtParams(n_estimators=1, max_depth=1, min_samples_leaf=1))
        assert lo <= model.payload.trees[0].threshold[0] < hi
        s = score_matrix(model, X)
        assert s[0] == s[1] > s[2] == s[3]

        residual = np.array([1.0, 1.0, -1.0, -1.0])
        builder = _builder(X, residual, np.ones(4), max_depth=1, min_leaf=1)
        tree = builder.build()
        assert np.array_equal(builder.leaf_of, _leaf_nodes(tree, X))
        assert np.array_equal(tree.value[builder.leaf_of], apply_tree(tree, X))

    def test_paired_prefix_sums_equal_float_cumsums(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 5))
        residual = rng.normal(size=500) * np.exp(rng.normal(0, 20, 500))
        builder = _builder(X, residual, np.ones(500), max_depth=1, min_leaf=1)
        rows = builder.root.rows
        for live in ([0, 1, 2, 3, 4], [1, 3], [2]):
            sums = list(builder._prefix_sums(builder.root, live))
            assert [f for f, _ in sums] == live
            for f, prefix in sums:
                assert prefix.tobytes() == np.cumsum(residual[rows[f]]).tobytes()


class TestMatchesReferenceBuild:
    """The fast build against the straightforward one in gbdt_reference."""

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 4])
    def test_fit_serializes_identically(self, min_leaf, max_depth):
        hp = GbdtParams(n_estimators=6, max_depth=max_depth, min_samples_leaf=min_leaf)
        for seed, n in [(0, 40), (1, 97), (4, 160), (5, 23)]:
            ts = _tied_set(n, seed)
            assert serialize_model(fit_gbdt(ts, hp)) == serialize_model(
                reference_fit_gbdt(ts, hp))

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
    def test_tree_and_build_leaves_match(self, min_leaf, max_depth):
        for seed in range(6):
            X = _tied_set(30 + 25 * seed, seed).standardized()
            rng = np.random.default_rng(seed)
            residual = np.round(rng.normal(size=len(X)), 1 + seed % 2)
            hessian = rng.random(len(X))
            builder = _builder(X, residual, hessian, max_depth, min_leaf)
            tree = builder.build()
            ref = ReferenceTreeBuilder(X, _builder_inputs(X)[1], residual, hessian,
                                       max_depth, min_leaf).build()
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(tree, name), getattr(ref, name)), name
            assert np.array_equal(builder.leaf_of, _leaf_nodes(tree, X))
            assert np.array_equal(tree.value[builder.leaf_of], apply_tree(tree, X))

    @pytest.mark.parametrize("fixture", ["persistent_history", "regime_shift_history"])
    def test_acceptance_windows(self, fixture, request):
        h = request.getfixturevalue(fixture)
        window = slice_recent(history_prefix(h, h.n_cycles - 1), 0.6)
        ts = build_training_set(window, FeatureConfig())
        hp = GbdtParams(n_estimators=40)
        assert serialize_model(fit_gbdt(ts, hp)) == serialize_model(
            reference_fit_gbdt(ts, hp))

    def test_google_shaped_window(self):
        ts = _google_shaped_set(4000, 14, seed=0)
        assert ts.y.mean() <= 0.005
        assert len(np.unique(ts.X[:, 4])) >= 2000
        hp = GbdtParams()
        assert serialize_model(fit_gbdt(ts, hp)) == serialize_model(
            reference_fit_gbdt(ts, hp))


class TestStageReuse:
    """A stage takes the previous tree's row lists where the split path
    repeats, and partitions afresh where it does not."""

    @staticmethod
    def _recorded_fit(ts, hp, monkeypatch):
        stages = []  # per stage: {path: (record, split, left rows, right rows)}

        class Recording(_TreeBuilder):
            def build(self):
                tree = super().build()
                grown, todo = {}, [((), self.root)]
                while todo:
                    path, rec = todo.pop()
                    if rec.split is not None:
                        grown[path] = (rec, rec.split, rec.left.rows, rec.right.rows)
                        todo += [(path + ("L",), rec.left), (path + ("R",), rec.right)]
                stages.append(grown)
                return tree

        monkeypatch.setattr(gbdt, "_TreeBuilder", Recording)
        model = fit_gbdt(ts, hp)
        return model, stages

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("max_depth", [2, 3, 4])
    def test_many_stage_fits_reuse_and_match_reference(self, min_leaf, max_depth,
                                                       monkeypatch):
        hp = GbdtParams(n_estimators=60, max_depth=max_depth, min_samples_leaf=min_leaf)
        kept, fresh = {0: 0, 1: 0}, {0: 0, 1: 0}  # by level: root, below it
        # the tied set's root split changes often; the sparse one's never
        for ts in (_tied_set(120, 0), _google_shaped_set(600, 3, seed=1)):
            model, stages = self._recorded_fit(ts, hp, monkeypatch)
            assert serialize_model(model) == serialize_model(reference_fit_gbdt(ts, hp))
            for before, after in zip(stages, stages[1:]):
                for path, (rec, split, left, right) in after.items():
                    if path not in before or before[path][0] is not rec:
                        continue  # an ancestor's split changed: a new record
                    _, old_split, old_left, old_right = before[path]
                    level = min(len(path), 1)
                    if split == old_split:
                        assert left is old_left and right is old_right
                        kept[level] += 1
                    else:
                        assert left is not old_left and right is not old_right
                        fresh[level] += 1
        assert kept[0] and fresh[0] and kept[1] and fresh[1]


class TestLossTrace:
    def test_non_increasing_on_random_sets(self):
        for seed in range(6):
            ts = _random_set(120, 4, seed=seed, pos_rate=0.15 + 0.1 * seed)
            model = fit_gbdt(ts, GbdtParams(n_estimators=40))
            trace = np.array(model.payload.train_loss_trace)
            assert len(trace) == 41
            assert np.all(np.diff(trace) <= 1e-12)

    def test_trace_starts_at_base_model_loss(self):
        ts = _random_set(60, 3, seed=9)
        model = fit_gbdt(ts, GbdtParams(n_estimators=0))
        trace = model.payload.train_loss_trace
        assert len(trace) == 1
        y = ts.y
        n_pos = y.sum()
        c = np.where(y > 0.5, (len(y) - n_pos) / n_pos, 1.0)
        p = np.full(len(y), y.mean())
        expected = float(
            (c * -(y * np.log(p) + (1 - y) * np.log(1 - p))).sum() / c.sum()
        )
        assert trace[0] == pytest.approx(expected)


class TestGbdtBehavior:
    def test_learns_separable_problem(self):
        rng = np.random.default_rng(10)
        y = (rng.random(200) < 0.3).astype(float)
        X = rng.normal(size=(200, 4))
        X[:, 1] += np.where(y > 0.5, 2.0, -2.0)
        ts = toy_training_set(X, y)
        model = fit_gbdt(ts)
        scores = score_matrix(model, ts.X)
        assert np.all((scores > 0) == (y > 0.5))

    def test_single_class_degenerates(self):
        ts = toy_training_set(np.zeros((5, 2)), np.ones(5))
        assert fit_gbdt(ts).degenerate

    def test_deterministic(self):
        from testprio.rankers import serialize_model

        ts = _random_set(80, 3, seed=11)
        assert serialize_model(fit_gbdt(ts)) == serialize_model(fit_gbdt(ts))
