"""Gradient and learning checks for the two neural rankers.

Gradient oracle: central finite differences of the training loss, step
1e-5.  Relative error |a - f| / max(|a| + |f|, 1e-6) must stay below 1e-4.
ReLU makes the loss non-differentiable on a measure-zero set; the sampled
inputs are continuous, so kinks are avoided with probability one.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from testprio.rankers import (
    FITTERS,
    AnnParams,
    LrnParams,
    RankerKind,
    SvmParams,
    ann_loss_and_grads,
    constant_model,
    fit_ann,
    fit_lambdarank,
    fit_svm,
    lambdarank_cost_and_grads,
    score_matrix,
    serialize_model,
    with_seed,
)
from testprio.rankers import nets
from testprio.rankers.base import _stable_sigmoid, class_weights
from testprio.rankers.nets import (
    _SELECT_ROWS,
    _Net,
    _forward_blocks,
    _gains,
    _ideal_dcg,
    _init_flat,
    _layer_views,
    _rankable_groups,
    _ranks_matrix,
    _run_lambdas,
    _stacked_lambdas,
    _unstack,
)

from .conftest import toy_training_set
from .oracles import _group_lambdas

STEP = 1e-5
REL_TOL = 1e-4


def _init_stacked(seed, restarts, sizes):
    """One fit's initial layers, stacked over its restarts."""
    return _layer_views(_init_flat([seed], restarts, sizes), restarts, sizes)


def _random_layers(rng, sizes):
    return [
        (rng.normal(0, 0.6, size=(fan_in, fan_out)), rng.normal(0, 0.3, size=fan_out))
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    ]


def _rel_err(a: float, f: float) -> float:
    return abs(a - f) / max(abs(a) + abs(f), 1e-6)


def _check_gradients(loss_fn, layers, samples_per_layer=4) -> int:
    """Compare analytic grads with central differences on random coordinates;
    returns the number of coordinates checked."""
    _, grads = loss_fn(layers)
    rng = np.random.default_rng(0)
    checked = 0
    for li, (W, b) in enumerate(layers):
        for arr, garr in ((W, grads[li][0]), (b, grads[li][1])):
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=min(samples_per_layer, flat.size),
                                  replace=False):
                old = flat[idx]
                flat[idx] = old + STEP
                up, _ = loss_fn(layers)
                flat[idx] = old - STEP
                down, _ = loss_fn(layers)
                flat[idx] = old
                fd = (up - down) / (2 * STEP)
                analytic = garr.reshape(-1)[idx]
                assert _rel_err(analytic, fd) <= REL_TOL, (
                    f"layer {li}: analytic {analytic} vs fd {fd}"
                )
                checked += 1
    return checked


class TestAnnGradients:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        total = 0
        for trial in range(8):
            n, d = 12, 4
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            cw = np.where(y > 0.5, (len(y) - y.sum()) / y.sum(), 1.0)
            layers = _random_layers(rng, (d, 5, 3, 1))
            total += _check_gradients(
                lambda ls: ann_loss_and_grads(ls, X, y, cw), layers
            )
        assert total >= 100

    def test_loss_is_weighted_mse(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 3))
        y = np.array([1.0, 0, 0, 1, 0, 0])
        cw = np.ones(6)
        layers = _random_layers(rng, (3, 4, 2, 1))
        loss, _ = ann_loss_and_grads(layers, X, y, cw)
        # recompute independently layer by layer
        act = X
        for i, (W, b) in enumerate(layers):
            act = act @ W + b
            if i < len(layers) - 1:
                act = np.maximum(act, 0)
        out = 1 / (1 + np.exp(-act[:, 0]))
        assert loss == pytest.approx(np.mean((out - y) ** 2))


class TestAnnTraining:
    def test_learns_xor_pattern(self):
        # checkerboard labels; threshold fixed by pilot run of this exact
        # configuration (seed 0 -> final weighted MSE ~= 0.01)
        rng = np.random.default_rng(0)
        corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        idx = rng.integers(0, 4, size=240)
        X = corners[idx] + rng.normal(0, 0.05, size=(240, 2))
        y = labels[idx]
        ts = toy_training_set(X, y)
        model = fit_ann([ts], [AnnParams(epochs=300, learning_rate=0.05, restarts=5, seed=0)])[0]
        out = score_matrix(model, ts.X)
        assert np.mean((out - y) ** 2) < 0.05

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = (rng.random(40) < 0.3).astype(float)
        if y.min() == y.max():
            y[0] = 1.0
        ts = toy_training_set(X, y)
        hp = AnnParams(epochs=5, restarts=3, seed=21)
        assert serialize_model(fit_ann([ts], [hp])[0]) == serialize_model(fit_ann([ts], [hp])[0])

    def test_single_class_degenerates(self):
        ts = toy_training_set(np.zeros((6, 2)), np.zeros(6))
        assert fit_ann([ts], [AnnParams()])[0].degenerate


class TestLambdaGradients:
    def test_gradients_match_finite_differences_with_frozen_dndcg(self):
        rng = np.random.default_rng(7)
        total = 0
        for trial in range(8):
            m, d = 10, 4
            X = rng.normal(size=(m, d))
            y = np.zeros(m)
            y[rng.choice(m, size=3, replace=False)] = 1.0
            layers = _random_layers(rng, (d, 5, 3, 1))
            _, _, delta = lambdarank_cost_and_grads(layers, X, y)

            def loss_fn(ls):
                cost, grads, _ = lambdarank_cost_and_grads(ls, X, y, frozen_delta=delta)
                return cost, grads

            total += _check_gradients(loss_fn, layers)
        assert total >= 100

    def test_lambda_sign_at_equal_scores(self):
        # analytic oracle: s_i == s_j gives lambda_ij = -0.5 |dNDCG|; descent
        # then pushes the relevant score up and the irrelevant one down
        s = np.zeros((1, 1, 2))  # one group, one restart
        take = np.array([0, 1])[None, :, None]  # the positive, then the negative
        idcg = _ideal_dcg(1)
        dc, delta, _ = _stacked_lambdas(s, take, 1, sigma=1.0, idcg=idcg, gains=_gains(2))
        expected = abs(1.0 / np.log2(2.0) - 1.0 / np.log2(3.0)) / idcg
        assert dc[0, 0, 0] == pytest.approx(-0.5 * expected)
        assert dc[0, 0, 1] == pytest.approx(+0.5 * expected)
        assert delta[0, 0, 0, 0] == pytest.approx(expected)

    def test_the_check_and_a_lone_group_run_the_stacked_pass(self, monkeypatch):
        # the gradient the checks verify comes from the pass that trains,
        # also for a fit whose every step has a lone group
        passes = []
        stacked = nets._stacked_lambdas
        monkeypatch.setattr(nets, "_stacked_lambdas",
                            lambda s, *rest, **kw: passes.append(s.shape) or stacked(s, *rest, **kw))
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(6, 4)), np.array([1.0, 0, 0, 1, 0, 0])
        lambdarank_cost_and_grads(_random_layers(rng, (4, 5, 3, 1)), X, y)
        assert passes == [(1, 1, 6)]
        passes.clear()
        fit_lambdarank([toy_training_set(X, y)], [LrnParams(hidden1=5, hidden2=3, epochs=2,
                                                            restarts=2)])
        assert passes == [(1, 2, 6)] * 2


class TestLambdaTraining:
    def test_positive_ends_up_ranked_first(self):
        # one group, one positive among 5
        rng = np.random.default_rng(9)
        X = rng.normal(size=(5, 3))
        y = np.array([0.0, 0, 1, 0, 0])
        ts = toy_training_set(X, y)
        model = fit_lambdarank([ts], [LrnParams(epochs=200, restarts=4, seed=2)])[0]
        scores = score_matrix(model, ts.X)
        assert int(np.argmax(scores)) == 2

    def test_all_negative_group_contributes_nothing(self):
        # two groups under identical (identity) standardization; the all-pass
        # group must leave the fit bitwise unchanged
        rng = np.random.default_rng(11)
        X1 = rng.normal(size=(6, 3))
        y1 = np.array([1.0, 0, 0, 1, 0, 0])
        X_noise = rng.normal(size=(4, 3))
        hp = LrnParams(epochs=30, restarts=2, seed=4)
        lone, = fit_lambdarank([toy_training_set(X1, y1, standardize=False)], [hp])
        both, = fit_lambdarank(
            [toy_training_set(
                np.vstack([X1, X_noise]),
                np.concatenate([y1, np.zeros(4)]),
                groups=np.concatenate([np.zeros(6), np.ones(4)]),
                standardize=False,
            )],
            [hp],
        )
        probes = rng.normal(size=(8, 3))
        assert np.array_equal(score_matrix(lone, probes), score_matrix(both, probes))

    def test_no_rankable_group_degenerates(self):
        # the constant model of an unrankable set: zero mean and unit std,
        # not the set's own standardization
        ts = toy_training_set(np.arange(8.0).reshape(4, 2), np.zeros(4))  # stats not 0 / 1
        model, = fit_lambdarank([ts], [LrnParams()])
        assert model.degenerate
        d = ts.config.dimension
        assert np.array_equal(model.stats.mean, np.zeros(d))
        assert np.array_equal(model.stats.std, np.ones(d))
        assert serialize_model(model) == serialize_model(constant_model(RankerKind.LRN, ts.config))

    def test_ranks_tie_break_by_index(self):
        ranks = _ranks_matrix(np.array([[0.5, 0.9, 0.5]]))
        assert ranks[0].tolist() == [2, 1, 3]


class TestStackedFits:
    """Training sets fitted in one call give the bytes each gives alone,
    whatever their row counts, batch remainders and group widths."""

    BATCH = 16
    ROWS = (21, 53, 9, 45)  # remainders 5, 5, a set under one batch, 13

    @classmethod
    def _sets(cls, F):
        tss = []
        for j, n in enumerate(cls.ROWS[:F]):
            rng = np.random.default_rng(j)
            X = rng.normal(size=(n, 4))
            y = (rng.random(n) < 0.3).astype(float)
            y[:2] = 1.0, 0.0
            tss.append(toy_training_set(X, y, groups=np.arange(n) // (3 + 2 * j)))
        return tss

    @staticmethod
    def _bytes(models):
        return [serialize_model(m) for m in models]

    HPS = {
        RankerKind.SVM: SvmParams(epochs=3, batch_size=BATCH),
        RankerKind.ANN: AnnParams(hidden1=6, hidden2=3, epochs=3, batch_size=BATCH, restarts=2),
        RankerKind.LRN: LrnParams(hidden1=6, hidden2=3, epochs=3, restarts=2),
    }

    @pytest.mark.parametrize("F", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", [RankerKind.SVM, RankerKind.ANN, RankerKind.LRN])
    def test_stacked_fits_equal_lone_fits(self, kind, F):
        tss = self._sets(F)
        ps = [with_seed(self.HPS[kind], 40 + j) for j in range(F)]
        alone = [FITTERS[kind]([ts], [p])[0] for ts, p in zip(tss, ps)]
        assert self._bytes(FITTERS[kind](tss, ps)) == self._bytes(alone)

    @pytest.mark.parametrize("kind", [RankerKind.SVM, RankerKind.ANN])
    def test_single_class_set_among_stacked_fits(self, kind):
        tss = self._sets(3)
        tss[1] = toy_training_set(np.ones((7, 4)), np.zeros(7))
        ps = [with_seed(self.HPS[kind], s) for s in (1, 2, 3)]
        models = FITTERS[kind](tss, ps)
        assert [m.degenerate for m in models] == [False, True, False]
        assert self._bytes(models) == self._bytes(
            [FITTERS[kind]([ts], [p])[0] for ts, p in zip(tss, ps)])

    def test_unrankable_sets_degrade_in_the_lrn_call(self):
        unrankable = toy_training_set(np.ones((5, 4)), np.zeros(5))
        tss = [unrankable] + self._sets(2) + [unrankable]
        ps = [with_seed(self.HPS[RankerKind.LRN], s) for s in range(4)]
        models = fit_lambdarank(tss, ps)
        assert [m.degenerate for m in models] == [True, False, False, True]
        constant = serialize_model(constant_model(RankerKind.LRN, unrankable.config))
        assert self._bytes(models) == [constant] + self._bytes(
            [fit_lambdarank([ts], [p])[0] for ts, p in zip(tss[1:3], ps[1:3])]) + [constant]

    def test_lrn_groups_of_one_shape_share_a_lambda_pass(self, monkeypatch):
        # five fits whose groups all have width 6 and one or two failures:
        # at each step the groups with one failure count take one pass
        passes = []
        stacked = nets._stacked_lambdas
        monkeypatch.setattr(nets, "_stacked_lambdas",
                            lambda s, *rest, **kw: passes.append(len(s)) or stacked(s, *rest, **kw))
        tss = []
        for j in range(5):
            rng = np.random.default_rng(50 + j)
            y = np.zeros(36)
            y[np.arange(0, 36, 6) + rng.integers(0, 6, 6)] = 1.0
            y[np.arange(3, 36, 12)] = 1.0
            tss.append(toy_training_set(rng.normal(size=(36, 4)), y,
                                        groups=np.arange(36) // 6))
        ps = [with_seed(self.HPS[RankerKind.LRN], 60 + j) for j in range(5)]
        alone = [fit_lambdarank([ts], [p])[0] for ts, p in zip(tss, ps)]
        passes.clear()
        assert self._bytes(fit_lambdarank(tss, ps)) == self._bytes(alone)
        assert passes and max(passes) > 2

    @pytest.mark.parametrize("other", [
        AnnParams(seed=1, epochs=3), AnnParams(seed=1, restarts=2),
        SvmParams(seed=1, l2=1e-3), SvmParams(seed=1, batch_size=8)])
    def test_fits_must_differ_only_in_seed(self, other):
        kind = RankerKind.ANN if isinstance(other, AnnParams) else RankerKind.SVM
        with pytest.raises(ValueError):
            FITTERS[kind](self._sets(2), [type(other)(seed=0), other])

    def test_empty_call_fits_nothing(self):
        assert fit_ann([], []) == [] and fit_lambdarank([], []) == [] and fit_svm([], []) == []

    def test_stacked_matmul_equals_each_fits_own(self):
        # fit_svm takes every fit's margins in one stacked matmul; each must
        # be the bits of that fit's own matrix-vector product
        rng = np.random.default_rng(31)
        for _ in range(3000):
            c, m, d = rng.integers(1, 8), rng.integers(1, 80), rng.integers(1, 12)
            Xb, w = rng.normal(size=(c, m, d)), rng.normal(size=(c, d)) * 10.0 ** rng.integers(-3, 4)
            stacked = np.matmul(Xb, w[..., None])[..., 0]
            assert all(np.array_equal(stacked[k], Xb[k] @ w[k]) for k in range(c))


class TestLambdaSummationOrder:
    """One lambda pass over one group or several gives each group the bits
    that the oracle ``_group_lambdas`` gives it alone: both sums over pairs
    run in its order, whatever the widths, failure counts and restarts."""

    @staticmethod
    def _run(rng, m, R, k):
        """A run of k groups of width m with mixed failure counts, and their
        scores: some tied, some far enough apart that exp overflows."""
        y = np.zeros(k * m)
        for i in range(k):
            y[i * m + rng.choice(m, int(rng.integers(1, min(3, m - 1) + 1)), replace=False)] = 1.0
        ts = toy_training_set(np.zeros((k * m, 2)), y, groups=np.arange(k * m) // m)
        s = rng.normal(size=(k, R, m)) * rng.choice([1.0, 50.0, 900.0])
        s[rng.random(s.shape) < 0.3] = 0.25  # ties
        return _rankable_groups(ts, R), s

    def _check(self, seed, R, groups):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            m = int(rng.integers(3, 51))
            run, s = self._run(rng, m, R, groups(rng))
            sigma, gains = float(rng.choice([1.0, 2.5])), _gains(m + int(rng.integers(0, 5)))
            dz = np.full(s.shape, np.nan)
            with np.errstate(over="ignore"):
                _run_lambdas(s, run, sigma, gains, dz)
                for i, (_, _, pos, idcg, _) in enumerate(run):
                    neg = np.setdiff1d(np.arange(m), pos)
                    alone = _group_lambdas(s[i], pos, neg, sigma, idcg, gains)[0]
                    assert np.array_equal(dz[i], alone)
                    assert np.array_equal(np.signbit(dz[i]), np.signbit(alone))

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_one_pass_equals_each_groups_own(self, R):
        self._check(R, R, lambda rng: int(rng.integers(2, 7)))

    @pytest.mark.parametrize("R", [1, 2, 3, 4])
    def test_a_lone_groups_pass_equals_its_own(self, R):
        self._check(100 + R, R, lambda rng: 1)


class TestTrainingAppliesCheckedGradient:
    """One full-batch step of a single-restart fit equals the initial layers
    minus lr times the gradient that the finite-difference checks verify.
    The ann batch is a permutation of the rows, so sums run in another order;
    hence rtol rather than equality."""

    @staticmethod
    def _init(seed):
        return _unstack(_init_stacked(seed, 1, (4, 6, 3, 1)), 0)

    @staticmethod
    def _assert_step(model, init, lr, grads):
        for (W, b), (W0, b0), (dW, db) in zip(model.payload.layers, init, grads):
            np.testing.assert_allclose(W, W0 - lr * dW, rtol=1e-12)
            np.testing.assert_allclose(b, b0 - lr * db, rtol=1e-12)

    def test_ann_step_is_checked_gradient(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 4))
        y = np.array([1.0, 0] * 3 + [0.0] * 14)
        ts = toy_training_set(X, y)
        hp = AnnParams(hidden1=6, hidden2=3, epochs=1, batch_size=32,
                       learning_rate=0.1, restarts=1, seed=3)
        init = self._init(hp.seed)
        _, grads = ann_loss_and_grads(init, ts.standardized(), y, class_weights(y))
        self._assert_step(fit_ann([ts], [hp])[0], init, hp.learning_rate, grads)

    def test_lrn_step_is_checked_gradient(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(7, 4))
        y = np.array([0.0, 1, 0, 0, 1, 0, 0])
        ts = toy_training_set(X, y)
        hp = LrnParams(hidden1=6, hidden2=3, epochs=1, learning_rate=0.1,
                       restarts=1, seed=5)
        init = self._init(hp.seed)
        _, grads, _ = lambdarank_cost_and_grads(init, ts.standardized(), y,
                                                sigma=hp.sigma)
        self._assert_step(fit_lambdarank([ts], [hp])[0], init, hp.learning_rate, grads)


class TestSharedBuffers:
    """Narrower passes run on prefix views of one buffer set; each must give
    the bits a net of exactly that width gives."""

    SIZES = (8, 32, 16, 1)

    def _data(self, seed, R, m):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(1, 1, m, self.SIZES[0])), rng.normal(size=(1, R, m, 1))

    def test_view_matches_a_fresh_net_after_a_wider_pass(self):
        R, widest = 3, 97
        params = _init_stacked(5, R, self.SIZES)
        shared = _Net(1, R, widest, self.SIZES)
        X, dz = self._data(0, R, widest)
        shared.forward(params, X)
        shared.backward(params, X, dz)  # leaves the buffers dirty
        for m in (1, 2, 31, 64, 96, 97, 5):
            X, dz = self._data(m, R, m)
            fresh = _Net(1, R, m, self.SIZES)
            view = shared.rows(m, 1)
            assert view.Z[-1].shape == (1, R, m, 1)
            assert np.array_equal(view.forward(params, X), fresh.forward(params, X))
            for (dW, db), (fW, fb) in zip(view.backward(params, X, dz),
                                          fresh.backward(params, X, dz)):
                assert np.array_equal(dW, fW) and np.array_equal(db, fb)
            assert np.array_equal(shared.flat_grads, fresh.flat_grads)

    def test_a_net_and_its_views_are_freed_without_the_cycle_collector(self):
        net = _Net(1, 3, 64, self.SIZES)
        net.rows(8, 1), net.rows(64, 1)
        freed = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert freed() is None
        finally:
            gc.enable()

    def test_gains_of_a_width_are_a_prefix_of_the_widest(self):
        widest = _gains(700)
        for m in range(1, 701):
            assert np.array_equal(_gains(m), widest[:m])

    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("n", [1, _SELECT_ROWS - 1, _SELECT_ROWS, _SELECT_ROWS + 1,
                                   3 * _SELECT_ROWS + 7])
    def test_blocked_selection_pass_equals_one_pass(self, R, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, self.SIZES[0]))
        y = (rng.random(n) < 0.3).astype(float)
        weights = rng.uniform(0.5, 3.0, n)
        params = _init_stacked(7, R, self.SIZES)
        one_pass = _Net(1, R, n, self.SIZES).forward(params, X[None, None])[0, ..., 0]
        blocked = _forward_blocks(_Net(1, R, min(_SELECT_ROWS + 1, n), self.SIZES), params, X)
        assert np.array_equal(blocked, one_pass)
        losses = [(weights * (_stable_sigmoid(z) - y) ** 2).mean(axis=1)
                  for z in (blocked, one_pass)]
        assert np.array_equal(*losses)


def _peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn`` runs, over what was live before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFitMemory:
    """Fit buffers scale with a block or the widest group, not with the row
    count or the number of group widths; row orders are int32."""

    def test_ann_fit_does_not_hold_activations_for_every_row(self):
        rng = np.random.default_rng(19)
        n = 20_000
        X = rng.normal(size=(n, 8))
        y = (rng.random(n) < 0.1).astype(float)
        ts = toy_training_set(X, y)
        peak = _peak_bytes(lambda: fit_ann([ts], [AnnParams(epochs=1, restarts=10)]))
        assert peak < 20 * X.nbytes

    def test_stacked_ann_fit_buffers_scale_with_the_batch_not_the_select_block(self):
        # the final loss pass runs one fit at a time, so F fits need no
        # F x restarts x (_SELECT_ROWS + 1) rows of activations
        rng = np.random.default_rng(29)
        F, n, hp = 8, 600, AnnParams(epochs=1, restarts=2)
        tss = [toy_training_set(rng.normal(size=(n, 8)), np.arange(n) % 7 == 0)
               for _ in range(F)]
        sizes = (8, hp.hidden1, hp.hidden2, 1)
        select_net = _peak_bytes(lambda: _Net(F, hp.restarts, _SELECT_ROWS + 1, sizes))
        batch_net = _peak_bytes(lambda: _Net(F, hp.restarts, hp.batch_size, sizes))
        peak = _peak_bytes(lambda: fit_ann(tss, [with_seed(hp, s) for s in range(F)]))
        assert peak < batch_net + select_net / 2

    @pytest.mark.parametrize("kind", [RankerKind.ANN, RankerKind.SVM])
    def test_stacked_fit_over_seven_windows_holds_int32_row_orders(self, kind):
        # one large window and six of two rows: the shuffled row orders span
        # fits x restarts x the largest window's rows, so they outweigh the
        # stacked rows, and at int64 they alone would break the bound
        rng = np.random.default_rng(37)
        n = 20_000
        tss = [toy_training_set(rng.normal(size=(n, 1)), np.arange(n) % 9 == 0)] + [
            toy_training_set(rng.normal(size=(2, 1)), [1.0, 0.0]) for _ in range(6)]
        hp = (AnnParams(hidden1=2, hidden2=2, epochs=1, restarts=4)
              if kind is RankerKind.ANN else SvmParams(epochs=1))
        R = getattr(hp, "restarts", 1)

        def fit():
            FITTERS[kind](tss, [with_seed(hp, s) for s in range(len(tss))])

        fit()  # numpy's one-time allocations stay out of the measured peak
        orders = len(tss) * R * n * 4
        rows = (n + 12) * 3 * 8  # the stacked X, labels and class weights
        outputs = R * n * 8 if kind is RankerKind.ANN else 0  # the restart selection's
        # and one shuffle's permutation
        assert _peak_bytes(fit) < rows + 1.5 * orders + outputs + 8 * n

    def test_lrn_fit_holds_one_net_for_every_group_width(self):
        rng = np.random.default_rng(23)
        widths = [300 + 25 * k for k in range(12)]
        X = rng.normal(size=(sum(widths), 8))
        y = np.zeros(sum(widths))
        groups = np.repeat(np.arange(len(widths)), widths)
        starts = np.cumsum([0] + widths[:-1])
        y[starts] = y[starts + 7] = 1.0
        ts = toy_training_set(X, y, groups=groups)
        hp = LrnParams(epochs=1)
        sizes = (8, hp.hidden1, hp.hidden2, 1)
        one_net = _peak_bytes(lambda: _Net(1, hp.restarts, max(widths), sizes))
        peak = _peak_bytes(lambda: fit_lambdarank([ts], [hp]))
        assert peak < 2 * one_net
