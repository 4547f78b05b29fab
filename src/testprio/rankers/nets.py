"""Small feed-forward nets: the direct fail-probability scorer and the
pairwise learning-to-rank scorer.

Both use the same shape (input -> hidden1 -> hidden2 -> 1, ReLU hidden
activations, three weight layers).  Training runs several restarts from
different seeded initializations; to keep that affordable, all restarts are
trained simultaneously as one stacked tensor computation (leading axis =
restart).  The best restart is kept: minimal final training error for the
probability net, maximal training NDCG for the ranking net.

One buffered pass, :class:`_Net`, computes every forward and backward here:
the minibatch steps of ``fit_ann``, the per-group steps of
``fit_lambdarank``, the final loss / NDCG selection, and the one-parameter-set
``ann_loss_and_grads`` / ``lambdarank_cost_and_grads``.  Each caller turns
the raw output into its own output gradient (sigmoid-MSE or lambdas), so the
finite-difference gradient checks exercise the same code that trains.

A fit allocates one buffer set, for its widest pass, and runs every narrower
pass on contiguous prefix views of it (:meth:`_Net.rows`).  So the buffers
of ``fit_ann`` scale with ``restarts x max(batch_size, _SELECT_ROWS + 1)``,
not with the number of training rows, as its final loss pass walks the rows
in blocks of ``_SELECT_ROWS``.  Those of ``fit_lambdarank`` scale with
``restarts x`` the widest cycle group, not with the number of groups or of
distinct group widths.
"""

from __future__ import annotations

import numpy as np

from ..errors import NoRankableGroup
from ..features import TrainingSet
from ..seeding import mix_seed
from .base import (
    AnnParams,
    LrnParams,
    Model,
    MlpPayload,
    RankerKind,
    class_weights,
    constant_model,
    _stable_sigmoid,
)

Params = list[tuple[np.ndarray, np.ndarray]]  # [(W, b), ...] stacked over restarts

_SELECT_ROWS = 512  # rows per block of fit_ann's final loss pass


def _flatten(params: Params) -> tuple[np.ndarray, Params]:
    """The arrays of ``params`` copied, in order, into one flat buffer, and
    (W, b) views of it, so that an SGD step is one ufunc call per buffer."""
    arrays = [a for layer in params for a in layer]
    flat = np.concatenate([a.ravel() for a in arrays])
    views, at = [], 0
    for a in arrays:
        views.append(flat[at:at + a.size].reshape(a.shape))
        at += a.size
    return flat, list(zip(views[::2], views[1::2]))


def _init_stacked(seed: int, restarts: int, sizes: tuple[int, ...]) -> Params:
    """He-scaled normal init; restart r draws from generator seed + r."""
    params: Params = []
    per_restart = [np.random.default_rng(seed + r) for r in range(restarts)]
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = np.stack(
            [rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
             for rng in per_restart]
        )
        b = np.zeros((restarts, 1, fan_out))
        params.append((W, b))
    return params


def _prefix(buf: np.ndarray, m: int) -> np.ndarray:
    """The leading elements of a C-contiguous (R, M, ...) buffer, laid out as
    (R, m, ...) for m <= M: a contiguous view of the first m/M of it."""
    R, M, *rest = buf.shape
    return buf.reshape(-1)[: buf.size // M * m].reshape(R, m, *rest)


class _Net:
    """The one forward/backward pass of the stacked ReLU MLP, with buffers
    for ``R`` restarts on ``m`` rows of layer widths ``sizes``.

    Training runs hundreds of thousands of tiny steps; allocating the
    intermediate tensors fresh each step costs several times the arithmetic
    itself, so each shape keeps its buffers across steps.  The caller owns
    the loss: it turns the output into dLoss/dZ_out and hands that back.
    """

    def __init__(self, R: int, m: int, sizes: tuple[int, ...]):
        hidden = sizes[1:-1]
        self.Z = [np.empty((R, m, h)) for h in sizes[1:]]
        self.A = [np.empty((R, m, h)) for h in hidden]
        self.mask = [np.empty((R, m, h), dtype=bool) for h in hidden]
        self.dA = [np.empty((R, m, h)) for h in hidden]
        # laid out like the parameters' flat buffer, for _sgd_step
        self.flat_grads, self.grads = _flatten(
            [(np.empty((R, fan_in, fan_out)), np.empty((R, 1, fan_out)))
             for fan_in, fan_out in zip(sizes[:-1], sizes[1:])])
        self._views: dict[int, _Net] = {}

    def rows(self, m: int) -> "_Net":
        """A net for ``m`` rows, at most this one's, whose activation buffers
        are contiguous prefixes of this net's and whose gradient buffers are
        this net's.  Views are kept for reuse and hand out no views: no view
        refers back to this net, so no reference cycle keeps the buffers
        alive past the fit."""
        view = self._views.get(m)
        if view is None:
            view = object.__new__(_Net)
            view.Z, view.A, view.mask, view.dA = (
                [_prefix(buf, m) for buf in bufs] for bufs in (self.Z, self.A, self.mask, self.dA))
            view.flat_grads, view.grads = self.flat_grads, self.grads
            self._views[m] = view
        return view

    def forward(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Raw output Z_out (R, m, 1) for inputs X of shape (R|1, m, d)."""
        act = X
        for i, (W, b) in enumerate(params):
            z = self.Z[i]
            np.matmul(act, W, out=z)
            np.add(z, b, out=z)
            if i < len(self.A):
                act = self.A[i]
                np.maximum(z, 0.0, out=act)
        return self.Z[-1]

    def backward(self, params: Params, X: np.ndarray, dz: np.ndarray) -> Params:
        """Gradients of every (W, b) given dLoss/dZ_out (R, m, 1), for the
        last ``forward`` on X; they live in this net's buffers."""
        for i in range(len(params) - 1, -1, -1):
            dW, db = self.grads[i]
            act_in = self.A[i - 1] if i else X
            np.matmul(act_in.transpose(0, 2, 1), dz, out=dW)
            np.add.reduce(dz, axis=1, keepdims=True, out=db)
            if i:
                da, mask = self.dA[i - 1], self.mask[i - 1]
                np.matmul(dz, params[i][0].transpose(0, 2, 1), out=da)
                np.greater(self.Z[i - 1], 0.0, out=mask)
                np.multiply(da, mask, out=da)
                dz = da
        return self.grads


def _sgd_step(flat: np.ndarray, flat_grads: np.ndarray, lr: float) -> None:
    """params -= lr * grads in place on the flat buffers (the gradient
    buffer is scaled too)."""
    np.multiply(flat_grads, lr, out=flat_grads)
    np.subtract(flat, flat_grads, out=flat)


def _one_restart(layers, m: int) -> tuple[Params, _Net]:
    """One unstacked parameter set as stacked params (R = 1), and a net for
    ``m`` rows of it."""
    params = [(W[None], b[None, None]) for W, b in layers]
    sizes = (layers[0][0].shape[0], *(W.shape[1] for W, _ in layers))
    return params, _Net(1, m, sizes)


def _unstack(params: Params, r: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    return tuple((W[r].copy(), b[r, 0].copy()) for W, b in params)


# --- probability net -----------------------------------------------------------

def _mse_grad(out: np.ndarray, y: np.ndarray, cw: np.ndarray,
              g: np.ndarray, tmp: np.ndarray) -> None:
    """g = dLoss/dZ_out of the class-weighted MSE mean over B rows:
    (2/B) * cw * (out - y) * out * (1 - out); out is (R, B, 1), y and cw (R, B)."""
    np.subtract(out, y[..., None], out=g)
    np.multiply(g, cw[..., None], out=g)
    np.multiply(g, out, out=g)
    np.subtract(1.0, out, out=tmp)
    np.multiply(g, tmp, out=g)
    np.multiply(g, 2.0 / out.shape[1], out=g)


def _stable_sigmoid_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = sigmoid(x) without overflow, using ``scratch`` as workspace."""
    np.clip(x, -500.0, 500.0, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.reciprocal(scratch, out=out)


def _forward_blocks(net: _Net, params: Params, X: np.ndarray) -> np.ndarray:
    """Raw outputs (R, n) for all n rows of X, forwarded in row blocks
    through ``net`` (at least min(_SELECT_ROWS + 1, n) rows wide).

    Blocks start at multiples of _SELECT_ROWS, so each row meets the same
    BLAS kernel as in one pass over all n rows.  A one-row remainder joins
    the block before it: numpy multiplies a single row by the matrix-vector
    routine, which sums in another order."""
    n = len(X)
    z = np.empty((len(params[0][0]), n))
    start = 0
    for stop in [*range(_SELECT_ROWS, n - 1, _SELECT_ROWS), n]:
        z[:, start:stop] = net.rows(stop - start).forward(params, X[None, start:stop])[..., 0]
        start = stop
    return z


def fit_ann(ts: TrainingSet, hp: AnnParams = AnnParams()) -> Model:
    """Sigmoid-output net trained on class-weighted MSE by minibatch gradient
    descent; keeps the restart with the lowest final training error."""
    if ts.single_class:
        return constant_model(RankerKind.ANN, ts.config, ts.stats)

    X = ts.standardized()
    y = ts.y
    weights = class_weights(y)
    n, d = X.shape
    R = hp.restarts
    sizes = (d, hp.hidden1, hp.hidden2, 1)
    flat, params = _flatten(_init_stacked(hp.seed, R, sizes))
    shuffles = [np.random.default_rng(mix_seed(hp.seed + r, "shuffle")) for r in range(R)]

    # one net for the widest pass, a minibatch or a block of the final loss;
    # per minibatch width (B, and the remainder when B does not divide n):
    # the net, the gathered X / y / class weight, and output/gradient scratch
    B = min(hp.batch_size, n)
    net = _Net(R, max(B, min(_SELECT_ROWS + 1, n)), sizes)
    scratch = (np.empty((R, B, d)), np.empty((R, B)), np.empty((R, B)),
               np.empty((R, B, 1)), np.empty((R, B, 1)), np.empty((R, B, 1)))
    work = {m: (net.rows(m), *(_prefix(buf, m) for buf in scratch))
            for m in {B, n % B} - {0}}

    for _ in range(hp.epochs):
        orders = np.stack([rng.permutation(n) for rng in shuffles])
        for start in range(0, n, B):
            batch_net, Xb, yb, cb, out, g, tmp = work[min(B, n - start)]
            rows = orders[:, start : start + B].reshape(-1)
            X.take(rows, axis=0, out=Xb.reshape(-1, d))
            y.take(rows, axis=0, out=yb.reshape(-1))
            weights.take(rows, axis=0, out=cb.reshape(-1))
            _stable_sigmoid_into(batch_net.forward(params, Xb), out, tmp)
            _mse_grad(out, yb, cb, g, tmp)
            batch_net.backward(params, Xb, g)
            _sgd_step(flat, net.flat_grads, hp.learning_rate)

    # final weighted MSE per restart on the whole training set
    out = _stable_sigmoid(_forward_blocks(net, params, X))
    losses = (weights * (out - y) ** 2).mean(axis=1)
    best = int(np.argmin(losses))
    payload = MlpPayload(layers=_unstack(params, best), sigmoid_output=True)
    return Model(kind=RankerKind.ANN, payload=payload, stats=ts.stats, config=ts.config)


def ann_loss_and_grads(layers, X: np.ndarray, y: np.ndarray,
                       class_weights: np.ndarray):
    """Class-weighted MSE and parameter gradients for one parameter set
    (used directly by finite-difference checks)."""
    params, net = _one_restart(layers, len(y))
    X1 = X[None]
    z = net.forward(params, X1)
    out, g, tmp = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    _stable_sigmoid_into(z, out, tmp)
    loss = float((class_weights * (out[0, :, 0] - y) ** 2).mean())
    _mse_grad(out, y[None], class_weights[None], g, tmp)
    grads = net.backward(params, X1, g)
    return loss, [(dW[0], db[0, 0]) for dW, db in grads]


# --- pairwise ranking net --------------------------------------------------------

def _ranks_matrix(s: np.ndarray) -> np.ndarray:
    """Row-wise 1-based descending ranks, ties by index (stable sort)."""
    return np.argsort(np.argsort(-s, axis=1, kind="stable"), axis=1) + 1


def _gains(m: int) -> np.ndarray:
    """DCG gain ``1 / log2(1 + rank)`` of ranks 1..m, indexed by rank - 1."""
    return 1.0 / np.log2(1.0 + np.arange(1, m + 1))


def _ideal_dcg(n_pos: int) -> float:
    return float(_gains(n_pos).sum())


def _group_lambdas(s: np.ndarray, pos: np.ndarray, neg: np.ndarray,
                   sigma: float, idcg: float, gains: np.ndarray,
                   frozen_delta: np.ndarray | None = None):
    """dCost/dscore (R, m) for one group with stacked scores s (R, m);
    ``gains`` is ``_gains(k)`` for some k >= m.  Callers ignore overflow in
    ``exp``: a lambda whose exponent overflows is -0.0, as it should be."""
    if frozen_delta is None:
        g = gains[_ranks_matrix(s) - 1]
        delta = np.abs(g[:, pos][:, :, None] - g[:, neg][:, None, :]) / idcg
    else:
        delta = frozen_delta
    sdiff = s[:, pos][:, :, None] - s[:, neg][:, None, :]
    lam = -sigma * delta / (1.0 + np.exp(sigma * sdiff))
    dc = np.zeros_like(s)
    dc[:, pos] = np.add.reduce(lam, axis=2)
    dc[:, neg] = -np.add.reduce(lam, axis=1)
    return dc, delta, sdiff


def fit_lambdarank(ts: TrainingSet, hp: LrnParams = LrnParams()) -> Model:
    """Linear-output net trained with pairwise lambda gradients per cycle
    group; groups lacking a failing or a passing example are skipped.
    Restarts differ in initialization and share the per-epoch group order;
    the restart with the best final training NDCG wins."""
    slices = ts.group_slices()
    X = ts.standardized()
    y = ts.y
    groups = []
    for sl in slices:
        pos = np.flatnonzero(y[sl] > 0.5)
        neg = np.flatnonzero(y[sl] < 0.5)
        if len(pos) and len(neg):
            groups.append((sl, pos, neg, _ideal_dcg(len(pos))))
    if not groups:
        raise NoRankableGroup("no cycle group contains both verdict classes")

    d = X.shape[1]
    R = hp.restarts
    sizes = (d, hp.hidden1, hp.hidden2, 1)
    flat, params = _flatten(_init_stacked(hp.seed, R, sizes))
    order_rng = np.random.default_rng(mix_seed(hp.seed, "group-order"))

    inputs = [np.ascontiguousarray(X[sl][None]) for sl, _, _, _ in groups]
    widest = max(Xg.shape[1] for Xg in inputs)
    net = _Net(R, widest, sizes)
    gains = _gains(widest)
    with np.errstate(over="ignore"):
        for _ in range(hp.epochs):
            for g in order_rng.permutation(len(groups)):
                _, pos, neg, idcg = groups[g]
                Xg = inputs[g]
                gnet = net.rows(Xg.shape[1])
                s = gnet.forward(params, Xg)[..., 0]
                dc, _, _ = _group_lambdas(s, pos, neg, hp.sigma, idcg, gains)
                gnet.backward(params, Xg, dc[..., None])
                _sgd_step(flat, net.flat_grads, hp.learning_rate)

    # mean training NDCG per restart
    ndcg = np.zeros(R)
    for (_, pos, _, idcg), Xg in zip(groups, inputs):
        ranks = _ranks_matrix(net.rows(Xg.shape[1]).forward(params, Xg)[..., 0])
        ndcg += gains[ranks[:, pos] - 1].sum(axis=1) / idcg
    best = int(np.argmax(ndcg))
    payload = MlpPayload(layers=_unstack(params, best), sigmoid_output=False)
    return Model(kind=RankerKind.LRN, payload=payload, stats=ts.stats, config=ts.config)


def lambdarank_cost_and_grads(layers, X: np.ndarray, y: np.ndarray,
                              sigma: float = 1.0,
                              frozen_delta: np.ndarray | None = None):
    """Pairwise cost sum_ij |dNDCG_ij| * log(1 + exp(-sigma (s_i - s_j))) and
    its parameter gradients, for one group and one parameter set.

    The |dNDCG| factors are treated as constants of the current ranking
    (pass ``frozen_delta`` to hold them fixed across finite-difference
    evaluations); that is exactly the function whose gradient the lambda
    accumulation computes.
    """
    pos = np.flatnonzero(y > 0.5)
    neg = np.flatnonzero(y < 0.5)
    if not len(pos) or not len(neg):
        raise NoRankableGroup("gradient check group needs both classes")
    idcg = _ideal_dcg(len(pos))

    params, net = _one_restart(layers, len(y))
    X1 = X[None]
    s = net.forward(params, X1)[..., 0]
    with np.errstate(over="ignore"):
        dc, delta, sdiff = _group_lambdas(s, pos, neg, sigma, idcg, _gains(len(y)),
                                          frozen_delta)
    cost = float((delta * np.logaddexp(0.0, -sigma * sdiff)).sum())
    grads = net.backward(params, X1, dc[..., None])
    return cost, [(dW[0], db[0, 0]) for dW, db in grads], delta
