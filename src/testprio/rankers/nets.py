"""Small feed-forward nets: the direct fail-probability scorer and the
pairwise learning-to-rank scorer.

Both use the same shape (input -> hidden1 -> hidden2 -> 1, ReLU hidden
activations, three weight layers).  ``fit_ann`` and ``fit_lambdarank`` take
a list of training sets whose params differ only in seed, and train every
fit's restarts (seeded initializations) in lockstep as one stacked tensor
computation: every tensor has leading axes (fit, restart), so one numpy
call serves all F x R of them.  Each fit keeps its best restart: minimal
final training error for the probability net, maximal training NDCG for
the ranking net.  A single fit is the F = 1 case.

The parameters live in one (F * R, P) buffer, a row of P parameters per
(fit, restart), so the fits of a block [a, b) are its contiguous rows
[a * R, b * R) and an SGD step on them is one ufunc call per buffer.  Fits
are ordered by decreasing size, so at each step the fits that still have a
minibatch (an lrn group) form a leading block.  Those whose minibatch or
group at that step has one width run as one call; a fit with another width
(a remainder batch, fewer rows than ``batch_size``, an lrn group of another
width) runs that step in its own call.  The lrn lambdas of a call's groups
that also share a failure count are computed in one pass
(:func:`_stacked_lambdas`), which sums over pairs in the order a lone
group does.  A fit's layers do not depend on what it is stacked with: each
restart's matmuls are separate BLAS calls on the same operands, and every
other operation is elementwise or reduces within one restart.

One buffered pass, :class:`_Net`, computes every forward and backward here:
the minibatch steps of ``fit_ann``, the per-group steps of
``fit_lambdarank``, the final loss / NDCG selection, and the one-parameter-set
``ann_loss_and_grads`` / ``lambdarank_cost_and_grads``.  Each caller turns
the raw output into its own output gradient (sigmoid-MSE or lambdas), so the
finite-difference gradient checks exercise the same code that trains.

A call allocates one buffer set, for its widest pass over all its fits, and
runs every narrower pass on contiguous prefix views of it (:meth:`_Net.rows`).
So the buffers of ``fit_ann`` scale with ``restarts x max(F x batch_size,
_SELECT_ROWS + 1)``, not with the number of training rows, as its final loss
pass walks one fit's rows at a time in blocks of ``_SELECT_ROWS``.  Those of
``fit_lambdarank`` scale with ``F x restarts x`` the widest cycle group, not
with the number of groups or of distinct group widths.  Shuffled row orders
are int32.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

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
    _batch_runs,
    _minibatch_fits,
    _runs,
    _shared,
    _stable_sigmoid,
    _stacked_rows,
    class_weights,
)

Params = list[tuple[np.ndarray, np.ndarray]]  # [(W, b), ...], leading axes (fit, restart)

_SELECT_ROWS = 512  # rows per block of fit_ann's final loss pass


def _n_params(sizes: tuple[int, ...]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def _layer_views(flat: np.ndarray, R: int, sizes: tuple[int, ...]) -> Params:
    """(W, b) views of a (c * R, P) parameter or gradient buffer, shaped
    (c, R, fan_in, fan_out) and (c, R, 1, fan_out)."""
    c = len(flat) // R
    views, at = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = flat[:, at:at + fan_in * fan_out].reshape(c, R, fan_in, fan_out, copy=False)
        at += fan_in * fan_out
        b = flat[:, at:at + fan_out].reshape(c, R, 1, fan_out, copy=False)
        at += fan_out
        views.append((W, b))
    return views


def _init_flat(seeds: Sequence[int], restarts: int, sizes: tuple[int, ...]) -> np.ndarray:
    """He-scaled normal init of one fit per seed, as a (fits * restarts, P)
    buffer; restart r of the fit seeded s draws from generator s + r."""
    flat = np.zeros((len(seeds) * restarts, _n_params(sizes)))
    for row, (seed, r) in enumerate(itertools.product(seeds, range(restarts))):
        rng = np.random.default_rng(seed + r)
        for W, _ in _layer_views(flat[row:row + 1], 1, sizes):
            fan_in = W.shape[2]
            W[0, 0] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=W.shape[2:])
    return flat


def _prefix(buf: np.ndarray, c: int, m: int) -> np.ndarray:
    """The leading elements of a C-contiguous (F, R, M, ...) buffer, laid out
    as (c, R, m, ...) for c * m <= F * M: a contiguous view of them."""
    F, R, M, *rest = buf.shape
    return buf.reshape(-1)[: buf.size // (F * M) * c * m].reshape(c, R, m, *rest)


class _Net:
    """The one forward/backward pass of the stacked ReLU MLP, with buffers
    for ``F`` fits of ``R`` restarts on ``m`` rows of layer widths ``sizes``.

    Training runs hundreds of thousands of tiny steps; allocating the
    intermediate tensors fresh each step costs several times the arithmetic
    itself, so each shape keeps its buffers across steps.  The caller owns
    the loss: it turns the output into dLoss/dZ_out and hands that back.
    """

    def __init__(self, F: int, R: int, m: int, sizes: tuple[int, ...]):
        hidden = sizes[1:-1]
        self.Z = [np.empty((F, R, m, h)) for h in sizes[1:]]
        self.A = [np.empty((F, R, m, h)) for h in hidden]
        self.mask = [np.empty((F, R, m, h), dtype=bool) for h in hidden]
        self.dA = [np.empty((F, R, m, h)) for h in hidden]
        # laid out like the parameters' (F * R, P) buffer, for _sgd_step
        self.flat_grads = np.empty((F * R, _n_params(sizes)))
        self.grads = _layer_views(self.flat_grads, R, sizes)
        self._views: dict[tuple[int, int], _Net] = {}

    def rows(self, m: int, c: int) -> "_Net":
        """A net for the first ``c`` fits on ``m`` rows (``c * m`` at most
        this one's ``F * M``), whose activation buffers are contiguous
        prefixes of this net's and whose gradient buffers are the leading
        rows of this net's.  Views are kept for reuse and hand out no views:
        no view refers back to this net, so no reference cycle keeps the
        buffers alive past the fit."""
        R = self.Z[0].shape[1]
        view = self._views.get((m, c))
        if view is None:
            view = object.__new__(_Net)
            view.Z, view.A, view.mask, view.dA = (
                [_prefix(buf, c, m) for buf in bufs] for bufs in (self.Z, self.A, self.mask, self.dA))
            view.flat_grads = self.flat_grads[: c * R]
            view.grads = [(dW[:c], db[:c]) for dW, db in self.grads]
            self._views[(m, c)] = view
        return view

    def forward(self, params: Params, X: np.ndarray) -> np.ndarray:
        """Raw output Z_out (c, R, m, 1) for inputs X of shape (c, R|1, m, d)."""
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
        """Gradients of every (W, b) given dLoss/dZ_out (c, R, m, 1), for the
        last ``forward`` on X; they live in this net's buffers."""
        for i in range(len(params) - 1, -1, -1):
            dW, db = self.grads[i]
            act_in = self.A[i - 1] if i else X
            np.matmul(act_in.swapaxes(2, 3), dz, out=dW)
            np.add.reduce(dz, axis=2, keepdims=True, out=db)
            if i:
                da, mask = self.dA[i - 1], self.mask[i - 1]
                np.matmul(dz, params[i][0].swapaxes(2, 3), out=da)
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
    """One unstacked parameter set as stacked params (F = R = 1), and a net
    for ``m`` rows of it."""
    params = [(W[None, None], b[None, None, None]) for W, b in layers]
    sizes = (layers[0][0].shape[0], *(W.shape[1] for W, _ in layers))
    return params, _Net(1, 1, m, sizes)


def _unstack(params: Params, r: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Restart ``r`` of a one-fit stack, as plain (W, b) arrays."""
    return tuple((W[0, r].copy(), b[0, r, 0].copy()) for W, b in params)


def _block_work(flat: np.ndarray, R: int, sizes: tuple[int, ...], net: _Net,
                scratch: tuple[np.ndarray, ...]):
    """A cached maker of what the run of fits a..b-1 steps with on m rows:
    their parameter rows and the rows' layer views, the net, and
    (b - a, R, m, ...) prefixes of the (F, R, M, ...) scratch buffers."""
    @functools.cache
    def work(a: int, b: int, m: int) -> tuple:
        rows = flat[a * R:b * R]
        return (rows, _layer_views(rows, R, sizes), net.rows(m, b - a),
                *(_prefix(buf, b - a, m) for buf in scratch))
    return work


# --- probability net -----------------------------------------------------------

def _mse_grad(out: np.ndarray, y: np.ndarray, cw: np.ndarray,
              g: np.ndarray, tmp: np.ndarray) -> None:
    """g = dLoss/dZ_out of the class-weighted MSE mean over B rows:
    (2/B) * cw * (out - y) * out * (1 - out); out is (..., B, 1), y and cw
    (..., B)."""
    np.subtract(out, y[..., None], out=g)
    np.multiply(g, cw[..., None], out=g)
    np.multiply(g, out, out=g)
    np.subtract(1.0, out, out=tmp)
    np.multiply(g, tmp, out=g)
    np.multiply(g, 2.0 / out.shape[-2], out=g)


def _stable_sigmoid_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = sigmoid(x) without overflow, using ``scratch`` as workspace."""
    np.maximum(x, -500.0, out=scratch)  # clip to +-500, without np.clip's wrappers
    np.minimum(scratch, 500.0, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.reciprocal(scratch, out=out)


def _forward_blocks(net: _Net, params: Params, X: np.ndarray) -> np.ndarray:
    """Raw outputs (R, n) of one fit's restarts for all n rows of X,
    forwarded in row blocks through ``net`` (at least
    min(_SELECT_ROWS + 1, n) rows wide).

    Blocks start at multiples of _SELECT_ROWS, so each row meets the same
    BLAS kernel as in one pass over all n rows.  A one-row remainder joins
    the block before it: numpy multiplies a single row by the matrix-vector
    routine, which sums in another order."""
    n = len(X)
    z = np.empty((params[0][0].shape[1], n))
    start = 0
    for stop in [*range(_SELECT_ROWS, n - 1, _SELECT_ROWS), n]:
        z[:, start:stop] = net.rows(stop - start, 1).forward(
            params, X[None, None, start:stop])[0, ..., 0]
        start = stop
    return z


def fit_ann(tss: Sequence[TrainingSet], hps: Sequence[AnnParams]) -> list[Model]:
    """One sigmoid-output net per training set, trained on class-weighted
    MSE by minibatch gradient descent; each keeps the restart with the
    lowest final training error.  A single-class set gets a constant
    model."""
    if not tss:
        return []
    hp = _shared(tss, hps)
    models, fits = _minibatch_fits(RankerKind.ANN, tss)
    if not fits:
        return models

    X, ns, starts = _stacked_rows(tss, fits)
    y = np.concatenate([tss[j].y for j in fits])
    weights = np.concatenate([class_weights(tss[j].y) for j in fits])
    d = X.shape[1]
    F, R, B = len(fits), hp.restarts, hp.batch_size
    sizes = (d, hp.hidden1, hp.hidden2, 1)
    flat = _init_flat([hps[j].seed for j in fits], R, sizes)
    shuffles = [np.random.default_rng(mix_seed(hps[j].seed + r, "shuffle"))
                for j in fits for r in range(R)]

    # one net for every fit's minibatch or one fit's block of the final loss;
    # scratch for the gathered X / y / class weight and the output/gradient;
    # and per batch start, its runs of fits whose batches there have one width
    widest = min(B, ns[0])
    net = _Net(F, R, max(widest, math.ceil(min(_SELECT_ROWS + 1, ns[0]) / F)), sizes)
    scratch = (np.empty((F, R, widest, d)), np.empty((F, R, widest)), np.empty((F, R, widest)),
               np.empty((F, R, widest, 1)), np.empty((F, R, widest, 1)),
               np.empty((F, R, widest, 1)))
    work = _block_work(flat, R, sizes, net, scratch)
    steps = [(start, [(a, b, m, work(a, b, m)) for a, b, m in runs])
             for start, runs in _batch_runs(ns, B)]
    order = np.empty((F * R, ns[0]), dtype=np.int32)  # rows of X, by (fit, restart)

    for _ in range(hp.epochs):
        for row, rng in enumerate(shuffles):
            j = row // R
            np.add(rng.permutation(ns[j]), starts[j], out=order[row, :ns[j]])
        for start, runs in steps:
            for a, b, m, (block, params, run_net, Xb, yb, cb, out, g, tmp) in runs:
                rows = order[a * R:b * R, start:start + m].astype(np.intp).reshape(-1)
                X.take(rows, axis=0, out=Xb.reshape(-1, d))
                y.take(rows, axis=0, out=yb.reshape(-1))
                weights.take(rows, axis=0, out=cb.reshape(-1))
                _stable_sigmoid_into(run_net.forward(params, Xb), out, tmp)
                _mse_grad(out, yb, cb, g, tmp)
                run_net.backward(params, Xb, g)
                _sgd_step(block, run_net.flat_grads, hp.learning_rate)

    # per fit, final weighted MSE per restart on its whole training set; the
    # loss terms overwrite the outputs a block at a time, so that the pass
    # holds one (restarts, n) array while a group's training sets are held
    for k, (j, lo, n) in enumerate(zip(fits, starts, ns)):
        params = _layer_views(flat[k * R:(k + 1) * R], R, sizes)
        terms = _forward_blocks(net, params, X[lo:lo + n])
        for a in range(0, n, _SELECT_ROWS):
            b = min(a + _SELECT_ROWS, n)
            terms[:, a:b] = weights[lo + a:lo + b] * (
                _stable_sigmoid(terms[:, a:b]) - y[lo + a:lo + b]) ** 2
        best = int(np.argmin(terms.mean(axis=1)))
        payload = MlpPayload(layers=_unstack(params, best), sigmoid_output=True)
        models[j] = Model(kind=RankerKind.ANN, payload=payload, stats=tss[j].stats,
                          config=tss[j].config)
    return models


def ann_loss_and_grads(layers, X: np.ndarray, y: np.ndarray,
                       class_weights: np.ndarray):
    """Class-weighted MSE and parameter gradients for one parameter set
    (used directly by finite-difference checks)."""
    params, net = _one_restart(layers, len(y))
    X1 = X[None, None]
    z = net.forward(params, X1)
    out, g, tmp = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    _stable_sigmoid_into(z, out, tmp)
    loss = float((class_weights * (out[0, 0, :, 0] - y) ** 2).mean())
    _mse_grad(out, y[None, None], class_weights[None, None], g, tmp)
    grads = net.backward(params, X1, g)
    return loss, [(dW[0, 0], db[0, 0, 0]) for dW, db in grads]


# --- pairwise ranking net --------------------------------------------------------

def _ranks_matrix(s: np.ndarray) -> np.ndarray:
    """Row-wise 1-based descending ranks along the last axis, ties by index
    (stable sort)."""
    return (-s).argsort(axis=-1, kind="stable").argsort(axis=-1) + 1


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
    ``exp``: a lambda whose exponent overflows is -0.0, as it should be.

    Summation order: ``g[:, pos]`` is laid out with the restarts innermost,
    so for R > 1 the (R, P, N) pair arrays have strides (8, 8 N R, 8 R)
    and both sums over pairs add one pair after another; for R = 1 they
    are C-ordered and the sum over N is numpy's pairwise sum.  That order
    fixes the bits of every lambda, and :func:`_stacked_lambdas` keeps it."""
    if frozen_delta is None:
        g = gains[_ranks_matrix(s) - 1]
        delta = np.abs(g[:, pos][:, :, None] - g[:, neg][:, None, :]) / idcg
    else:
        delta = frozen_delta
    sdiff = s[:, pos][:, :, None] - s[:, neg][:, None, :]
    lam = -sigma * delta / (1.0 + np.exp(sigma * sdiff))
    dc = np.zeros(s.shape)
    dc[:, pos] = np.add.reduce(lam, axis=2)
    dc[:, neg] = -np.add.reduce(lam, axis=1)
    return dc, delta, sdiff


def _stacked_lambdas(s: np.ndarray, take: np.ndarray, n_pos: int, sigma: float,
                     idcg: float, gains: np.ndarray) -> np.ndarray:
    """:func:`_group_lambdas` (k, R, m) of k groups of one width m and one
    positive count P in one pass; s (k, R, m) are their scores and take
    (k, m, R) their pair takes (:func:`_rankable_groups`).

    The pair arrays are (k, P, N, R), restarts innermost, which is the
    memory order of ``_group_lambdas``' own (R, P, N) arrays; so both sums
    over pairs run in its order and every lambda is bit for bit its own."""
    k, R, m = s.shape
    take = take + (np.arange(k) * (R * m))[:, None, None]
    g = gains[_ranks_matrix(s) - 1]
    st, gt = s.reshape(-1)[take], g.reshape(-1)[take]  # (k, m, R), positives first
    delta = np.abs(gt[:, :n_pos, None] - gt[:, None, n_pos:]) / idcg
    sdiff = st[:, :n_pos, None] - st[:, None, n_pos:]
    lam = -sigma * delta / (1.0 + np.exp(sigma * sdiff))
    dc = np.empty(s.size)
    dc[take[:, :n_pos]] = np.add.reduce(lam, axis=2)
    dc[take[:, n_pos:]] = -np.add.reduce(lam, axis=1)
    return dc.reshape(s.shape)


def _run_lambdas(s: np.ndarray, run: list[tuple], sigma: float, gains: np.ndarray,
                 dz: np.ndarray) -> None:
    """dz (c, R, m) = the lambdas of the c groups of ``run``, of one width m,
    for their scores s (c, R, m).  The groups that share a positive count
    take one :func:`_stacked_lambdas` pass; a group whose count no other
    shares takes :func:`_group_lambdas`."""
    by_count: dict[int, list[int]] = {}
    for i, (_, _, pos, *_) in enumerate(run):
        by_count.setdefault(len(pos), []).append(i)
    for n_pos, idx in by_count.items():
        if len(idx) == 1:
            i = idx[0]
            _, _, pos, neg, idcg, _ = run[i]
            dz[i] = _group_lambdas(s[i], pos, neg, sigma, idcg, gains)[0]
        else:
            idcg = run[idx[0]][4]  # one positive count, one ideal DCG
            takes = np.stack([run[i][5] for i in idx])
            dz[idx] = _stacked_lambdas(s[idx], takes, n_pos, sigma, idcg, gains)


def _rankable_groups(ts: TrainingSet, lo: int, R: int) -> list[tuple]:
    """(first row, width, positives, negatives, ideal DCG, pair take) of each
    cycle group of ``ts`` holding both verdict classes; rows count from
    ``lo``.  The pair take (m, R) holds the flat positions in the group's
    (R, m) scores of its positives and then its negatives, restarts
    innermost."""
    groups = []
    for sl in ts.group_slices():
        pos = np.flatnonzero(ts.y[sl] > 0.5)
        neg = np.flatnonzero(ts.y[sl] < 0.5)
        if len(pos) and len(neg):
            m = sl.stop - sl.start
            take = np.concatenate([pos, neg])[:, None] + np.arange(R) * m
            groups.append((lo + sl.start, m, pos, neg, _ideal_dcg(len(pos)), take))
    return groups


def fit_lambdarank(tss: Sequence[TrainingSet], hps: Sequence[LrnParams]) -> list[Model]:
    """One linear-output net per training set, trained with pairwise lambda
    gradients per cycle group; groups lacking a failing or a passing example
    are skipped.  If a set has no other group, :class:`NoRankableGroup` is
    raised before anything is trained, naming every such set.  A fit's
    restarts differ in initialization and share its per-epoch group order;
    the restart with the best final training NDCG wins."""
    if not tss:
        return []
    hp = _shared(tss, hps)
    ns = [ts.n_examples for ts in tss]
    starts = np.cumsum([0, *ns[:-1]])
    groups = [_rankable_groups(ts, int(lo), hp.restarts) for ts, lo in zip(tss, starts)]
    unrankable = tuple(j for j, gs in enumerate(groups) if not gs)
    if unrankable:
        raise NoRankableGroup("no cycle group contains both verdict classes", unrankable)
    fits = sorted(range(len(tss)), key=lambda j: -len(groups[j]))
    groups = [groups[j] for j in fits]

    X = np.empty((sum(ns), tss[0].dimension))
    for ts, lo, n in zip(tss, starts, ns):
        ts.standardized(out=X[lo:lo + n])
    d = X.shape[1]
    F, R = len(fits), hp.restarts
    sizes = (d, hp.hidden1, hp.hidden2, 1)
    flat = _init_flat([hps[j].seed for j in fits], R, sizes)
    order_rngs = [np.random.default_rng(mix_seed(hps[j].seed, "group-order")) for j in fits]

    widest = max(width for gs in groups for _, width, *_ in gs)
    net = _Net(F, R, widest, sizes)
    inputs, dz = np.empty((F, 1, widest, d)), np.empty((F, R, widest, 1))
    gains = _gains(widest)
    work = _block_work(flat, R, sizes, net, (inputs, dz))
    with np.errstate(over="ignore"):
        for _ in range(hp.epochs):
            perms = [rng.permutation(len(gs)) for rng, gs in zip(order_rngs, groups)]
            for k in range(len(groups[0])):
                picked = [gs[p[k]] for gs, p in zip(groups, perms) if len(p) > k]
                for a, b, run in _runs(picked, lambda g: g[1]):
                    m = run[0][1]
                    block, params, run_net, Xg, dzg = work(a, b, m)
                    np.concatenate([X[lo:lo + m] for lo, *_ in run], out=Xg.reshape(-1, d))
                    s = run_net.forward(params, Xg)[..., 0]
                    _run_lambdas(s, run, hp.sigma, gains, dzg[..., 0])
                    run_net.backward(params, Xg, dzg)
                    _sgd_step(block, run_net.flat_grads, hp.learning_rate)

    models = [None] * F
    for k, (j, gs) in enumerate(zip(fits, groups)):
        # mean training NDCG per restart
        params = _layer_views(flat[k * R:(k + 1) * R], R, sizes)
        ndcg = np.zeros(R)
        for lo, m, pos, _, idcg, _ in gs:
            s = net.rows(m, 1).forward(params, X[None, None, lo:lo + m])[0, ..., 0]
            ndcg += gains[_ranks_matrix(s)[:, pos] - 1].sum(axis=1) / idcg
        best = int(np.argmax(ndcg))
        payload = MlpPayload(layers=_unstack(params, best), sigmoid_output=False)
        models[j] = Model(kind=RankerKind.LRN, payload=payload, stats=tss[j].stats,
                          config=tss[j].config)
    return models


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
    X1 = X[None, None]
    s = net.forward(params, X1)[0, ..., 0]
    with np.errstate(over="ignore"):
        dc, delta, sdiff = _group_lambdas(s, pos, neg, sigma, idcg, _gains(len(y)),
                                          frozen_delta)
    cost = float((delta * np.logaddexp(0.0, -sigma * sdiff)).sum())
    grads = net.backward(params, X1, dc[None, ..., None])
    return cost, [(dW[0, 0], db[0, 0, 0]) for dW, db in grads], delta
