"""Linear scorer trained by stochastic subgradient descent on the
class-weighted hinge loss with an L2 penalty.

Objective (labels y in {-1, +1}, positive class weighted by #neg/#pos):

    l2/2 * ||w||^2  +  mean_i c_i * max(0, 1 - y_i (w.x_i + b))

Minibatches are drawn from a seeded per-epoch shuffle; the step size decays
as ``learning_rate / sqrt(epoch)``.

``fit_svm`` takes a list of training sets whose params differ only in seed
and trains them in lockstep, as ``fit_ann`` does: the sets are stacked by
decreasing size, and at each batch start the fits whose batches there have
one width take one step together, on (fits, batch, d) arrays.  Every step
is elementwise, a matmul of each fit's batch with its own weights, or a sum
within one fit's batch in the order its lone fit sums, so each model is bit
for bit the one its set gets alone.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..features import TrainingSet
from .base import (
    Model,
    RankerKind,
    SvmParams,
    SvmPayload,
    _batch_runs,
    _minibatch_fits,
    _shared,
    _stacked_rows,
    class_weights,
)


def fit_svm(tss: Sequence[TrainingSet], hps: Sequence[SvmParams]) -> list[Model]:
    """One linear model per training set; a single-class set gets a
    constant model."""
    if not tss:
        return []
    hp = _shared(tss, hps)
    models, fits = _minibatch_fits(RankerKind.SVM, tss)
    if not fits:
        return models

    X, ns, starts = _stacked_rows(tss, fits)
    y = np.concatenate([np.where(tss[j].y > 0.5, 1.0, -1.0) for j in fits])
    weight = np.concatenate([class_weights(tss[j].y) for j in fits])  # y > 0.5 where y is +1
    F, d = len(fits), X.shape[1]
    w = np.zeros((F, d))
    b = np.zeros(F)
    rngs = [np.random.default_rng(hps[j].seed) for j in fits]
    # per batch start, its runs of fits a..c-1 with m rows each, and views of
    # their weights and biases (updated in place), one set per run of fits
    views = functools.cache(lambda a, c: (w[a:c], w[a:c, :, None], b[a:c], b[a:c, None]))
    steps = [(start, [(a, c, m, *views(a, c)) for a, c, m in runs])
             for start, runs in _batch_runs(ns, hp.batch_size)]
    order = np.empty((F, ns[0]), dtype=np.int32)  # rows of X, by fit

    for epoch in range(1, hp.epochs + 1):
        step = hp.learning_rate / np.sqrt(epoch)
        for k, rng in enumerate(rngs):
            np.add(rng.permutation(ns[k]), starts[k], out=order[k, :ns[k]])
        for start, runs in steps:
            for a, c, m, wr, wcol, br, bcol in runs:
                batch = order[a:c, start:start + m].astype(np.intp)
                Xb, yb, cb = X.take(batch, axis=0), y.take(batch), weight.take(batch)
                margins = yb * (np.matmul(Xb, wcol)[..., 0] + bcol)
                active = cb * yb * (margins < 1.0)
                grad_w = hp.l2 * wr - np.add.reduce(active[..., None] * Xb, axis=1) / m
                grad_b = -np.add.reduce(active, axis=1) / m
                wr -= step * grad_w
                br -= step * grad_b

    for k, j in enumerate(fits):
        models[j] = Model(kind=RankerKind.SVM,
                          payload=SvmPayload(weights=w[k].copy(), bias=float(b[k])),
                          stats=tss[j].stats, config=tss[j].config)
    return models
