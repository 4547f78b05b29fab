"""Linear scorer trained by stochastic subgradient descent on the
class-weighted hinge loss with an L2 penalty.

Objective (labels y in {-1, +1}, positive class weighted by #neg/#pos):

    l2/2 * ||w||^2  +  mean_i c_i * max(0, 1 - y_i (w.x_i + b))

Minibatches are drawn from a seeded per-epoch shuffle; the step size decays
as ``learning_rate / sqrt(epoch)``.
"""

from __future__ import annotations

import numpy as np

from ..features import TrainingSet
from .base import Model, RankerKind, SvmParams, SvmPayload, class_weights, constant_model


def fit_svm(ts: TrainingSet, hp: SvmParams = SvmParams()) -> Model:
    if ts.single_class:
        return constant_model(RankerKind.SVM, ts.config, ts.stats)

    X = ts.standardized()
    y = np.where(ts.y > 0.5, 1.0, -1.0)
    n, d = X.shape
    weight = class_weights(ts.y)  # ts.y > 0.5 marks the rows where y is +1

    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(hp.seed)
    for epoch in range(1, hp.epochs + 1):
        step = hp.learning_rate / np.sqrt(epoch)
        order = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            batch = order[start : start + hp.batch_size]
            Xb, yb, cb = X[batch], y[batch], weight[batch]
            margins = yb * (Xb @ w + b)
            active = cb * yb * (margins < 1.0)
            grad_w = hp.l2 * w - (active[:, None] * Xb).sum(axis=0) / len(batch)
            grad_b = -active.sum() / len(batch)
            w -= step * grad_w
            b -= step * grad_b

    return Model(kind=RankerKind.SVM, payload=SvmPayload(weights=w, bias=float(b)),
                 stats=ts.stats, config=ts.config)
