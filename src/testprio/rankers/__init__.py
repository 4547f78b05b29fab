"""Six prioritization strategies behind one interface."""

from .base import (
    AnnParams,
    ConstantPayload,
    GbdtParams,
    GbdtPayload,
    GbdtTree,
    LrnParams,
    MlpPayload,
    Model,
    RandomParams,
    RankedSuite,
    RankedTest,
    RankerKind,
    RankerParams,
    RocketParams,
    SvmParams,
    SvmPayload,
    PARAM_TYPES,
    apply_tree,
    constant_model,
    default_params,
    deserialize_model,
    params_from_config,
    rank_with_tie_break,
    random_rank,
    rocket_priorities,
    score_matrix,
    serialize_model,
    sorted_ranks,
    with_seed,
)
from .gbdt import fit_gbdt
from .nets import (
    ann_loss_and_grads,
    fit_ann,
    fit_lambdarank,
    lambdarank_cost_and_grads,
)
from .svm import fit_svm


def _each(fit):
    """A one-set fitter as a ``FITTERS`` entry: one fit per training set."""
    def fit_each(tss, hps):
        return [fit(ts, hp) for ts, hp in zip(tss, hps, strict=True)]
    return fit_each


# kind -> (training sets, params) -> one model per set; svm and the nets
# train the sets together (see .svm and .nets), gbdt one after another
FITTERS = {
    RankerKind.SVM: fit_svm,
    RankerKind.ANN: fit_ann,
    RankerKind.GBDT: _each(fit_gbdt),
    RankerKind.LRN: fit_lambdarank,
}

__all__ = [
    "AnnParams",
    "ConstantPayload",
    "FITTERS",
    "GbdtParams",
    "GbdtPayload",
    "GbdtTree",
    "LrnParams",
    "MlpPayload",
    "Model",
    "PARAM_TYPES",
    "RandomParams",
    "RankedSuite",
    "RankedTest",
    "RankerKind",
    "RankerParams",
    "RocketParams",
    "SvmParams",
    "SvmPayload",
    "ann_loss_and_grads",
    "apply_tree",
    "constant_model",
    "default_params",
    "deserialize_model",
    "fit_ann",
    "fit_gbdt",
    "fit_lambdarank",
    "fit_svm",
    "lambdarank_cost_and_grads",
    "params_from_config",
    "rank_with_tie_break",
    "random_rank",
    "rocket_priorities",
    "score_matrix",
    "serialize_model",
    "sorted_ranks",
    "with_seed",
]
