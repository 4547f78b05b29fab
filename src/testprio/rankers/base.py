"""Ranker kinds, the shared tie-breaking total order, the two heuristic
rankers (random and recency-weighted), model containers and serialization.

All six strategies produce a :class:`RankedSuite` (columns in execution
order): the cycle's tests ordered by (score desc, duration asc, test_id
asc).  The duration tie rule executes cheap tests first among equally
suspicious ones; the final lexicographic leg makes the order total.

The tie-break, the random scores and the rocket sums work on columns
(:func:`rank_with_tie_break`, :func:`random_rank`,
:func:`rocket_priorities`); the replay calls them on registry codes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .. import config as cfgmod
from ..errors import DimensionMismatch, ModelFormatError
from ..features import FeatureConfig, StandardizationStats, TrainingSet

MODEL_SCHEMA_VERSION = 1


class RankerKind(Enum):
    RANDOM = "random"
    ROCKET = "rocket"
    SVM = "svm"
    ANN = "ann"
    GBDT = "gbdt"
    LRN = "lrn"

    @property
    def history_dependent(self) -> bool:
        return self is not RankerKind.RANDOM

    @property
    def trains(self) -> bool:
        """Whether the kind fits a model from a training set."""
        return self in (RankerKind.SVM, RankerKind.ANN, RankerKind.GBDT, RankerKind.LRN)


# --- hyperparameters ---------------------------------------------------------

# Smallest value each integer hyperparameter admits; below it a fit crashes
# (zero batch, restarts or hidden width) or silently acts as the minimum.
_INT_MINIMUM = {
    "epochs": 0, "batch_size": 1, "restarts": 1, "hidden1": 1, "hidden2": 1,
    "n_estimators": 0, "max_depth": 0, "min_samples_leaf": 1,
}


class _CheckedParams:
    """Range checks run whenever a params dataclass is built (``with_seed``
    included): every float finite, every integer at least its minimum.  An
    error names the value by its config key, ``<kind>.<name>``."""

    def __post_init__(self) -> None:
        kind = type(self).__name__.removesuffix("Params").lower()
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{kind}.{f.name} must be finite, got {value!r}")
            if isinstance(value, int) and value < _INT_MINIMUM.get(f.name, value):
                raise ValueError(f"{kind}.{f.name} must be >= {_INT_MINIMUM[f.name]}, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class SvmParams(_CheckedParams):
    l2: float = 1e-4
    epochs: int = 50
    learning_rate: float = 0.01   # decays as lr / sqrt(epoch)
    batch_size: int = 64
    seed: int = 0


@dataclass(frozen=True)
class AnnParams(_CheckedParams):
    hidden1: int = 32
    hidden2: int = 16
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.01
    restarts: int = 10
    seed: int = 0


@dataclass(frozen=True)
class GbdtParams(_CheckedParams):
    learning_rate: float = 0.1
    n_estimators: int = 100
    max_depth: int = 3
    min_samples_leaf: int = 2
    seed: int = 0  # fitting is deterministic; kept for interface uniformity


@dataclass(frozen=True)
class LrnParams(_CheckedParams):
    hidden1: int = 32
    hidden2: int = 16
    epochs: int = 50
    learning_rate: float = 0.005
    restarts: int = 10
    sigma: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class RocketParams(_CheckedParams):
    weight_most_recent: float = 0.7
    weight_second: float = 0.2
    weight_older: float = 0.1
    seed: int = 0  # unused; uniform interface


@dataclass(frozen=True)
class RandomParams(_CheckedParams):
    seed: int = 0


PARAM_TYPES = {
    RankerKind.RANDOM: RandomParams,
    RankerKind.ROCKET: RocketParams,
    RankerKind.SVM: SvmParams,
    RankerKind.ANN: AnnParams,
    RankerKind.GBDT: GbdtParams,
    RankerKind.LRN: LrnParams,
}

RankerParams = (
    RandomParams | RocketParams | SvmParams | AnnParams | GbdtParams | LrnParams
)


def default_params(kind: RankerKind) -> RankerParams:
    return PARAM_TYPES[kind]()


def params_from_config(kind: RankerKind, cfg: Mapping[str, str]) -> RankerParams:
    """Hyperparameters from the dotted config keys ``<kind>.<name>``."""
    return cfgmod.read_dataclass(PARAM_TYPES[kind], cfg, kind.value + ".")


def with_seed(params: RankerParams, seed: int) -> RankerParams:
    return replace(params, seed=seed)


# --- ranked suite -------------------------------------------------------------

@dataclass(frozen=True)
class RankedTest:
    test_id: str
    score: float
    duration_s: float


@dataclass(frozen=True, eq=False)
class RankedSuite:
    """A ranking as parallel columns in execution order; ``entries`` builds
    the :class:`RankedTest` rows (Python floats) only when asked."""
    test_ids: tuple[str, ...]
    scores: np.ndarray     # float64
    durations: np.ndarray  # float64

    @property
    def entries(self) -> tuple[RankedTest, ...]:
        return tuple(map(RankedTest, self.test_ids, self.scores.tolist(),
                         self.durations.tolist()))

    def __len__(self) -> int:
        return len(self.test_ids)

    def __eq__(self, other: object) -> bool:  # same ids, scores, durations, order
        return (isinstance(other, RankedSuite) and self.test_ids == other.test_ids
                and np.array_equal(self.scores, other.scores)
                and np.array_equal(self.durations, other.durations))


def sorted_ranks(test_ids: Sequence[str]) -> np.ndarray:
    """Each id's position in Python ``sorted()`` order, as int64."""
    ranks = np.empty(len(test_ids), dtype=np.int64)
    ranks[sorted(range(len(test_ids)), key=test_ids.__getitem__)] = np.arange(len(test_ids))
    return ranks


def rank_with_tie_break(test_ids: Sequence[str], scores: np.ndarray, durations: np.ndarray,
                        id_ranks: np.ndarray) -> tuple[RankedSuite, np.ndarray]:
    """The shared tie-break on parallel columns: score descending, then
    duration ascending, then test id, where ``id_ranks`` orders the ids as
    ``sorted()`` does (any order-preserving ranks will do).  Returns the
    suite and its order as indices into the columns."""
    scores = np.asarray(scores, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    order = np.lexsort((id_ranks, durations, -scores))
    ids = tuple(np.asarray(test_ids, dtype=object)[order].tolist())
    return RankedSuite(ids, scores[order], durations[order]), order


def random_rank(n: int, seed: int) -> np.ndarray:
    """Scores for ``n`` tests in a uniform random permutation ``perm``: the
    test at ``perm[i]`` scores ``n - i``, so every score is distinct and
    the tie-break orders the tests as ``perm`` does."""
    scores = np.empty(n)
    scores[np.random.default_rng(seed).permutation(n)] = np.arange(n, 0, -1, dtype=np.float64)
    return scores


def rocket_priorities(failing: Sequence[np.ndarray], n_tests: int,
                      params: RocketParams = RocketParams()) -> np.ndarray:
    """Recency-weighted failure counts by test code, from the codes of each
    window cycle's failing tests, newest cycle first: the newest cycle
    weighs ``weight_most_recent``, the next ``weight_second``, all older
    ones ``weight_older``.  ``np.add.at`` adds one weight at a time in that
    order, so each total is the newest-first running sum, bit for bit."""
    weights = [params.weight_most_recent, params.weight_second][:len(failing)]
    weights += [params.weight_older] * (len(failing) - len(weights))
    totals = np.zeros(n_tests)
    if failing:
        np.add.at(totals, np.concatenate(failing), np.repeat(weights, list(map(len, failing))))
    return totals


# --- fitted models ------------------------------------------------------------

@dataclass(frozen=True)
class ConstantPayload:
    """Degenerate model: every test gets the same score, so ranking falls
    back to the duration/id tie rule."""
    value: float = 0.0


@dataclass(frozen=True, eq=False)
class SvmPayload:
    weights: np.ndarray  # (d,)
    bias: float


@dataclass(frozen=True, eq=False)
class MlpPayload:
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]  # [(W, b), ...]
    sigmoid_output: bool


@dataclass(frozen=True, eq=False)
class GbdtTree:
    feature: np.ndarray    # (nodes,) int32, -1 marks a leaf
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray       # (nodes,) int32
    right: np.ndarray      # (nodes,) int32
    value: np.ndarray      # (nodes,) float64, leaf scores


@dataclass(frozen=True, eq=False)
class GbdtPayload:
    base_score: float
    shrinkage: float
    trees: tuple[GbdtTree, ...]
    train_loss_trace: tuple[float, ...]  # weighted logloss after each stage


Payload = ConstantPayload | SvmPayload | MlpPayload | GbdtPayload


@dataclass(frozen=True, eq=False)
class Model:
    kind: RankerKind
    payload: Payload
    stats: StandardizationStats     # captured at fit time, applied at score time
    config: FeatureConfig           # the feature settings the model was trained with
    degenerate: bool = False

    @property
    def dimension(self) -> int:
        return self.stats.dimension


def class_weights(y: np.ndarray) -> np.ndarray:
    """The loss weight of each example, offsetting the rare failing label:
    ``#neg / #pos`` where ``y > 0.5``, 1.0 elsewhere."""
    n_pos = int((y > 0.5).sum())
    return np.where(y > 0.5, (len(y) - n_pos) / n_pos, 1.0)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def apply_tree(tree: GbdtTree, X: np.ndarray) -> np.ndarray:
    out = np.zeros(len(X))
    node = np.zeros(len(X), dtype=np.int64)
    active = np.arange(len(X))
    while len(active):
        cur = node[active]
        leaf = tree.feature[cur] < 0
        done = active[leaf]
        out[done] = tree.value[node[done]]
        active = active[~leaf]
        if not len(active):
            break
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return out


def score_matrix(model: Model, X_raw: np.ndarray) -> np.ndarray:
    """Scores for raw (unstandardized) feature rows; applies the model's
    stored standardization first."""
    if X_raw.ndim != 2 or X_raw.shape[1] != model.dimension:
        raise DimensionMismatch(
            f"expected (*, {model.dimension}) features, got {X_raw.shape}"
        )
    X = (X_raw - model.stats.mean) / model.stats.std
    payload = model.payload
    if isinstance(payload, ConstantPayload):
        return np.full(len(X), payload.value)
    if isinstance(payload, SvmPayload):
        return X @ payload.weights + payload.bias
    if isinstance(payload, MlpPayload):
        act = X
        last = len(payload.layers) - 1
        for i, (W, b) in enumerate(payload.layers):
            act = act @ W + b
            if i < last:
                act = np.maximum(act, 0.0)
        out = act[:, 0]
        return _stable_sigmoid(out) if payload.sigmoid_output else out
    if isinstance(payload, GbdtPayload):
        out = np.full(len(X), payload.base_score)
        for tree in payload.trees:
            out += payload.shrinkage * apply_tree(tree, X)
        return out
    raise TypeError(f"unknown payload type {type(payload).__name__}")


def constant_model(kind: RankerKind, config: FeatureConfig,
                   stats: StandardizationStats | None = None) -> Model:
    d = config.dimension
    if stats is None:
        stats = StandardizationStats(mean=np.zeros(d), std=np.ones(d))
    return Model(kind=kind, payload=ConstantPayload(), stats=stats,
                 config=config, degenerate=True)


# --- fits trained in lockstep (svm, ann, lrn) -----------------------------------

def _shared(tss: Sequence[TrainingSet], hps: Sequence[RankerParams]) -> RankerParams:
    """The params every fit of one call uses; they may differ only in seed,
    and the training sets only in their rows."""
    if len(tss) != len(hps):
        raise ValueError(f"{len(tss)} training sets but {len(hps)} params")
    hp = hps[0]
    if (any(with_seed(p, hp.seed) != hp for p in hps)
            or len({ts.dimension for ts in tss}) > 1):
        raise ValueError("stacked fits must differ only in seed and training rows")
    return hp


def _runs(items: list, width) -> list[tuple[int, int, list]]:
    """(a, b, items[a:b]) for each maximal run of consecutive items of one
    ``width``."""
    runs, a = [], 0
    for _, run in itertools.groupby(items, key=width):
        run = list(run)
        runs.append((a, a + len(run), run))
        a += len(run)
    return runs


def _minibatch_fits(kind: RankerKind, tss: Sequence[TrainingSet]) -> tuple[list, list[int]]:
    """A constant model for each single-class set and None for the others,
    and the others' positions by decreasing row count (the order a
    minibatch fit stacks them in)."""
    models = [constant_model(kind, ts.config, ts.stats) if ts.single_class else None
              for ts in tss]
    fits = sorted((j for j, m in enumerate(models) if m is None),
                  key=lambda j: -tss[j].n_examples)
    return models, fits


def _stacked_rows(tss: Sequence[TrainingSet],
                  fits: list[int]) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The standardized rows of the sets at ``fits``, stacked in that order,
    with each one's row count and first stacked row."""
    ns = [tss[j].n_examples for j in fits]
    ends = np.cumsum(ns)
    starts = ends - ns
    X = np.empty((ends[-1], tss[fits[0]].dimension))
    for j, lo, hi in zip(fits, starts, ends):
        tss[j].standardized(out=X[lo:hi])
    return X, ns, starts


def _batch_runs(ns: list[int], batch_size: int) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """Per minibatch start, the runs (a, b, m) of fits a..b-1 whose batches
    there have m rows, for fits of ``ns`` rows in decreasing order: a fit
    whose remainder batch is narrower steps in a run of its own."""
    return [(start, [(a, b, m) for a, b, (m, *_) in
                     _runs([min(batch_size, n - start) for n in ns if n > start], lambda w: w)])
            for start in range(0, ns[0], batch_size)]


# --- serialization -------------------------------------------------------------

def _arr(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def serialize_model(model: Model) -> bytes:
    payload = model.payload
    if isinstance(payload, ConstantPayload):
        body = {"type": "constant", "value": payload.value}
    elif isinstance(payload, SvmPayload):
        body = {"type": "svm", "weights": _arr(payload.weights), "bias": payload.bias}
    elif isinstance(payload, MlpPayload):
        body = {
            "type": "mlp",
            "sigmoid_output": payload.sigmoid_output,
            "layers": [{"W": _arr(W), "b": _arr(b)} for W, b in payload.layers],
        }
    elif isinstance(payload, GbdtPayload):
        body = {
            "type": "gbdt",
            "base_score": payload.base_score,
            "shrinkage": payload.shrinkage,
            "train_loss_trace": list(payload.train_loss_trace),
            "trees": [
                {
                    "feature": tree.feature.tolist(),
                    "threshold": _arr(tree.threshold),
                    "left": tree.left.tolist(),
                    "right": tree.right.tolist(),
                    "value": _arr(tree.value),
                }
                for tree in payload.trees
            ],
        }
    else:
        raise TypeError(f"cannot serialize payload {type(payload).__name__}")

    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind.value,
        "degenerate": model.degenerate,
        "feature_config": asdict(model.config),
        "stats": {"mean": _arr(model.stats.mean), "std": _arr(model.stats.std)},
        "payload": body,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def deserialize_model(data: bytes) -> Model:
    try:
        return _model_from_doc(json.loads(data.decode("utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"not a serialized model: {exc!r}") from exc


def _model_from_doc(doc: dict) -> Model:
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(f"unsupported schema_version {doc.get('schema_version')!r}")

    fc = doc["feature_config"]
    config = FeatureConfig(verdict_window=fc["verdict_window"], decay=fc["decay"],
                           standardize=fc["standardize"])
    stats = StandardizationStats(
        mean=np.array(doc["stats"]["mean"], dtype=np.float64),
        std=np.array(doc["stats"]["std"], dtype=np.float64),
    )
    body = doc["payload"]
    kind = RankerKind(doc["kind"])
    if body["type"] == "constant":
        payload: Payload = ConstantPayload(value=body["value"])
    elif body["type"] == "svm":
        payload = SvmPayload(weights=np.array(body["weights"]), bias=body["bias"])
    elif body["type"] == "mlp":
        payload = MlpPayload(
            layers=tuple(
                (np.array(layer["W"]), np.array(layer["b"])) for layer in body["layers"]
            ),
            sigmoid_output=body["sigmoid_output"],
        )
    elif body["type"] == "gbdt":
        payload = GbdtPayload(
            base_score=body["base_score"],
            shrinkage=body["shrinkage"],
            train_loss_trace=tuple(body["train_loss_trace"]),
            trees=tuple(
                GbdtTree(
                    feature=np.array(t["feature"], dtype=np.int32),
                    threshold=np.array(t["threshold"], dtype=np.float64),
                    left=np.array(t["left"], dtype=np.int32),
                    right=np.array(t["right"], dtype=np.int32),
                    value=np.array(t["value"], dtype=np.float64),
                )
                for t in body["trees"]
            ),
        )
    else:
        raise ModelFormatError(f"unknown payload type {body['type']!r}")
    return Model(kind=kind, payload=payload, stats=stats, config=config,
                 degenerate=doc["degenerate"])
