import itertools
import json

import numpy as np
import pytest

from testprio.domain import history_prefix, slice_recent
from testprio.errors import ModelFormatError
from testprio.features import FeatureConfig, StandardizationStats
from testprio.rankers import (
    FITTERS,
    PARAM_TYPES,
    AnnParams,
    ConstantPayload,
    GbdtParams,
    GbdtPayload,
    GbdtTree,
    LrnParams,
    MlpPayload,
    Model,
    RankedSuite,
    RankedTest,
    RankerKind,
    RocketParams,
    SvmParams,
    SvmPayload,
    constant_model,
    default_params,
    deserialize_model,
    fit_ann,
    fit_gbdt,
    fit_lambdarank,
    fit_svm,
    params_from_config,
    rank_with_tie_break,
    random_rank,
    rocket_priorities,
    score_matrix,
    serialize_model,
    sorted_ranks,
    with_seed,
)
from testprio.rankers.base import _stable_sigmoid, class_weights

from . import oracles
from .conftest import churn_history, cyc, history, toy_training_set


def _rank(scores, durations):
    """The tie-break on dicts keyed by test id, as columns in key order."""
    ids = list(scores)
    return rank_with_tie_break(ids, [scores[t] for t in ids], [durations[t] for t in ids],
                               sorted_ranks(ids))[0]


class TestTieBreak:
    def test_score_order(self):
        rs = _rank({"A": 0.9, "B": 0.1}, {"A": 1.0, "B": 1.0})
        assert rs.test_ids == ("A", "B")

    def test_duration_breaks_score_tie(self):
        rs = _rank({"A": 0.5, "B": 0.5}, {"A": 3.0, "B": 2.0})
        assert rs.test_ids == ("B", "A")

    def test_lexicographic_final_tie(self):
        rs = _rank({"B": 0.5, "A": 0.5, "C": 0.5}, {"A": 1.0, "B": 1.0, "C": 1.0})
        assert rs.test_ids == ("A", "B", "C")

    def test_is_permutation(self):
        rng = np.random.default_rng(5)
        ids = [f"T{i}" for i in range(30)]
        scores = {t: float(rng.choice([0.1, 0.5, 0.9])) for t in ids}
        durations = {t: float(rng.choice([1.0, 2.0])) for t in ids}
        rs = _rank(scores, durations)
        assert sorted(rs.test_ids) == sorted(ids)


class TestTieBreakMatchesRowSort:
    @pytest.mark.parametrize("seed", range(8))
    def test_heavy_ties_signed_zeros_and_insertion_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        ids = [f"T{int(i):03d}" for i in rng.permutation(n)]  # inserted out of order
        score_values = [0.0, -0.0, 0.5, -0.5, 1.0, 0.1 + 0.2, 0.3, -np.inf, np.inf]
        scores = {t: score_values[int(rng.integers(len(score_values)))] for t in ids}
        durations = {t: float(rng.choice([0.1, 0.2, 0.30000000000000004, 0.3, 1.0]))
                     for t in ids}
        rs = _rank(scores, durations)
        expected = oracles.key_sort(scores, durations)
        assert rs.test_ids == tuple(e.test_id for e in expected)
        assert rs.entries == expected
        assert len(rs) == n

    def test_numpy_scalar_scores(self):
        values = np.array([0.25, 0.25, -0.0, 0.0, 0.75])
        scores = dict(zip(["e", "d", "c", "b", "a"], values))  # np.float64 values
        durations = dict(zip(["a", "b", "c", "d", "e"], [1, 2, 2, 1, 1]))  # ints
        rs = _rank(scores, durations)
        assert rs.entries == oracles.key_sort(scores, durations)
        assert all(type(e.score) is float and type(e.duration_s) is float
                   for e in rs.entries)

    def test_equality_compares_ids_scores_and_durations_in_order(self):
        base = _rank({"A": 0.9, "B": 0.1}, {"A": 1.0, "B": 2.0})
        assert base == _rank({"B": 0.1, "A": 0.9}, {"B": 2.0, "A": 1.0})
        assert base != _rank({"A": 0.9, "B": 0.2}, {"A": 1.0, "B": 2.0})
        assert base != _rank({"A": 0.9, "B": 0.1}, {"A": 1.0, "B": 3.0})
        assert base != _rank({"A": 0.9, "C": 0.1}, {"A": 1.0, "C": 2.0})
        assert base != base.entries


class TestColumnCore:
    """``rank_with_tie_break`` on the cases where codes, ids and float keys
    disagree, against the key-function sort."""

    IDS = ["b", "t9", "a", "t10"]  # first-run (code) order, not string order

    def test_id_order_breaks_full_ties(self):
        ids = self.IDS
        rs, order = rank_with_tie_break(ids, np.zeros(4), np.ones(4), sorted_ranks(ids))
        assert rs == RankedSuite(("a", "b", "t10", "t9"), np.zeros(4), np.ones(4))
        assert [ids[i] for i in order] == list(rs.test_ids)

    def test_sorted_ranks(self):
        assert sorted_ranks(self.IDS).tolist() == [1, 3, 0, 2]
        assert sorted_ranks([]).tolist() == []

    @pytest.mark.parametrize("durations", [[1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 2.0, 1.0]])
    def test_signed_zero_scores_tie(self, durations):
        ids = self.IDS
        scores = [0.0, -0.0, -0.0, 0.0]
        rs, _ = rank_with_tie_break(ids, np.array(scores), np.array(durations),
                                    sorted_ranks(ids))
        expected = oracles.key_sort(dict(zip(ids, scores)), dict(zip(ids, durations)))
        assert rs.entries == expected
        by_id = dict(zip(ids, scores))
        assert np.signbit(rs.scores).tolist() == [np.signbit(by_id[t]) for t in rs.test_ids]

    def test_model_scores_through_tie_break(self):
        ids = self.IDS
        model = constant_model(RankerKind.SVM, FeatureConfig())
        scores = score_matrix(model, np.zeros((4, FeatureConfig().dimension)))
        rs, _ = rank_with_tie_break(ids, scores, [1.0, 3.0, 1.0, 3.0], sorted_ranks(ids))
        assert rs.test_ids == ("a", "b", "t10", "t9")

    def test_random_scores_through_tie_break(self):
        ids = self.IDS
        scores = random_rank(4, 5)
        rs, _ = rank_with_tie_break(ids, scores, np.ones(4), sorted_ranks(ids))
        assert rs.test_ids == tuple(ids[i] for i in np.argsort(-scores))
        assert sorted(scores.tolist()) == [1.0, 2.0, 3.0, 4.0]


class TestRandomRank:
    def test_single_test(self):
        assert random_rank(1, seed=0).tolist() == [1.0]

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_rank(10, 7), random_rank(10, 7))

    def test_uniformity_over_orders(self):
        # Monte-Carlo oracle: all 6 orders of 3 tests at 1/6 +- 0.02
        ids = ["A", "B", "C"]
        durations, id_ranks = np.ones(3), sorted_ranks(ids)
        counts = {p: 0 for p in itertools.permutations(ids)}
        n = 10000
        for seed in range(n):
            counts[rank_with_tie_break(ids, random_rank(3, seed), durations, id_ranks)[0]
                   .test_ids] += 1
        for got in counts.values():
            assert abs(got / n - 1 / 6) < 0.02

    def test_scores_are_descending_ranks(self):
        n = 37  # the scores n..1 in the seed's permutation, which the tie-break keeps
        scores = random_rank(n, 3)
        perm = np.random.default_rng(3).permutation(n)
        assert scores[perm].tolist() == list(range(n, 0, -1))
        ids = [f"T{i}" for i in range(n)]
        rs, order = rank_with_tie_break(ids, scores, np.ones(n), sorted_ranks(ids))
        assert order.tolist() == perm.tolist()


def _window_with_failures():
    # most recent cycle = id 3: A fails.  B failed in cycles 1 and 2
    # (the 2nd and 3rd most recent).
    return slice_recent(history(
        cyc(0, ("A", "pass", 1.0), ("B", "pass", 2.0), ("C", "pass", 3.0)),
        cyc(1, ("A", "pass", 1.0), ("B", "fail", 2.0), ("C", "pass", 3.0)),
        cyc(2, ("A", "pass", 1.0), ("B", "fail", 2.0), ("C", "pass", 3.0)),
        cyc(3, ("A", "fail", 1.0), ("B", "pass", 2.0), ("C", "pass", 3.0)),
    ), 1.0)


def _failing(w):
    """The codes of each window cycle's failing tests, newest cycle first."""
    return [idx[c.failed] for c, idx in zip(w.cycles[::-1], w.codes[::-1])]


def _rocket_suite(w):
    """Rocket's ranking of every test of the window's history, by mean duration."""
    src = w.source
    return rank_with_tie_break(src.test_ids, rocket_priorities(_failing(w), src.n_tests),
                               src.means, sorted_ranks(src.test_ids))[0]


class TestRocket:
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_matches_per_execution_loop_on_churn(self, seed):
        h = churn_history(seed)
        prior = history_prefix(h, h.n_cycles - 1)
        params = RocketParams(weight_most_recent=0.3, weight_second=0.25, weight_older=0.15)
        ids = h.test_ids + ("NEVER-SEEN",)  # by code; the last one never ran
        for fraction in (0.05, 0.4, 1.0):
            w = slice_recent(prior, fraction)
            if fraction == 0.05:  # some tests are absent from the window
                assert set(h.test_ids) - {t for c in w.cycles for t in c.test_ids}
            for p in (RocketParams(), params):
                totals = rocket_priorities(_failing(w), len(ids), p)
                assert dict(zip(ids, totals.tolist())) == oracles.rocket_loop(w, ids, p)

    def test_weighted_sums(self):
        # oracle: A fails only in most recent -> 0.7
        #         B fails in 2nd and 3rd most recent -> 0.2 + 0.1 = 0.3
        a, b, c = rocket_priorities(_failing(_window_with_failures()), 3).tolist()
        assert a == pytest.approx(0.7)
        assert b == pytest.approx(0.3)
        assert c == 0.0

    def test_rank_order(self):
        assert _rocket_suite(_window_with_failures()).test_ids == ("A", "B", "C")

    def test_no_failures_falls_back_to_duration(self):
        w = slice_recent(history(
            cyc(0, ("A", "pass", 3.0), ("B", "pass", 1.0), ("C", "pass", 2.0)),
        ), 1.0)
        assert _rocket_suite(w).test_ids == ("B", "C", "A")

    def test_priority_bounds_and_zero_iff_never_failed(self, persistent_history):
        w = slice_recent(persistent_history, 0.4)
        ids = persistent_history.test_ids
        priorities = rocket_priorities(_failing(w), len(ids))
        k = w.n_cycles
        upper = 0.7 + 0.2 + 0.1 * (k - 2)
        failed_ever = {
            t for c in w.cycles for t, f in zip(c.test_ids, c.failed) if f
        }
        for tid, p in zip(ids, priorities.tolist()):
            assert 0.0 <= p <= upper + 1e-12
            assert (p == 0.0) == (tid not in failed_ever)

    def test_older_failures_add_one_at_a_time(self):
        # X fails in all 8 window cycles: 0.7, 0.2, then 0.1 six times added
        # in turn, which differs from 0.7 + 0.2 + 6 * 0.1 in the last bit
        cycles = [cyc(i, ("X", "fail", 1.0), ("Y", "pass", 1.0)) for i in range(8)]
        w = slice_recent(history(*cycles), 1.0)
        expected = 0.0
        for weight in [0.7, 0.2] + [0.1] * 6:
            expected += weight
        assert expected != 0.7 + 0.2 + 0.1 * 6
        assert rocket_priorities(_failing(w), 3).tolist() == [expected, 0.0, 0.0]
        assert _rocket_suite(w).entries[0] == RankedTest("X", expected, 1.0)

    def test_scores_of_an_empty_window_list(self):
        assert rocket_priorities([], 3).tolist() == [0.0, 0.0, 0.0]

    def test_custom_weights(self):
        params = RocketParams(weight_most_recent=1.0, weight_second=0.0, weight_older=0.0)
        priorities = rocket_priorities(_failing(_window_with_failures()), 3, params)
        assert priorities.tolist() == [1.0, 0.0, 0.0]


def _separable_set(n=60, d=4, seed=0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.4).astype(float)
    X = rng.normal(0, 0.3, size=(n, d))
    X[:, 0] += np.where(y > 0.5, 1.0, -1.0)
    return toy_training_set(X, y)


_KIND_OF = {fit_svm: RankerKind.SVM, fit_gbdt: RankerKind.GBDT, fit_ann: RankerKind.ANN,
            fit_lambdarank: RankerKind.LRN}


def _fit_alone(fitter, ts):
    """The default-params model of ``fitter``'s kind on ``ts``, fitted
    through ``FITTERS`` (whose entries take lists of training sets)."""
    kind = _KIND_OF[fitter]
    return FITTERS[kind]([ts], [default_params(kind)])[0]


class TestSvm:
    def test_separable_set_reaches_full_training_accuracy(self):
        ts = _separable_set()
        model = _fit_alone(fit_svm, ts)
        scores = score_matrix(model, ts.X)
        assert np.all((scores > 0) == (ts.y > 0.5))

    def test_single_class_degenerates(self):
        ts = toy_training_set(np.zeros((4, 2)), np.zeros(4))
        model = _fit_alone(fit_svm, ts)
        assert model.degenerate
        assert score_matrix(model, np.zeros((2, 2))).tolist() == [0.0, 0.0]

    def test_duplicated_examples_keep_score_ordering(self):
        ts = _separable_set()
        doubled = toy_training_set(np.vstack([ts.X, ts.X]), np.concatenate([ts.y, ts.y]))
        m1, m2 = fit_svm([ts, doubled], [SvmParams(), SvmParams()])
        pos_probe = ts.X[ts.y > 0.5][0]
        neg_probe = ts.X[ts.y < 0.5][0]
        for m in (m1, m2):
            assert score_matrix(m, pos_probe[None])[0] > score_matrix(m, neg_probe[None])[0]

    def test_deterministic_given_seed(self):
        ts = _separable_set()
        a, b = fit_svm([ts, ts], [SvmParams(seed=5), SvmParams(seed=5)])
        assert serialize_model(a) == serialize_model(b)

    def test_positive_affine_scaling_preserves_order(self):
        ts = _separable_set()
        m = _fit_alone(fit_svm, ts)
        payload = m.payload
        scaled = Model(kind=m.kind,
                       payload=SvmPayload(weights=2 * payload.weights,
                                          bias=2 * payload.bias),
                       stats=m.stats, config=m.config)
        probes = np.random.default_rng(3).normal(size=(20, ts.dimension))
        s1 = score_matrix(m, probes)
        s2 = score_matrix(scaled, probes)
        assert np.array_equal(np.argsort(-s1, kind="stable"),
                              np.argsort(-s2, kind="stable"))


class TestScoreAndSerialization:
    def test_svm_score_is_dot_product(self):
        # oracle: w = [1, 0], standardized v = [2, ...] -> 2.0
        stats = StandardizationStats(mean=np.zeros(2), std=np.ones(2))
        m = Model(kind=RankerKind.SVM,
                  payload=SvmPayload(weights=np.array([1.0, 0.0]), bias=0.0),
                  stats=stats, config=FeatureConfig())
        assert score_matrix(m, np.array([[2.0, 99.0]]))[0] == pytest.approx(2.0)

    def test_gbdt_zero_stages_scores_base(self):
        from testprio.rankers import GbdtParams

        ts = _separable_set()
        m = fit_gbdt(ts, GbdtParams(n_estimators=0))
        expected = np.log(np.mean(ts.y) / (1 - np.mean(ts.y)))
        got = score_matrix(m, ts.X)
        assert np.allclose(got, expected)

    def test_base_log_odds_clamped(self):
        from testprio.rankers import GbdtParams

        n = 30000
        y = np.zeros(n)
        y[0] = 1.0
        X = np.random.default_rng(0).normal(size=(n, 2))
        m = fit_gbdt(toy_training_set(X, y), GbdtParams(n_estimators=0))
        assert score_matrix(m, X[0][None])[0] == pytest.approx(-10.0)

    def test_ann_scores_within_unit_interval(self):
        ts = _separable_set(n=40)
        m, = fit_ann([ts], [default_params(RankerKind.ANN)])
        s = score_matrix(m, np.random.default_rng(1).normal(size=(50, ts.dimension)))
        assert np.all((s > 0) & (s < 1))

    @pytest.mark.parametrize("fitter", [fit_svm, fit_gbdt, fit_ann, fit_lambdarank])
    def test_serialization_round_trip_scores_identically(self, fitter):
        groups = np.repeat(np.arange(6), 10)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) < 0.4).astype(float)
        X[:, 0] += np.where(y > 0.5, 1.0, -1.0)
        ts = toy_training_set(X, y, groups)
        m = _fit_alone(fitter, ts)
        restored = deserialize_model(serialize_model(m))
        probes = rng.normal(size=(25, 4))
        assert np.array_equal(score_matrix(m, probes), score_matrix(restored, probes))
        assert serialize_model(restored) == serialize_model(m)

    @pytest.mark.parametrize("mutate", [
        lambda doc: [],
        lambda doc: 3,
        lambda doc: {k: v for k, v in doc.items() if k != "payload"},
        lambda doc: {**doc, "kind": "xgb"},
        lambda doc: {**doc, "stats": "none"},
    ], ids=["list", "number", "no-payload", "unknown-kind", "stats-not-object"])
    def test_well_formed_json_that_is_not_a_model(self, mutate):
        doc = json.loads(serialize_model(constant_model(RankerKind.SVM, FeatureConfig())))
        with pytest.raises(ModelFormatError) as exc:
            deserialize_model(json.dumps(mutate(doc)).encode())
        assert exc.value.__cause__ is not None

    # The exact bytes of one hand-built model per payload kind, so that a
    # change of the document format shows even where a model round-trips.
    PINNED_DOCS = {
        "constant": b'{"degenerate":true,"feature_config":{"decay":0.5,"standardize":false,'
                    b'"verdict_window":2},"kind":"svm","payload":{"type":"constant","value":0.0},'
                    b'"schema_version":1,"stats":{"mean":[0.1,-2.0],"std":[1.0,0.25]}}\n',
        "svm": b'{"degenerate":false,"feature_config":{"decay":0.5,"standardize":false,'
               b'"verdict_window":2},"kind":"svm","payload":{"bias":0.1,"type":"svm",'
               b'"weights":[0.5,-1.25]},"schema_version":1,'
               b'"stats":{"mean":[0.1,-2.0],"std":[1.0,0.25]}}\n',
        "mlp": b'{"degenerate":false,"feature_config":{"decay":0.5,"standardize":false,'
               b'"verdict_window":2},"kind":"ann","payload":{"layers":[{"W":[[1.0,-0.5],'
               b'[0.25,2.0]],"b":[0.0,0.1]},{"W":[[1.5],[-1.0]],"b":[0.3]}],'
               b'"sigmoid_output":true,"type":"mlp"},"schema_version":1,'
               b'"stats":{"mean":[0.1,-2.0],"std":[1.0,0.25]}}\n',
        "gbdt": b'{"degenerate":false,"feature_config":{"decay":0.5,"standardize":false,'
                b'"verdict_window":2},"kind":"gbdt","payload":{"base_score":-1.2,'
                b'"shrinkage":0.1,"train_loss_trace":[0.69,0.5],"trees":[{"feature":[0,-1,-1],'
                b'"left":[1,-1,-1],"right":[2,-1,-1],"threshold":[0.5,0.0,0.0],'
                b'"value":[0.0,-0.3,1.5]}],"type":"gbdt"},"schema_version":1,'
                b'"stats":{"mean":[0.1,-2.0],"std":[1.0,0.25]}}\n',
    }

    @staticmethod
    def _pinned_model(name):
        tree = GbdtTree(feature=np.array([0, -1, -1], dtype=np.int32),
                        threshold=np.array([0.5, 0.0, 0.0]),
                        left=np.array([1, -1, -1], dtype=np.int32),
                        right=np.array([2, -1, -1], dtype=np.int32),
                        value=np.array([0.0, -0.3, 1.5]))
        kind, payload = {
            "constant": (RankerKind.SVM, ConstantPayload()),
            "svm": (RankerKind.SVM, SvmPayload(weights=np.array([0.5, -1.25]), bias=0.1)),
            "mlp": (RankerKind.ANN, MlpPayload(
                layers=((np.array([[1.0, -0.5], [0.25, 2.0]]), np.array([0.0, 0.1])),
                        (np.array([[1.5], [-1.0]]), np.array([0.3]))),
                sigmoid_output=True)),
            "gbdt": (RankerKind.GBDT, GbdtPayload(base_score=-1.2, shrinkage=0.1, trees=(tree,),
                                                   train_loss_trace=(0.69, 0.5))),
        }[name]
        return Model(kind=kind, payload=payload,
                     stats=StandardizationStats(mean=np.array([0.1, -2.0]),
                                                std=np.array([1.0, 0.25])),
                     config=FeatureConfig(verdict_window=2, decay=0.5, standardize=False),
                     degenerate=name == "constant")

    @pytest.mark.parametrize("name", ["constant", "svm", "mlp", "gbdt"])
    def test_serialized_bytes_are_pinned(self, name):
        data = serialize_model(self._pinned_model(name))
        assert data == self.PINNED_DOCS[name]
        assert serialize_model(deserialize_model(data)) == data

    def test_constant_model_rank_falls_back_to_tie_rule(self):
        m = constant_model(RankerKind.SVM, FeatureConfig())
        ids = ["A", "B", "C"]
        scores = score_matrix(m, np.zeros((3, m.dimension)))
        rs, _ = rank_with_tie_break(ids, scores, [3.0, 1.0, 2.0], sorted_ranks(ids))
        assert rs.test_ids == ("B", "C", "A")

    def test_every_kind_ranks_a_permutation(self, persistent_history):
        from testprio.features import build_training_set, feature_matrix

        w = slice_recent(persistent_history, 0.2)
        cfg = FeatureConfig()
        ts = build_training_set(w, cfg)
        ids = list(persistent_history.cycles[-1].test_ids)
        codes = persistent_history.codes[-1]
        rows = feature_matrix(w, codes, cfg)
        columns = [random_rank(len(ids), 1),
                   rocket_priorities(_failing(w), persistent_history.n_tests)[codes]]
        for fitter in (fit_svm, fit_gbdt, fit_ann, fit_lambdarank):
            columns.append(score_matrix(_fit_alone(fitter, ts), rows))
        for scores in columns:
            rs, _ = rank_with_tie_break(ids, scores, persistent_history.means[codes],
                                        sorted_ranks(ids))
            assert sorted(rs.test_ids) == sorted(ids)


def test_params_from_config():
    cfg = {"svm.epochs": "20", "svm.l2": "0.001", "gbdt.n_estimators": "10"}
    svm = params_from_config(RankerKind.SVM, cfg)
    assert svm.epochs == 20 and svm.l2 == 0.001
    gbdt = params_from_config(RankerKind.GBDT, cfg)
    assert gbdt.n_estimators == 10
    from testprio.errors import ConfigError

    with pytest.raises(ConfigError):
        params_from_config(RankerKind.SVM, {"svm.bogus": "1"})


@pytest.mark.parametrize("key, text", [
    ("svm.epochs", "key 'svm.epochs': not an integer: 'x'"),
    ("svm.l2", "key 'svm.l2': not a number: 'x'"),
])
def test_ranker_key_of_wrong_type_fails_like_every_config_key(key, text):
    from testprio.errors import ConfigError

    with pytest.raises(ConfigError) as exc:
        params_from_config(RankerKind.SVM, {key: "x"})
    assert str(exc.value) == text


@pytest.mark.parametrize("labels", [
    [1, 0, 0, 0],
    [0, 1, 0, 1, 1, 0, 0, 0, 0, 0],
    [0.0] * 226 + [1.0],
    [1, 1, 0],
])
def test_class_weights_offset_the_failing_label(labels):
    y = np.array(labels, dtype=np.float64)
    n_pos = sum(v > 0.5 for v in labels)
    n_neg = len(labels) - n_pos
    expected = [n_neg / n_pos if v > 0.5 else 1.0 for v in labels]
    assert class_weights(y).tolist() == expected  # bit for bit


@pytest.mark.parametrize("cls, field, value", [
    (GbdtParams, "min_samples_leaf", -3),
    (GbdtParams, "max_depth", -1),
    (AnnParams, "hidden1", 0),
    (AnnParams, "learning_rate", float("nan")),
    (LrnParams, "restarts", 0),
    (SvmParams, "batch_size", 0),
    (RocketParams, "weight_older", float("inf")),
])
def test_params_constructor_rejects_out_of_range(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def test_params_accept_defaults_and_minimums():
    for cls in PARAM_TYPES.values():
        cls()
    GbdtParams(n_estimators=0, max_depth=0, min_samples_leaf=1)
    AnnParams(hidden1=1, hidden2=1, epochs=0, batch_size=1, restarts=1)


def test_with_seed_sets_the_seed_and_rechecks():
    assert with_seed(GbdtParams(n_estimators=5), 7) == GbdtParams(n_estimators=5, seed=7)
    with pytest.raises(ValueError, match="seed"):
        with_seed(SvmParams(), float("nan"))


def _masked_sigmoid(x):
    """The former ``_stable_sigmoid``: one boolean-mask gather per sign."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_stable_sigmoid_equals_masked_formula():
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
             36.7, -36.7, tiny, -tiny, tiny / 8, -tiny / 8, 5e-324, -5e-324]
    rng = np.random.default_rng(0)
    x = np.concatenate([edges, rng.normal(0, 30, 5000), rng.uniform(-800, 800, 2000)])
    assert np.array_equal(_stable_sigmoid(x), _masked_sigmoid(x), equal_nan=True)


def test_stable_sigmoid_equals_two_denominator_form():
    """One ``1 + e`` serves both branches, bit for bit."""
    x = np.array([0.0, -0.0, 710.0, -710.0, 1e-300, -1e-300, np.nan])
    e = np.exp(-np.abs(x))
    two = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = _stable_sigmoid(x)
    assert out.tobytes() == two.tobytes()
    assert np.isnan(out[-1]) and out[0] == out[1] == 0.5
