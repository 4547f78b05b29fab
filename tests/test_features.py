import numpy as np
import pytest

from testprio.domain import (
    HistoryWindow,
    history_prefix,
    slice_recent,
    validate_history,
)
from testprio.errors import AlphaOutOfRange, DimensionMismatch, WindowTooSmall
from testprio.features import (
    FeatureConfig,
    StandardizationStats,
    build_training_set,
    compute_stats,
    feature_matrix,
)
from testprio.rankers import Model, RankerKind, SvmPayload, score_matrix

from .conftest import churn_history, cyc, history
from .oracles import build_feature_vector, recency_failure_score

F = True
P = False


def _codes(h, test_ids):
    """The registry codes of ``test_ids`` in history ``h``."""
    return [h.test_ids.index(tid) for tid in test_ids]


def _recency_scores(failed_most_recent_first, alpha):
    """The oracle's recency score and the program's recency feature (from
    ``feature_matrix``) for one test with these verdicts."""
    h = history(*(cyc(i, ("A", "fail" if f else "pass", 1.0))
                  for i, f in enumerate(reversed(failed_most_recent_first))))
    cfg = FeatureConfig(decay=alpha)
    program = feature_matrix(slice_recent(h, 1.0), _codes(h, ["A"]), cfg)[0, cfg.verdict_window + 2]
    return recency_failure_score(failed_most_recent_first, alpha), program


class TestRecencyScore:
    def test_single_most_recent_failure(self):
        for s in _recency_scores([F], 0.8):
            assert s == pytest.approx(1.0)

    def test_all_pass_is_zero(self):
        for s in _recency_scores([P, P, P], 0.8):
            assert s == 0.0

    def test_direct_summation(self):
        # oracle: 1*0.8^0 + 0*0.8^1 + 1*0.8^2 = 1.64
        for s in _recency_scores([F, P, F], 0.8):
            assert s == pytest.approx(1.64)

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(AlphaOutOfRange):
                recency_failure_score([F], alpha)
            with pytest.raises(AlphaOutOfRange):
                FeatureConfig(decay=alpha)

    def test_monotone_in_added_failures(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            verdicts = [F if rng.random() < 0.5 else P for _ in range(n)]
            base, program = _recency_scores(verdicts, 0.8)
            assert program == pytest.approx(base)
            passes = [i for i, v in enumerate(verdicts) if v is P]
            for i in passes:
                flipped = list(verdicts)
                flipped[i] = F
                assert recency_failure_score(flipped, 0.8) > base

    def test_bounded_by_geometric_sum(self):
        alpha = 0.8
        for score in _recency_scores([F] * 200, alpha):
            assert score <= 1.0 / (1.0 - alpha) + 1e-12
        for score in _recency_scores([F] * 5, alpha):
            assert score < 1.0 / (1.0 - alpha)


def _three_cycle_window():
    h = history(
        cyc(0, ("A", "fail", 2.0), ("B", "pass", 4.0)),
        cyc(1, ("A", "fail", 2.0), ("B", "pass", 4.0)),
        cyc(2, ("A", "fail", 2.0), ("B", "pass", 4.0)),
    )
    return slice_recent(h, 1.0)


def _vectors(w, test_id, as_of_cycle):
    """The oracle's features of one test as of ``as_of_cycle`` and the
    program's row for it (``feature_matrix`` on the window ending there)."""
    cfg = FeatureConfig()
    program = feature_matrix(HistoryWindow(w.source, w.lo, as_of_cycle),
                             _codes(w.source, [test_id]), cfg)[0]
    return build_feature_vector(w, test_id, cfg, as_of_cycle=as_of_cycle), program


class TestBuildFeatureVector:
    def test_never_executed_test_is_all_zero_history(self):
        h = history(
            cyc(0, ("A", "pass", 1.0)),
            cyc(1, ("A", "pass", 1.0), ("B", "fail", 2.0)),
        )
        w = slice_recent(h, 1.0)
        for v in _vectors(w, "B", 1):
            # slots, presence, rate, recency all zero; only duration is set
            assert np.allclose(v[:7], 0.0)
            assert v[7] == pytest.approx(1.0)  # B has the max duration

    def test_fail_streak_slots_rate_and_score(self):
        # oracle: 3 prior failing cycles, F=4 -> slots [1,1,1,0],
        # rate 1.0, score 1 + 0.8 + 0.64 = 2.44
        w = _three_cycle_window()
        for v in _vectors(w, "A", 3):
            assert list(v[:4]) == [1.0, 1.0, 1.0, 0.0]
            assert v[4] == pytest.approx(1.0)   # presence
            assert v[5] == pytest.approx(1.0)   # failure rate
            assert v[6] == pytest.approx(2.44)  # recency score
            assert v[7] == pytest.approx(0.5)   # 2s / max 4s

    def test_duration_normalization_is_only_difference(self):
        # oracle: identical verdicts, durations 2 vs 4 (max 4) -> 0.5 vs 1.0
        h = history(
            cyc(0, ("A", "fail", 2.0), ("B", "fail", 4.0)),
            cyc(1, ("A", "pass", 2.0), ("B", "pass", 4.0)),
        )
        w = slice_recent(h, 1.0)
        for va, vb in zip(_vectors(w, "A", 2), _vectors(w, "B", 2)):
            assert np.allclose(va[:7], vb[:7])
            assert va[7] == pytest.approx(0.5)
            assert vb[7] == pytest.approx(1.0)

    def test_unknown_test_raises(self):
        w = _three_cycle_window()
        with pytest.raises(KeyError):
            build_feature_vector(w, "ZZZ", FeatureConfig(), as_of_cycle=2)

    def test_features_ignore_cycles_at_or_after_as_of(self):
        # no-leakage: verdict at the as_of cycle must not matter
        h1 = history(
            cyc(0, ("A", "fail", 1.0)),
            cyc(1, ("A", "pass", 1.0)),
            cyc(2, ("A", "fail", 1.0)),
        )
        h2 = history(
            cyc(0, ("A", "fail", 1.0)),
            cyc(1, ("A", "pass", 1.0)),
            cyc(2, ("A", "pass", 1.0)),
        )
        w1 = slice_recent(h1, 1.0)
        w2 = slice_recent(h2, 1.0)
        for v1, v2 in zip(_vectors(w1, "A", 2), _vectors(w2, "A", 2)):
            assert np.array_equal(v1, v2)


def _example_ids(w):
    """Each training example's test id: the window's cycles after the first,
    their tests in recorded order."""
    return [t for c in w.cycles[1:] for t in c.test_ids]


class TestBuildTrainingSet:
    def test_two_cycles_three_tests(self):
        # oracle: enumeration -> 3 examples, one group
        h = history(
            cyc(0, ("A", "pass", 1.0), ("B", "fail", 1.0), ("C", "pass", 1.0)),
            cyc(1, ("A", "fail", 1.0), ("B", "pass", 1.0), ("C", "pass", 1.0)),
        )
        ts = build_training_set(slice_recent(h, 1.0), FeatureConfig())
        assert ts.n_examples == 3
        assert len(ts.group_slices()) == 1
        assert list(ts.y) == [1.0, 0.0, 0.0]

    def test_example_count_formula(self):
        # oracle: n tests in all of k cycles -> n * (k - 1) examples
        n, k = 4, 6
        cycles = [
            cyc(i, *[(f"T{j}", "pass", 1.0) for j in range(n)]) for i in range(k)
        ]
        ts = build_training_set(slice_recent(validate_history(cycles), 1.0),
                                FeatureConfig())
        assert ts.n_examples == n * (k - 1)

    def test_single_class_flag(self):
        h = history(
            cyc(0, ("A", "pass", 1.0)),
            cyc(1, ("A", "pass", 1.0)),
        )
        ts = build_training_set(slice_recent(h, 1.0), FeatureConfig())
        assert ts.single_class

    def test_window_too_small(self):
        h = history(cyc(0, ("A", "pass", 1.0)))
        with pytest.raises(WindowTooSmall):
            build_training_set(slice_recent(h, 1.0), FeatureConfig())

    def test_labels_match_verdicts(self, persistent_history):
        w = slice_recent(persistent_history, 0.2)
        ts = build_training_set(w, FeatureConfig())
        by_cycle = {c.cycle_id: c for c in w.cycles}
        ids = _example_ids(w)
        assert len(ids) == ts.n_examples
        for i in range(0, ts.n_examples, 97):
            c = by_cycle[ts.group_cycle_ids[i]]
            pos = c.test_ids.index(ids[i])
            assert ts.y[i] == float(c.failed[pos])

    def test_standardized_moments(self, persistent_history):
        ts = build_training_set(slice_recent(persistent_history, 0.5), FeatureConfig())
        Z = ts.standardized()
        mean = Z.mean(axis=0)
        std = Z.std(axis=0)
        raw_std = ts.X.std(axis=0)
        assert np.all(np.abs(mean) < 1e-9)
        nondegenerate = raw_std > 0
        assert np.all(np.abs(std[nondegenerate] - 1.0) < 1e-9)

    def test_no_leakage_against_truncated_window(self, persistent_history):
        # recomputing an example's features after deleting its cycle and all
        # later ones must give the identical vector
        w = slice_recent(persistent_history, 0.3)
        cfg = FeatureConfig()
        ts = build_training_set(w, cfg)
        ids = _example_ids(w)
        positions = {c.cycle_id: i for i, c in enumerate(persistent_history.cycles)}
        for i in range(0, ts.n_examples, 511):
            gid = int(ts.group_cycle_ids[i])
            pos = positions[gid]
            truncated = validate_history(persistent_history.cycles[: pos])
            w2 = HistoryWindow(source=truncated, lo=w.lo, hi=pos)
            v = build_feature_vector(w2, ids[i], cfg, as_of_cycle=pos)
            # duration normalization differs (registry shrinks), so compare
            # the history-derived components only
            assert np.allclose(v[:7], ts.X[i, :7], atol=0, rtol=0)

    def test_vectorized_matches_per_test_op(self, persistent_history):
        w = slice_recent(persistent_history, 0.2)
        cfg = FeatureConfig()
        ts = build_training_set(w, cfg)
        ids = _example_ids(w)
        positions = {c.cycle_id: i for i, c in enumerate(persistent_history.cycles)}
        for i in range(0, ts.n_examples, 211):
            pos = positions[int(ts.group_cycle_ids[i])]
            v = build_feature_vector(w, ids[i], cfg, as_of_cycle=pos)
            assert np.allclose(v, ts.X[i], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_vectorized_matches_per_test_op_on_churn(self, seed):
        h = churn_history(seed)
        cfg = FeatureConfig()
        positions = {c.cycle_id: i for i, c in enumerate(h.cycles)}
        for fraction in (0.1, 0.5):
            w = slice_recent(history_prefix(h, h.n_cycles - 5), fraction)
            ts = build_training_set(w, cfg)
            ids = _example_ids(w)
            for i in range(0, ts.n_examples, 7):
                pos = positions[int(ts.group_cycle_ids[i])]
                v = build_feature_vector(w, ids[i], cfg, as_of_cycle=pos)
                assert np.array_equal(v, ts.X[i])


def _linear_model(weights, stats):
    return Model(kind=RankerKind.SVM, payload=SvmPayload(weights=weights, bias=0.0),
                 stats=stats, config=FeatureConfig())


def _standardize(values, stats):
    """One raw row as ``score_matrix`` standardizes it, read component by
    component through unit-weight linear models."""
    return np.array([score_matrix(_linear_model(e, stats), values[None])[0]
                     for e in np.eye(len(values))])


class TestStandardize:
    def test_identity_stats(self):
        v = np.array([1.0, -2.0])
        stats = StandardizationStats(mean=np.zeros(2), std=np.ones(2))
        assert np.array_equal(_standardize(v, stats), v)

    def test_simple_arithmetic(self):
        # oracle: (4 - 2) / 2 = 1
        v = np.array([4.0])
        stats = StandardizationStats(mean=np.array([2.0]), std=np.array([2.0]))
        assert _standardize(v, stats)[0] == pytest.approx(1.0)

    def test_zero_variance_passthrough(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        stats = compute_stats(X)
        assert stats.std[0] == 1.0  # guarded
        z = _standardize(np.array([3.0, 1.5]), stats)
        assert z[0] == pytest.approx(0.0)  # value minus mean

    def test_dimension_mismatch(self):
        stats = StandardizationStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(DimensionMismatch):
            score_matrix(_linear_model(np.zeros(3), stats), np.array([[1.0, 2.0]]))


class TestFeatureMatrix:
    def test_matches_per_test_vectors_one_past_window(self, persistent_history):
        w = slice_recent(persistent_history, 0.2)
        cfg = FeatureConfig()
        ids = list(persistent_history.registry)[:10]
        rows = feature_matrix(w, _codes(persistent_history, ids), cfg)
        for i, tid in enumerate(ids):
            v = build_feature_vector(w, tid, cfg, as_of_cycle=w.hi)
            assert np.allclose(rows[i], v, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_matches_per_test_vectors_on_churn(self, seed):
        # includes tests that ran before the window but not inside it
        h = churn_history(seed)
        cfg = FeatureConfig()
        prior = history_prefix(h, h.n_cycles - 1)
        for fraction in (0.05, 0.3, 1.0):
            w = slice_recent(prior, fraction)
            ids = list(prior.registry)
            if fraction == 0.05:
                assert set(ids) - {t for c in w.cycles for t in c.test_ids}
            rows = feature_matrix(w, _codes(prior, ids), cfg)
            for i, tid in enumerate(ids):
                v = build_feature_vector(w, tid, cfg, as_of_cycle=w.hi)
                assert np.array_equal(rows[i], v)

    def test_code_past_registry_gets_mean_duration(self):
        # a test with no recorded run: zero history, and the registry's mean
        # duration over its max, (2 + 4) / 2 / 4; known codes are unaffected
        w = _three_cycle_window()
        cfg = FeatureConfig()
        rows = feature_matrix(w, [2, 0, 10**6], cfg)
        for row in rows[[0, 2]]:
            assert np.array_equal(row[:7], np.zeros(7))
            assert row[7] == 0.75
        assert np.array_equal(rows[1], build_feature_vector(w, "A", cfg, as_of_cycle=w.hi))

    def test_dimension_constant_across_tests(self, persistent_history):
        cfg = FeatureConfig(verdict_window=6)
        w = slice_recent(persistent_history, 0.4)
        rows = feature_matrix(w, range(persistent_history.n_tests), cfg)
        assert rows.shape == (persistent_history.n_tests, cfg.dimension)
