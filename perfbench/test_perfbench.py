"""Tests of the benchmark's own arithmetic and input generation.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import shapes  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_subtracts_nested_children():
    s = [
        Span("trace.root", 0.0, 10.0, -1, "r"),
        Span("replay.walk", 1.0, 9.0, 0, "r"),
        Span("rankers.fit.svm", 2.0, 5.0, 1, "r"),
        Span("replay.cut", 6.0, 7.0, 1, "r"),
    ]
    assert spans.self_times(s) == pytest.approx([2.0, 4.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # two pool workers running units at the same time under one grid span
    s = [
        Span("bench.grid", 0.0, 10.0, -1, "r"),
        Span("bench.unit", 1.0, 6.0, 0, "r"),
        Span("bench.unit", 4.0, 8.0, 0, "r"),
        Span("bench.unit", 9.0, 12.0, 0, "r"),  # clipped to the parent's end
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_covered_handles_empty_and_disjoint():
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert spans.covered([(0.0, 1.0), (2.0, 3.0)], 0.5, 2.5) == pytest.approx(1.0)


def test_layer_self_times_sum_to_root_duration():
    s = [
        Span("trace.root", 0.0, 10.0, -1, "a"),
        Span("bench.grid", 0.5, 9.5, 0, "a"),
        Span("bench.unit", 1.0, 9.0, 1, "a"),
        Span("replay.walk", 1.5, 8.5, 2, "a"),
        Span("rankers.fit.gbdt", 2.0, 6.0, 3, "a"),
        Span("trace.root", 20.0, 30.0, -1, "b"),  # another run, ignored
    ]
    layers = spans.layer_self_times(s, "a")
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["bench.grid_s"] == pytest.approx(1.0 + 1.0)  # grid and unit glue
    assert layers["rankers.fit_s.gbdt"] == pytest.approx(4.0)
    assert layers["trace.other_s"] == pytest.approx(1.0)


def test_tail_needs_eleven_samples():
    assert spans.tail([1.0] * 10) is None
    value, pct, n = spans.tail([float(i) for i in range(11)])
    assert (value, n) == (0.0, 11)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]
    value, pct, n = spans.tail(samples)
    assert sum(1 for x in samples if x > value) == 10
    assert (value, pct, n) == (90.0, 90.0, 100)


def test_google_history_is_byte_deterministic():
    a = shapes.google_csv(7, n_tests=300, n_cycles=40)
    assert a == shapes.google_csv(7, n_tests=300, n_cycles=40)
    assert a != shapes.google_csv(8, n_tests=300, n_cycles=40)


def test_google_history_has_churn():
    from testprio.ingest import dataset_stats, parse_canonical

    h = parse_canonical(shapes.google_csv(3, n_tests=1000, n_cycles=40))
    sizes = [len(c) for c in h.cycles]
    assert 0.55 < sizes[-1] / h.n_tests < 0.8
    assert sizes[0] < sizes[-1]  # late tests join in the second half
    assert 0.0 < dataset_stats(h).failed_execution_fraction < 0.02


def test_install_restores_originals_and_reports_absent_sites(monkeypatch):
    from testprio import ingest

    original = ingest.parse_canonical
    monkeypatch.setattr(spans, "CALL_SITES", spans.CALL_SITES + (
        ("gone.layer", "testprio.ingest", "no_such_function", None),))
    data = shapes.google_csv(1, n_tests=50, n_cycles=5)
    tracer = spans.Tracer()
    inst = spans.install(tracer)
    try:
        assert ingest.parse_canonical is not original
        h = ingest.parse_canonical(data)
    finally:
        inst.restore()
    assert ingest.parse_canonical is original
    assert "gone.layer" in inst.absent
    names = [s.name for s in tracer.spans]
    assert names == ["ingest.parse", "domain.validate"]
    assert tracer.counts[("", "ingest.parse")] == h.n_executions


def test_wrap_hands_each_call_to_the_sink_with_or_without_a_span():
    tracer = spans.Tracer()
    sink: list = []
    timed = spans.wrap(lambda x, y=1: x + y, tracer, "replay.walk", sink=sink)
    observed = spans.wrap(lambda x: -x, None, "replay.walk", sink=sink)
    assert timed(2, y=3) == 5
    assert observed(4) == -4
    assert sink == [((2,), {"y": 3}, 5), ((4,), {}, -4)]
    assert [s.name for s in tracer.spans] == ["replay.walk"]
