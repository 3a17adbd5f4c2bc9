"""Tests of the benchmark's own logic; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

import summary
from checkreq import MOVED, NEAR, Pinned, RequestStream, origin_strictly_inside
from spans import Span, layer_metrics, span_self_times
from workloads import import_engine

F = Fraction


class _Group:
    def __init__(self, kind, matrices=(), fixed_vector=(), reflection=True):
        self.kind, self.matrices = kind, matrices
        self.fixed_vector, self.reflection = fixed_vector, reflection


def _square(ident):
    return Pinned(ident, "toric", {"n": 2}, ((F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))))


PINNED = [
    _square("a"),
    Pinned("b", "x", {}, ((F(-1),), (F(1, 2),))),
    Pinned("c", "y", {}, ((F(1), F(0)), (F(0), F(1)), (F(-1), F(-1)))),
]
GROUPS = {
    "a": _Group("FullUnimodular"),
    "b": _Group("FiniteList", matrices=(((1,),), ((-1,),))),
    "c": _Group("ShearClass", fixed_vector=(1, 0)),
}


def _block(seed, size=200):
    return RequestStream(seed, PINNED, GROUPS).block(size)


def test_request_list_repeats_for_a_seed_and_differs_across_seeds():
    assert _block(7) == _block(7)
    assert _block(7) != _block(8)


def test_request_list_is_half_moved_copies():
    kinds = [r.kind for r in _block(3)]
    assert kinds.count(MOVED) == kinds.count(NEAR) == 100


def test_near_misses_keep_the_origin_strictly_interior_and_move_one_vertex():
    for req in _block(11, 400):
        if req.kind != NEAR:
            continue
        assert origin_strictly_inside(req.vertices)
        moved = set(req.vertices) - set(req.pinned.vertices)
        assert len(moved) == 1
        (v,) = moved
        assert any(sum(abs(a - b) for a, b in zip(v, w)) == 1 for w in req.pinned.vertices)


def test_origin_interior_predicate():
    assert origin_strictly_inside([(F(-1),), (F(1, 2),)])
    assert not origin_strictly_inside([(F(0),), (F(1),)])
    assert origin_strictly_inside([(1, 0), (0, 1), (-1, -1)])
    assert not origin_strictly_inside([(1, 0), (0, 1), (-1, 0)])  # origin on an edge
    assert not origin_strictly_inside([(1, 1), (2, 1), (1, 2)])


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert summary.tail(list(range(19))) is None  # median has only 9 beyond
    p, v, beyond = summary.tail(list(range(20)))
    assert (p, beyond) == (50.0, 10)
    p, v, beyond = summary.tail([float(i) for i in range(1, 1001)])
    assert (p, v, beyond) == (99.0, 990.0, 10)
    p, v, beyond = summary.tail([float(i) for i in range(1, 1000)])
    assert (p, beyond) == (90.0, 99)


def test_percentile_nearest_rank():
    assert summary.percentile([5, 1, 3], 50) == 3
    assert summary.percentile([1, 2, 3, 4], 50) == 2
    assert summary.percentile([1, 2, 3, 4], 100) == 4
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_self_time_subtracts_the_union_of_children():
    assert summary.self_time(0.0, 10.0, []) == 10.0
    assert summary.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping children (two workers) count once; parts outside are clipped
    assert summary.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0


def test_self_times_on_nested_spans():
    spans = [
        Span("catalog.build_catalog", 0.0, 10.0, -1, 1),
        Span("search.enumerate_rank2", 1.0, 8.0, 0, 1, ["FullUnimodular", 2]),
        Span("core.check_reflexive", 2.0, 3.0, 1, 1, True),
        Span("core.check_reflexive", 4.0, 4.5, 1, 1, False),
        Span("search.canonical_form", 6.0, 7.0, 1, 1),
        Span("geometry.transform_polytope", 6.2, 6.6, 4, 1),
    ]
    assert span_self_times(spans) == pytest.approx([3.0, 4.5, 1.0, 0.5, 0.6, 0.4])
    m = layer_metrics(spans, jobs=1)
    assert m["search.enumerate_rank2.self_s"] == pytest.approx(4.5)
    assert m["search.enumerate_rank2.self_s.full_unimodular"] == pytest.approx(4.5)
    assert m["search.walk.reflexive_checks"] == 2
    assert m["search.walk.raw_accepts"] == 1
    assert m["search.walk.classes"] == 2
    assert m["search.walk.accept_ratio"] == 0.5
    assert m["search.walk.dedup_ratio"] == 2.0
    assert m["core.check_reflexive.calls"] == 2
    assert m["search.canonical_form.total_s"] == pytest.approx(1.0)


def test_pool_metrics_across_workers():
    spans = [
        Span("catalog.build_catalog", 0.0, 10.0, -1, 1),
        Span("search.enumerate_polytopes", 0.0, 6.0, -1, 2),
        Span("search.enumerate_polytopes", 6.0, 9.0, -1, 2),
        Span("search.enumerate_polytopes", 0.0, 4.0, -1, 3),
    ]
    m = layer_metrics(spans, jobs=2)
    assert m["catalog.pool.busy_s"] == pytest.approx(13.0)
    assert m["catalog.pool.efficiency"] == pytest.approx(0.65)
    assert m["catalog.pool.tail_s"] == pytest.approx(5.0)
    assert m["catalog.job_s.max"] == pytest.approx(6.0)


def test_layer_times_are_rescaled_by_the_factor_over_each_span():
    spans = [
        Span("catalog.build_catalog", 0.0, 10.0, -1, 1),
        Span("search.enumerate_polytopes", 0.0, 6.0, -1, 2),
        Span("search.enumerate_polytopes", 0.0, 4.0, -1, 3),
        Span("geometry.transform_polytope", 1.0, 2.0, 1, 2),
    ]

    def factor(start, end):  # twice the reference speed before t=5, then at it
        return 2.0 if end <= 5.0 else 1.0

    assert span_self_times(spans, factor) == pytest.approx([10.0, 5.0, 8.0, 2.0])
    m = layer_metrics(spans, jobs=2, factor=factor)
    assert m["geometry.transform_polytope.total_s"] == pytest.approx(2.0)
    assert m["catalog.pool.busy_s"] == pytest.approx(14.0)
    assert m["catalog.pool.efficiency"] == pytest.approx(0.7)
    assert m["catalog.pool.tail_s"] == pytest.approx(2.0)
    assert m["catalog.job_s.max"] == pytest.approx(8.0)


def test_tracer_wraps_every_lookup_site_and_restores_them(tmp_path):
    import_engine()
    import sphfano
    from sphfano import core, invariants, search
    from spans import Tracer

    original = core.check_reflexive
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert search.check_reflexive is core.check_reflexive is invariants.check_reflexive
        assert sphfano.check_reflexive is core.check_reflexive
        assert core.check_reflexive is not original
    finally:
        tracer.uninstall()
    assert search.check_reflexive is original and invariants.check_reflexive is original


def test_speed_factor_weights_samples_inside_the_interval_by_busy_ticks():
    from speed import REF_SNIPPET_S, Speedometer

    m = Speedometer([0, 1])
    m.samples = {
        0: [(0.0, REF_SNIPPET_S, 0), (1.0, REF_SNIPPET_S, 25), (2.0, 2 * REF_SNIPPET_S, 50)],
        1: [(0.0, REF_SNIPPET_S, 0), (1.5, REF_SNIPPET_S / 2, 0)],  # idle CPU
    }
    assert m.factor(0.5, 2.5, [0]) == pytest.approx(0.75)
    assert m.factor(0.5, 2.5) == pytest.approx(0.75)  # the idle CPU has no weight
    assert m.factor(1.2, 1.8, [1]) == pytest.approx(2.0)  # all idle: equal weights
    assert m.factor(2.9, 3.0, [0]) == pytest.approx(0.5)  # nearest sample
    with pytest.raises(RuntimeError):
        Speedometer([0]).factor(0.0, 1.0)
