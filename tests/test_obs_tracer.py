"""Span tree well-formedness: the tracer on real simulated runs."""

from __future__ import annotations

import pytest

from repro.core.runner import run_algorithm
from repro.obs import Tracer
from repro.obs.tracer import NODE, OPERATOR, PHASE, QUERY


def traced(algorithm, dist, query, **kw):
    tracer = Tracer(**kw)
    outcome = run_algorithm(algorithm, dist, query, tracer=tracer)
    return tracer, outcome


class TestSpanTree:
    def test_exactly_one_query_span(self, small_dist, sum_query):
        tracer, outcome = traced("two_phase", small_dist, sum_query)
        roots = tracer.spans_by_cat(QUERY)
        assert len(roots) == 1
        (query_span,) = roots
        assert query_span.track == -1
        assert query_span.parent_id is None
        assert query_span.start == 0.0
        assert query_span.end == pytest.approx(outcome.elapsed_seconds)

    def test_node_spans_are_query_children(self, small_dist, sum_query):
        tracer, outcome = traced("two_phase", small_dist, sum_query)
        (query_span,) = tracer.spans_by_cat(QUERY)
        node_spans = tracer.spans_by_cat(NODE)
        assert len(node_spans) == small_dist.num_nodes
        assert sorted(s.track for s in node_spans) == list(
            range(small_dist.num_nodes)
        )
        for span in node_spans:
            assert span.parent_id == query_span.span_id
            assert span.end == pytest.approx(
                outcome.metrics.node(span.track).finish_time
            )

    def test_phase_spans_nest_under_their_node(self, small_dist, sum_query):
        tracer, _ = traced("two_phase", small_dist, sum_query)
        by_id = {s.span_id: s for s in tracer.spans}
        phases = tracer.spans_by_cat(PHASE)
        assert phases, "algorithm bodies must emit phase spans"
        assert {p.name for p in phases} == {
            "local_aggregation", "flush_partials", "merge",
        }
        for phase in phases:
            parent = by_id[phase.parent_id]
            assert parent.cat == NODE
            assert parent.track == phase.track

    def test_parent_interval_contains_child(self, small_dist, full_query):
        tracer, _ = traced("repartitioning", small_dist, full_query)
        by_id = {s.span_id: s for s in tracer.spans}
        tol = 1e-9
        for span in tracer.spans:
            assert span.end is not None, f"open span {span.name!r}"
            assert span.start <= span.end + tol
            if span.parent_id is None:
                continue
            parent = by_id[span.parent_id]
            assert parent.start <= span.start + tol
            assert span.end <= parent.end + tol

    def test_no_open_spans_after_clean_run(self, small_dist, sum_query):
        tracer, _ = traced("adaptive_two_phase", small_dist, sum_query)
        assert tracer.open_spans() == []

    def test_operator_spans_toggle(self, small_dist, sum_query):
        with_ops, _ = traced("two_phase", small_dist, sum_query)
        without, _ = traced(
            "two_phase", small_dist, sum_query, operator_spans=False
        )
        assert with_ops.spans_by_cat(OPERATOR)
        assert without.spans_by_cat(OPERATOR) == []
        # Structure above the operator layer is unaffected.
        assert len(without.spans_by_cat(PHASE)) == len(
            with_ops.spans_by_cat(PHASE)
        )
