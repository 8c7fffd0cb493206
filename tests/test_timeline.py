"""Tests for the Gantt renderer over a tracer's operator spans."""

import io
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.runner import run_algorithm
from repro.costmodel.params import SystemParameters
from repro.obs import Tracer
from repro.obs.tracer import OPERATOR
from repro.sim.engine import Engine
from repro.sim.node import NodeContext
from repro.sim.timeline import render_timeline, tag_char
from repro.workloads.generator import generate_uniform

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_traced(*program_fns, tracer=None):
    params = SystemParameters.paper_default().with_(
        num_nodes=len(program_fns)
    )
    tracer = Tracer() if tracer is None else tracer
    engine = Engine(params, tracer=tracer)
    ctxs = [
        NodeContext(i, len(program_fns), params, engine)
        for i in range(len(program_fns))
    ]
    engine.run([fn(ctx) for fn, ctx in zip(program_fns, ctxs)])
    return tracer


def lane(tracer, track=0):
    return [
        (s.start, s.end, s.name)
        for s in tracer.spans_by_cat(OPERATOR)
        if s.track == track
    ]


class TestRecording:
    def test_segments_recorded(self):
        def prog(ctx):
            yield ctx.compute(1.0, tag="agg_cpu")
            yield ctx.read_pages(2, tag="scan_io")

        segments = lane(run_traced(prog))
        assert [tag for _s, _e, tag in segments] == ["agg_cpu", "scan_io"]

    def test_contiguous_same_tag_merged(self):
        """Back-to-back spans of one tag draw as one unbroken run."""

        def split(ctx):
            yield ctx.compute(0.5, tag="agg_cpu")
            yield ctx.compute(0.5, tag="agg_cpu")

        def whole(ctx):
            yield ctx.compute(1.0, tag="agg_cpu")

        assert len(lane(run_traced(split))) == 2
        drawn = render_timeline(run_traced(split), width=40)
        assert drawn == render_timeline(run_traced(whole), width=40)
        assert "a" * 40 in drawn

    def test_segments_are_ordered_and_disjoint(self):
        def prog(ctx):
            for i in range(5):
                yield ctx.compute(0.1, tag=f"t{i}")
                yield ctx.read_pages(1)

        segments = lane(run_traced(prog))
        for (s1, e1, _), (s2, _e2, _) in zip(segments, segments[1:]):
            assert e1 <= s2 + 1e-12
            assert s1 < e1

    def test_not_recorded_by_default(self):
        """An untraced run keeps no activity record, and tracing does
        not move a single simulated second."""
        params = SystemParameters.paper_default().with_(num_nodes=1)

        def finish(tracer):
            engine = Engine(params, tracer=tracer)
            ctx = NodeContext(0, 1, params, engine)

            def prog():
                yield ctx.compute(1.0)
                yield ctx.read_pages(3)

            _results, metrics = engine.run([prog()])
            return engine, metrics.node(0).finish_time

        engine, untraced = finish(None)
        assert engine.tracer is None
        assert finish(Tracer())[1] == untraced


class TestRenderer:
    def test_lanes_and_legend(self):
        def prog(ctx):
            yield ctx.compute(1.0, tag="agg_cpu")

        text = render_timeline(run_traced(prog, prog), width=40)
        assert text.count("node ") == 2
        assert "a=agg_cpu" in text
        assert ".=idle/wait" in text

    def test_idle_shown_as_dots(self):
        def busy(ctx):
            yield ctx.compute(2.0, tag="agg_cpu")

        def brief(ctx):
            yield ctx.compute(0.2, tag="agg_cpu")

        text = render_timeline(run_traced(busy, brief), width=40)
        brief_lane = text.splitlines()[1]
        assert brief_lane.count(".") > 20

    def test_empty(self):
        def prog(ctx):
            yield ctx.compute(1.0, tag="agg_cpu")

        assert "no timeline" in render_timeline(Tracer())
        phases_only = run_traced(prog, tracer=Tracer(operator_spans=False))
        assert "no timeline" in render_timeline(phases_only)

    def test_tag_char_default(self):
        assert tag_char("unknown_tag") == "#"
        assert tag_char("spill_io") == "!"


class TestOutcomeIntegration:
    def test_outcome_renders(self, sum_query):
        dist = generate_uniform(1000, 50, 2, seed=0)
        tracer = Tracer()
        run_algorithm("two_phase", dist, sum_query, tracer=tracer)
        text = render_timeline(tracer, width=40)
        assert "node  0" in text and "node  1" in text

    def test_outcome_without_recording_explains(self, sum_query):
        dist = generate_uniform(1000, 50, 2, seed=0)
        tracer = Tracer(operator_spans=False)
        run_algorithm("two_phase", dist, sum_query, tracer=tracer)
        assert "no timeline recorded" in render_timeline(tracer)

    def test_coordinator_bottleneck_visible(self, sum_query):
        """C-2P: the coordinator works past every other node's finish."""
        dist = generate_uniform(4000, 1500, 4, seed=1)
        tracer = Tracer()
        run_algorithm(
            "centralized_two_phase", dist, sum_query, tracer=tracer
        )
        ends = [max(e for _s, e, _t in lane(tracer, n)) for n in range(4)]
        assert ends[0] > 1.2 * max(ends[1:])


@pytest.mark.parametrize(
    "algorithm", ["centralized_two_phase", "adaptive_repartitioning"]
)
def test_timeline_matches_golden(algorithm):
    """``repro run --timeline`` draws the pinned Gantt chart byte for
    byte."""
    out = io.StringIO()
    code = cli_main([
        "run", "--algorithm", algorithm, "--tuples", "4000",
        "--groups", "400", "--nodes", "4", "--seed", "7", "--timeline",
    ], out=out)
    assert code == 0
    golden = GOLDEN / f"timeline_{algorithm}.txt"
    assert out.getvalue() == golden.read_text()
