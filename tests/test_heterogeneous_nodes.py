"""Heterogeneous hardware (CPU/disk skew) — the simulator extension.

The paper studies *data* skew; execution skew is the companion dimension
its successors cared about.  A slow node stretches its own local work
but not the network, and — unlike output skew — per-node algorithm
adaptivity cannot help: the slow node's scan is on the critical path no
matter which strategy it runs.
"""

import pytest

from repro.core.runner import default_parameters, run_algorithm
from repro.costmodel.params import SystemParameters
from repro.parallel import reference_aggregate
from repro.sim.engine import Engine
from repro.sim.node import NodeContext
from repro.workloads.generator import generate_uniform

from tests.conftest import assert_rows_close


class TestEngineSpeedFactors:
    def test_slow_node_takes_longer(self):
        params = SystemParameters.paper_default().with_(num_nodes=2)
        engine = Engine(params, node_speed_factors=[1.0, 0.5])
        ctxs = [NodeContext(i, 2, params, engine) for i in range(2)]

        def prog(ctx):
            yield ctx.compute(1.0)
            yield ctx.read_pages(10)

        _results, metrics = engine.run([prog(ctxs[0]), prog(ctxs[1])])
        assert metrics.node(1).finish_time == pytest.approx(
            2 * metrics.node(0).finish_time
        )

    def test_fast_node_speeds_up(self):
        params = SystemParameters.paper_default().with_(num_nodes=1)
        engine = Engine(params, node_speed_factors=[4.0])
        ctx = NodeContext(0, 1, params, engine)

        def prog():
            yield ctx.compute(1.0)

        _res, metrics = engine.run([prog()])
        assert metrics.node(0).finish_time == pytest.approx(0.25)

    def test_invalid_factor_rejected(self):
        params = SystemParameters.paper_default().with_(num_nodes=1)
        with pytest.raises(ValueError, match="positive"):
            Engine(params, node_speed_factors=[0.0])

    @pytest.mark.parametrize(
        "factors",
        [
            [0.5],
            [1, 1, 1, 1, 0.01, 0.01],
            [float("nan")] * 4,
            [float("inf")] * 4,
            [1, 1, -1, 1],
        ],
        ids=["short", "long", "nan", "inf", "negative"],
    )
    def test_factors_must_match_the_cluster(self, factors, sum_query):
        dist = generate_uniform(400, 8, 4, seed=0)
        with pytest.raises(ValueError, match="node_speed_factors"):
            run_algorithm(
                "two_phase", dist, sum_query, node_speed_factors=factors
            )

    def test_none_means_homogeneous(self):
        params = SystemParameters.paper_default().with_(num_nodes=1)
        assert Engine(params).node_speed_factors is None


class TestCpuSkewStudy:
    @pytest.fixture
    def dist(self):
        return generate_uniform(8000, 400, 4, seed=0)

    def test_correctness_unaffected(self, dist, sum_query):
        for name in ("two_phase", "repartitioning",
                     "adaptive_two_phase"):
            out = run_algorithm(
                name, dist, sum_query,
                node_speed_factors=[0.4, 1.0, 1.0, 1.0],
            )
            assert_rows_close(
                out.rows, reference_aggregate(dist, sum_query)
            )

    def test_slow_node_dominates_makespan(self, dist, sum_query):
        uniform = run_algorithm("two_phase", dist, sum_query)
        skewed = run_algorithm(
            "two_phase", dist, sum_query,
            node_speed_factors=[0.4, 1.0, 1.0, 1.0],
        )
        assert skewed.elapsed_seconds > 1.5 * uniform.elapsed_seconds

    def test_no_algorithm_escapes_cpu_skew(self, dist, sum_query):
        """Unlike output skew, execution skew hits every strategy: the
        adaptive algorithms cannot beat the traditional ones here."""
        factors = [0.4, 1.0, 1.0, 1.0]
        penalties = {}
        for name in ("two_phase", "repartitioning",
                     "adaptive_two_phase"):
            base = run_algorithm(name, dist, sum_query).elapsed_seconds
            slow = run_algorithm(
                name, dist, sum_query, node_speed_factors=factors
            ).elapsed_seconds
            penalties[name] = slow / base
        assert all(p > 1.3 for p in penalties.values()), penalties

    def test_finish_skew_visible_in_metrics(self, dist, sum_query):
        out = run_algorithm(
            "repartitioning", dist, sum_query,
            node_speed_factors=[0.4, 1.0, 1.0, 1.0],
        )
        busy = [n.busy_seconds for n in out.metrics.nodes]
        assert busy[0] > 1.8 * max(busy[1:])
        assert out.metrics.skew_ratio() > 1.4
