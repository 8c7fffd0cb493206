"""Tests for cluster assembly and the run-result container."""

import pytest

from repro.costmodel.params import SystemParameters
from repro.obs import DecisionLedger
from repro.sim.cluster import Cluster


@pytest.fixture
def params():
    return SystemParameters.paper_default().with_(num_nodes=3)


def idle_program(value):
    def factory(ctx):
        def program(ctx=ctx):
            yield ctx.compute(0.001 * (ctx.node_id + 1))
            return value

        return program()

    return factory


class TestCluster:
    def test_runs_one_program_per_node(self, params):
        cluster = Cluster(params)
        result = cluster.run([idle_program(i) for i in range(3)])
        assert result.node_results == [0, 1, 2]

    def test_program_count_validated(self, params):
        cluster = Cluster(params)
        with pytest.raises(ValueError, match="programs"):
            cluster.run([idle_program(0)])

    def test_elapsed_is_makespan(self, params):
        cluster = Cluster(params)
        result = cluster.run([idle_program(i) for i in range(3)])
        assert result.elapsed_seconds == pytest.approx(0.003)

    def test_contexts_know_their_node(self, params):
        seen = []

        def factory_for(i):
            def factory(ctx):
                def program():
                    seen.append((ctx.node_id, ctx.num_nodes))
                    return None
                    yield  # pragma: no cover

                return program()

            return factory

        Cluster(params).run([factory_for(i) for i in range(3)])
        assert seen == [(0, 3), (1, 3), (2, 3)]

    def test_fresh_network_per_run(self, params):
        """Two runs must not share bus state."""
        cluster = Cluster(params)

        def chatty(ctx):
            def program():
                yield ctx.send(
                    (ctx.node_id + 1) % 3, "m", nbytes=params.block_bytes
                )
                yield ctx.recv()

            return program()

        first = cluster.run([chatty, chatty, chatty])
        second = cluster.run([chatty, chatty, chatty])
        assert first.elapsed_seconds == second.elapsed_seconds
        assert (
            first.metrics.network_blocks == second.metrics.network_blocks
        )


class TestRunResult:
    def test_events_filter(self, params):
        """Every run's decisions come back in its ledger, filterable by
        kind; a ledger the caller hands in is the one filled."""

        def deciding(ctx):
            def program():
                yield ctx.compute(0.001)
                ctx.decision("a" if ctx.node_id != 1 else "b")

            return program()

        result = Cluster(params).run([deciding] * 3)
        assert len(result.ledger.events_of("a")) == 2
        assert result.ledger.events_of("c") == []
        mine = DecisionLedger()
        assert Cluster(params).run([deciding] * 3, ledger=mine).ledger is mine
        assert len(mine) == 3
