"""Cluster assembly: programs in, results + metrics out."""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.params import SystemParameters
from repro.obs.decisions import DecisionLedger
from repro.sim.engine import Engine
from repro.sim.metrics import ClusterMetrics
from repro.sim.network import make_network
from repro.sim.node import NodeContext


@dataclass
class RunResult:
    """The outcome of one simulated run."""

    elapsed_seconds: float
    node_results: list
    metrics: ClusterMetrics
    ledger: DecisionLedger


class Cluster:
    """A simulated shared-nothing machine of ``params.num_nodes`` nodes.

    ``run`` takes one *program factory* per node: a callable
    ``factory(ctx) -> generator`` where ``ctx`` is that node's
    :class:`~repro.sim.node.NodeContext`.  The generator's return value
    becomes the node's entry in ``RunResult.node_results``.
    """

    def __init__(self, params: SystemParameters) -> None:
        self.params = params

    def run(
        self,
        program_factories,
        node_speed_factors=None,
        tracer=None,
        ledger=None,
    ) -> RunResult:
        factories = list(program_factories)
        if len(factories) != self.params.num_nodes:
            raise ValueError(
                f"got {len(factories)} programs for "
                f"{self.params.num_nodes} nodes"
            )
        network = make_network(self.params)
        engine = Engine(
            self.params,
            network,
            node_speed_factors=node_speed_factors,
            tracer=tracer,
            ledger=ledger,
        )
        contexts = [
            NodeContext(i, self.params.num_nodes, self.params, engine)
            for i in range(self.params.num_nodes)
        ]
        generators = [
            factory(ctx) for factory, ctx in zip(factories, contexts)
        ]
        results, metrics = engine.run(generators)
        return RunResult(
            elapsed_seconds=metrics.makespan,
            node_results=results,
            metrics=metrics,
            ledger=engine.ledger,
        )
