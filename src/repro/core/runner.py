"""The high-level entry point: run any algorithm on a distributed relation.

``run_algorithm`` binds the query, derives a parameter set sized to the
data (unless one is supplied), assembles one node program per fragment,
runs the cluster simulation, and returns the merged result rows together
with simulated time, metrics, and the run's decision ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.aggregates import sort_key
from repro.core.algorithms import ALGORITHM_BODIES, SimConfig
from repro.core.query import AggregateQuery
from repro.costmodel.params import SystemParameters
from repro.obs.decisions import DecisionLedger
from repro.sim.cluster import Cluster, RunResult
from repro.sim.metrics import ClusterMetrics
from repro.storage.relation import DistributedRelation

ALGORITHMS = tuple(ALGORITHM_BODIES)

# The paper's implementation ratio: M = 10K entries for 250K tuples/node.
_DEFAULT_TABLE_FRACTION = 0.04
_MIN_TABLE_ENTRIES = 16


@dataclass
class AlgorithmOutcome:
    """Everything a caller wants back from one simulated run."""

    algorithm: str
    rows: list[tuple]
    elapsed_seconds: float
    metrics: ClusterMetrics
    ledger: DecisionLedger
    per_node_rows: list[list] = field(default_factory=list)

    @property
    def num_groups(self) -> int:
        return len(self.rows)


def default_parameters(
    dist: DistributedRelation,
    network=None,
    hash_table_entries: int | None = None,
) -> SystemParameters:
    """Parameters sized to a generated relation.

    The hash-table allocation defaults to the paper's implementation
    ratio (M ≈ 4% of the tuples per node), which preserves every
    overflow-driven crossover at reduced scale (see DESIGN.md).
    """
    base = SystemParameters.implementation()
    if hash_table_entries is None:
        per_node = max(1, len(dist) // dist.num_nodes)
        hash_table_entries = max(
            _MIN_TABLE_ENTRIES, round(per_node * _DEFAULT_TABLE_FRACTION)
        )
    overrides = dict(
        num_nodes=dist.num_nodes,
        num_tuples=max(1, len(dist)),
        tuple_bytes=dist.schema.tuple_bytes,
        hash_table_entries=hash_table_entries,
    )
    if network is not None:
        overrides["network"] = network
    return base.with_(**overrides)


def run_algorithm(
    algorithm: str,
    dist: DistributedRelation,
    query: AggregateQuery,
    params: SystemParameters | None = None,
    config: SimConfig | None = None,
    node_speed_factors=None,
    tracer=None,
    ledger=None,
    **config_overrides,
) -> AlgorithmOutcome:
    """Simulate ``algorithm`` over ``dist`` and return the outcome.

    ``config_overrides`` are :class:`SimConfig` fields (``pipeline=True``,
    ``init_seg=500``, ...) for one-off tweaks.  ``node_speed_factors``
    models heterogeneous hardware: node i's CPU and disk run at
    ``factors[i]`` times the Table 1 rates (one finite positive factor
    per node).  ``tracer`` is an optional :class:`repro.obs.Tracer` that
    records the query → node → phase → operator span tree of the run
    (:func:`repro.sim.timeline.render_timeline` draws its Gantt chart);
    ``tracer=None`` (the default) keeps the simulation bit-identical to
    an untraced run.  Every adaptive decision (sampling choice, A-2P
    switch, A-Rep fallback) lands in ``AlgorithmOutcome.ledger``; pass
    ``ledger`` to have the run record into a ledger of your own.
    """
    try:
        body = ALGORITHM_BODIES[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{sorted(ALGORITHM_BODIES)}"
        ) from None
    if params is None:
        params = default_parameters(dist)
    elif params.num_nodes != dist.num_nodes:
        raise ValueError(
            f"params.num_nodes={params.num_nodes} but the relation has "
            f"{dist.num_nodes} fragments"
        )
    if config is None:
        config = SimConfig(**config_overrides)
    elif config_overrides:
        raise ValueError("pass either config or config overrides, not both")

    bq = query.bind(dist.schema)

    cluster = Cluster(params)

    def make_factory(fragment):
        def factory(ctx):
            return body(ctx, fragment, bq, config)

        return factory

    result: RunResult = cluster.run(
        (make_factory(frag) for frag in dist.fragments),
        node_speed_factors=node_speed_factors,
        tracer=tracer,
        ledger=ledger,
    )
    rows: list[tuple] = []
    for node_rows in result.node_results:
        rows.extend(node_rows)
    rows.sort(key=sort_key)
    return AlgorithmOutcome(
        algorithm=algorithm,
        rows=rows,
        elapsed_seconds=result.elapsed_seconds,
        metrics=result.metrics,
        ledger=result.ledger,
        per_node_rows=result.node_results,
    )
