"""Failure recovery: re-execute a crashed node's work on survivors.

The recovery protocol is restart-with-takeover, the shared-nothing
equivalent of MapReduce-style task re-execution:

1. An attempt runs under the :class:`~repro.sim.faults.FaultPlan`.  If a
   node crashes, the engine raises
   :class:`~repro.sim.faults.NodeCrashedError` once the event heap drains,
   carrying the partial metrics of the doomed attempt.
2. Survivors declare the node dead after the heartbeat
   ``DETECTION_TIMEOUT``, and the dead node's fragment(s) are handed
   round-robin to surviving peers, who re-read and re-aggregate them from
   their (logically replicated) disks.  If the dead node was node 0 — the
   coordinator for C-2P and Sampling — the first survivor inherits the
   coordinator role (``coordinator_failover`` trace event).
3. The query restarts on the shrunken cluster.  Each crash fires at most
   once per query (consumed in the plan's schedule), stragglers keep
   straggling, and the lossy-transport faults keep applying, so recovery
   itself runs under degraded conditions.

Restart-based recovery keeps every algorithm body *unchanged*: an attempt
is just a normal simulated run over a different node-to-fragment
assignment.  Exactness is free — the surviving cluster recomputes the
answer from base data, so no in-flight partial aggregate can be double
counted.  The price is re-execution time, which is precisely what the
merged metrics expose: ``reexecuted_tuples`` on the takeover nodes,
``retries``/``timeouts`` from the transport, and per-node
``degraded_makespan`` including every detection delay and restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.params import SystemParameters
from repro.sim.cluster import Cluster
from repro.sim.events import TraceEvent
from repro.sim.faults import (
    DETECTION_TIMEOUT,
    MAX_RECOVERY_ATTEMPTS,
    ClusterLostError,
    FaultPlan,
    NodeCrashedError,
)
from repro.sim.metrics import ClusterMetrics, NodeMetrics
from repro.storage.relation import Fragment, Relation

_ADDITIVE_FIELDS = (
    "cpu_seconds",
    "io_read_seconds",
    "io_write_seconds",
    "pages_read",
    "pages_written",
    "spill_pages",
    "messages_sent",
    "messages_received",
    "blocks_sent",
    "bytes_sent",
    "tuples_scanned",
    "tuples_aggregated",
    "groups_output",
    "retries",
    "timeouts",
    "duplicates_dropped",
    "mem_spill_bytes",
    "mem_stall_seconds",
)


@dataclass
class ResilientRun:
    """The outcome of a fault-injected run, merged over all attempts."""

    elapsed_seconds: float
    node_results: list
    metrics: ClusterMetrics
    trace: list[TraceEvent] = field(default_factory=list)
    timelines: list = field(default_factory=list)
    attempts: int = 1
    crashed_nodes: list[int] = field(default_factory=list)
    # Per-attempt (node_ids, ClusterMetrics) pairs, in attempt order —
    # the unmerged inputs to ``metrics``, for attribution and auditing.
    attempt_metrics: list = field(default_factory=list)


def _merge_attempts(
    records, num_original: int, reexecuted: dict[int, int], active: bool
) -> ClusterMetrics:
    """Fold per-attempt metrics into one view keyed by original node id."""
    nodes = [NodeMetrics(i) for i in range(num_original)]
    network_busy = 0.0
    network_blocks = 0
    for node_ids, metrics, base, _trace in records:
        network_busy += metrics.network_busy_seconds
        network_blocks += metrics.network_blocks
        for sim_index, nm in enumerate(metrics.nodes):
            acc = nodes[node_ids[sim_index]]
            for name in _ADDITIVE_FIELDS:
                setattr(acc, name, getattr(acc, name) + getattr(nm, name))
            acc.peak_table_entries = max(
                acc.peak_table_entries, nm.peak_table_entries
            )
            acc.mem_high_water_bytes = max(
                acc.mem_high_water_bytes, nm.mem_high_water_bytes
            )
            for rung, count in nm.mem_ladder_rungs.items():
                acc.mem_ladder_rungs[rung] = (
                    acc.mem_ladder_rungs.get(rung, 0) + count
                )
            # Later attempts overwrite: a node's finish time is where its
            # *last* attempt left it (absolute, detection delays included).
            acc.finish_time = base + nm.finish_time
            acc.crashed = acc.crashed or nm.crashed
            for tag, seconds in nm.tagged_seconds.items():
                acc.add_tagged(tag, seconds)
    for orig, count in reexecuted.items():
        nodes[orig].reexecuted_tuples = count
    if active:
        for acc in nodes:
            acc.degraded_makespan = acc.finish_time
    return ClusterMetrics(
        nodes=nodes,
        network_busy_seconds=network_busy,
        network_blocks=network_blocks,
    )


def run_resilient(
    params: SystemParameters,
    fragments: list[Fragment],
    plan: FaultPlan,
    program_for,
    record_timeline: bool = False,
    node_speed_factors=None,
    memory=None,
    tracer=None,
    ledger=None,
) -> ResilientRun:
    """Run ``program_for(ctx, fragment)`` per node, surviving crashes.

    ``fragments`` is the original placement (index == node id);
    ``node_speed_factors`` is indexed by original node id and follows a
    node's work to wherever it lives after takeover.  ``memory`` is an
    optional :class:`~repro.resources.MemoryPolicy`: each attempt gets a
    fresh governor sized to the surviving cluster, so the ladder
    composes with crash recovery (takeover nodes feel *more* pressure,
    since they aggregate extra fragments under the same budget).

    With a ``tracer``, all attempts record into one timeline: before
    each attempt the tracer's ``time_offset`` is set to the attempt's
    absolute start and its ``track_map`` to the sim-index → original
    node id mapping, so a crashed-and-recovered query exports as a
    single coherent trace.  A ``ledger``
    (:class:`~repro.obs.DecisionLedger`) gets the same treatment, so
    decision events carry absolute times on original node ids.
    """
    num_original = len(fragments)
    if params.num_nodes != num_original:
        raise ValueError(
            f"params.num_nodes={params.num_nodes} but got "
            f"{num_original} fragments"
        )
    schema = fragments[0].relation.schema
    schedule = plan.start()
    node_ids = list(range(num_original))
    assignment: dict[int, list[Fragment]] = {
        i: [fragments[i]] for i in node_ids
    }
    base_time = 0.0
    records = []
    extra_trace: list[TraceEvent] = []
    crashed_overall: list[int] = []
    attempts = 0

    while True:
        attempts += 1
        if attempts > MAX_RECOVERY_ATTEMPTS:
            raise ClusterLostError(
                f"gave up after {MAX_RECOVERY_ATTEMPTS} recovery "
                f"attempts; crashed so far: {sorted(crashed_overall)}"
            )
        attempt_params = (
            params
            if len(node_ids) == num_original
            else params.with_(num_nodes=len(node_ids))
        )
        combined: list[Fragment] = []
        for sim_index, orig in enumerate(node_ids):
            owned = assignment[orig]
            if len(owned) == 1:
                relation = owned[0].relation
            else:
                rows: list = []
                for frag in owned:
                    rows.extend(frag.relation.rows)
                relation = Relation(schema, rows)
            combined.append(Fragment(sim_index, relation))
        factories = [
            (lambda ctx, frag=frag: program_for(ctx, frag))
            for frag in combined
        ]
        speeds = None
        if node_speed_factors is not None:
            speeds = [node_speed_factors[orig] for orig in node_ids]
        cluster = Cluster(attempt_params)
        if tracer is not None:
            tracer.time_offset = base_time
            tracer.track_map = dict(enumerate(node_ids))
        if ledger is not None:
            ledger.time_offset = base_time
            ledger.track_map = dict(enumerate(node_ids))
        try:
            result = cluster.run(
                factories,
                record_timeline=record_timeline,
                node_speed_factors=speeds,
                faults=schedule.runtime(node_ids),
                memory=memory,
                tracer=tracer,
                ledger=ledger,
            )
        except NodeCrashedError as exc:
            records.append((list(node_ids), exc.metrics, base_time, exc.trace))
            detection = max(exc.crashed.values()) + DETECTION_TIMEOUT
            survivors = [
                orig
                for sim_index, orig in enumerate(node_ids)
                if sim_index not in exc.crashed
            ]
            if not survivors:
                raise ClusterLostError(
                    "every node crashed; nothing left to recover on"
                ) from exc
            dead_fragments: list[Fragment] = []
            for sim_index in sorted(exc.crashed):
                orig = node_ids[sim_index]
                crashed_overall.append(orig)
                dead_fragments.extend(assignment.pop(orig))
                if tracer is not None:
                    # sim_index so the attempt's track_map applies.
                    tracer.instant(
                        "crash_detected", sim_index, detection, node=orig
                    )
                extra_trace.append(
                    TraceEvent(
                        base_time + detection,
                        orig,
                        "crash_detected",
                        {
                            "node": orig,
                            "crashed_at": base_time + exc.crashed[sim_index],
                        },
                    )
                )
            if 0 in exc.crashed:
                extra_trace.append(
                    TraceEvent(
                        base_time + detection,
                        survivors[0],
                        "coordinator_failover",
                        {"old": node_ids[0], "new": survivors[0]},
                    )
                )
                if tracer is not None:
                    tracer.instant(
                        "coordinator_failover",
                        node_ids.index(survivors[0]),
                        detection,
                        old=node_ids[0], new=survivors[0],
                    )
            for j, frag in enumerate(dead_fragments):
                owner = survivors[j % len(survivors)]
                assignment[owner].append(frag)
                extra_trace.append(
                    TraceEvent(
                        base_time + detection,
                        owner,
                        "takeover",
                        {"from_node": frag.node_id, "tuples": len(frag)},
                    )
                )
                if tracer is not None:
                    tracer.instant(
                        "takeover", node_ids.index(owner), detection,
                        from_node=frag.node_id, tuples=len(frag),
                    )
            node_ids = survivors
            base_time += detection
            continue

        records.append((list(node_ids), result.metrics, base_time, result.trace))
        reexecuted = {
            orig: sum(len(frag) for frag in assignment[orig][1:])
            for orig in node_ids
        }
        metrics = _merge_attempts(
            records, num_original, reexecuted, plan.active
        )
        trace: list[TraceEvent] = []
        for ids, _metrics, base, attempt_trace in records:
            for event in attempt_trace:
                trace.append(
                    TraceEvent(
                        base + event.time,
                        ids[event.node],
                        event.what,
                        event.detail,
                    )
                )
        trace.extend(extra_trace)
        trace.sort(key=lambda event: event.time)
        return ResilientRun(
            elapsed_seconds=metrics.makespan,
            node_results=result.node_results,
            metrics=metrics,
            trace=trace,
            timelines=result.timelines,
            attempts=attempts,
            crashed_nodes=sorted(crashed_overall),
            attempt_metrics=[(ids, m) for ids, m, _base, _tr in records],
        )
