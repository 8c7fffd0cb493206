"""Graefe's optimized Two Phase variant (discussed in Section 3.2).

When the local hash table is full, an incoming tuple of a *new* group is
hash-partitioned and forwarded raw to its merge destination instead of
being spooled — hoping an entry already exists there.  Unlike Adaptive Two
Phase, the node keeps its local table to the end (tuples of resident
groups keep aggregating locally), so: memory is held longer, every
locally aggregated tuple still passes through both phases, and a
forwarded tuple may find no entry at the destination either.

The paper argues A-2P dominates this optimization; implementing both lets
the ablation benchmark measure that claim.
"""

from __future__ import annotations

from repro.core.aggregates import make_state_factory
from repro.core.algorithms.base import (
    RAW,
    SimConfig,
    broadcast_eof,
    flush_partials,
    merge_destination,
    merge_phase,
    raw_item_bytes,
    scan_pages,
)
from repro.core.hashtable import BoundedAggregateHashTable
from repro.core.query import BoundQuery
from repro.sim.node import BlockedChannel, NodeContext
from repro.storage.relation import Fragment


def optimized_two_phase_body(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """One node's optimized-2P run; returns its result rows."""
    table = BoundedAggregateHashTable(
        ctx.params.hash_table_entries,
        make_state_factory(bq.query.aggregates),
    )
    dst_of = merge_destination(ctx)
    raw_chan = BlockedChannel(ctx, RAW, raw_item_bytes(bq))
    forwarded_total = 0

    with ctx.phase("local_aggregation"):
        for page_rows, io in scan_pages(ctx, fragment, cfg.pipeline):
            if io is not None:
                yield io
            aggregated = 0
            forwarded = 0
            for row in page_rows:
                if not bq.matches(row):
                    continue
                key = bq.key_of(row)
                if table.add_values(key, bq.values_of(row)):
                    aggregated += 1
                    continue
                forwarded += 1
                send = raw_chan.push(dst_of(key), bq.projected_row(row))
                if send is not None:
                    yield send
            yield ctx.select_cpu(len(page_rows))
            if aggregated:
                yield ctx.local_agg_cpu(aggregated)
            if forwarded:
                # Hash + destination computation for the forwarded tuples.
                p = ctx.params
                yield ctx.compute(forwarded * (p.t_h + p.t_d), "select_cpu")
            forwarded_total += forwarded

        if forwarded_total:
            ctx.decision(
                "forwarded_on_overflow",
                ledger_only={"table_capacity": table.max_entries},
                tuples=forwarded_total,
            )
        ctx.record_memory(len(table))
    with ctx.phase("flush_partials"):
        yield from flush_partials(ctx, bq, table.drain().items(), dst_of)
        for send in raw_chan.flush():
            yield send
        yield from broadcast_eof(ctx)
    with ctx.phase("merge"):
        results = yield from merge_phase(
            ctx, bq, cfg, expected_eofs=ctx.num_nodes
        )
    return results
