"""The Two Phase algorithm (Section 2.2).

Phase 1: each node hash-aggregates its local fragment (spilling overflow
buckets to local disk if the group count exceeds the memory allocation M).
Phase 2: the local partial aggregates are hash-partitioned on the GROUP BY
attributes and merged in parallel by all nodes.
"""

from __future__ import annotations

from repro.core.algorithms.base import (
    SimConfig,
    SpillCharges,
    broadcast_eof,
    flush_partials,
    make_aggregator,
    merge_destination,
    merge_phase,
    raw_item_bytes,
    scan_pages,
)
from repro.core.query import BoundQuery
from repro.sim.node import NodeContext
from repro.storage.relation import Fragment


def local_aggregation_phase(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """Phase 1: aggregate the local fragment; returns (key, state) items.

    A generator (yields cost requests) returning the finished partials,
    including any that went through overflow buckets.
    """
    spill = SpillCharges(ctx, raw_item_bytes(bq))
    agg = make_aggregator(
        bq,
        ctx.params.hash_table_entries,
        spill,
        method=cfg.local_method,
    )
    for page_rows, io in scan_pages(ctx, fragment, cfg.pipeline):
        if io is not None:
            yield io
        yield ctx.select_cpu(len(page_rows))
        matched = agg.add_rows(page_rows, bq)
        yield ctx.local_agg_cpu(matched)
        yield from spill.drain()
    ctx.record_memory(agg.in_memory_groups)
    partials = list(agg.finish())
    yield from spill.drain()
    return partials


def two_phase_body(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """One node's complete Two Phase run; returns its result rows."""
    with ctx.phase("local_aggregation"):
        partials = yield from local_aggregation_phase(ctx, fragment, bq, cfg)
    with ctx.phase("flush_partials"):
        dst_of = merge_destination(ctx)
        yield from flush_partials(ctx, bq, partials, dst_of)
        yield from broadcast_eof(ctx)
    with ctx.phase("merge"):
        results = yield from merge_phase(
            ctx, bq, cfg, expected_eofs=ctx.num_nodes
        )
    return results
