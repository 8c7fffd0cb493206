"""The Repartitioning algorithm (Section 2.3).

Hash-partition the (projected) raw tuples on the GROUP BY attributes, then
aggregate each partition in parallel.  Every group is aggregated exactly
once and stored in exactly one place — no duplicated work and minimal
memory — at the price of shipping every tuple across the network and, when
there are fewer groups than processors, leaving nodes idle.
"""

from __future__ import annotations

from repro.core.algorithms.base import (
    RAW,
    SimConfig,
    broadcast_eof,
    merge_destination,
    merge_phase,
    raw_item_bytes,
    scan_pages,
)
from repro.core.query import BoundQuery
from repro.sim.node import BlockedChannel, NodeContext
from repro.storage.relation import Fragment


def repartition_scan(
    ctx: NodeContext,
    fragment: Fragment,
    bq: BoundQuery,
    cfg: SimConfig,
):
    """Scan the fragment and forward every matching tuple to its merger."""
    dst_of = merge_destination(ctx)
    chan = BlockedChannel(ctx, RAW, raw_item_bytes(bq))
    for page_rows, io in scan_pages(ctx, fragment, cfg.pipeline):
        if io is not None:
            yield io
        yield ctx.repart_select_cpu(len(page_rows))
        for row in page_rows:
            if not bq.matches(row):
                continue
            send = chan.push(dst_of(bq.key_of(row)), bq.projected_row(row))
            if send is not None:
                yield send
    for send in chan.flush():
        yield send


def repartitioning_body(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """One node's complete Repartitioning run; returns its result rows."""
    with ctx.phase("repartition_scan"):
        yield from repartition_scan(ctx, fragment, bq, cfg)
        yield from broadcast_eof(ctx)
    with ctx.phase("merge"):
        results = yield from merge_phase(
            ctx, bq, cfg, expected_eofs=ctx.num_nodes
        )
    return results
