"""The Adaptive Two Phase algorithm (Section 3.2) — the paper's headline.

Start as Two Phase under the common-case assumption that groups are few.
The moment a node's local hash table fills — the point where Two Phase
would begin intermediate I/O — that node, *independently of all others*:

1. stops aggregating locally,
2. hash-partitions the partials accumulated so far and ships them to the
   merge phase (freeing its memory), and
3. repartitions its remaining tuples raw, exactly like Repartitioning.

The merge phase absorbs both kinds of input into one hash table: partials
merge their running state, raw tuples update it as usual.  No global
synchronization is needed — which is also why the algorithm shines under
output skew (Section 6): only the group-rich nodes switch.
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

TWO_PHASE_MODE = "two_phase"
REPARTITION_MODE = "repartitioning"


def adaptive_scan(
    ctx: NodeContext,
    fragment: Fragment,
    bq: BoundQuery,
    cfg: SimConfig,
    table: BoundedAggregateHashTable | None = None,
    rows_override=None,
):
    """Scan in 2P mode, switching to repartitioning when the table fills.

    A generator returning the final mode, so Adaptive Repartitioning can
    reuse this exact loop after its own fallback.  ``rows_override`` (an
    iterable of rows) replaces the fragment contents when the caller has
    already consumed part of the input.
    """
    if table is None:
        table = BoundedAggregateHashTable(
            ctx.params.hash_table_entries,
            make_state_factory(bq.query.aggregates),
        )
    dst_of = merge_destination(ctx)
    raw_chan = BlockedChannel(ctx, RAW, raw_item_bytes(bq))
    mode = TWO_PHASE_MODE

    pages = scan_pages(ctx, fragment, cfg.pipeline)
    if rows_override is not None:
        per_page = max(
            1, ctx.params.page_bytes // fragment.relation.schema.tuple_bytes
        )
        rows = list(rows_override)
        pages = (
            (rows[i : i + per_page], None)
            for i in range(0, len(rows), per_page)
        )

    for page_rows, io in pages:
        if io is not None:
            yield io
        aggregated = 0
        forwarded = 0
        for row in page_rows:
            if not bq.matches(row):
                continue
            if mode == TWO_PHASE_MODE:
                key = bq.key_of(row)
                if table.add_values(key, bq.values_of(row)):
                    aggregated += 1
                    continue
                # Memory full and the key is new: switch, flush, go raw.
                mode = REPARTITION_MODE
                ctx.decision(
                    "switch_to_repartitioning",
                    ledger_only={"table_capacity": table.max_entries},
                    tuples_seen=aggregated + forwarded,
                    groups_accumulated=len(table),
                )
                ctx.record_memory(len(table))
                yield from flush_partials(
                    ctx, bq, table.drain().items(), dst_of
                )
            forwarded += 1
            send = raw_chan.push(dst_of(bq.key_of(row)), bq.projected_row(row))
            if send is not None:
                yield send
        # Page-granular CPU charges for the two processing modes.
        p = ctx.params
        if aggregated:
            yield ctx.select_cpu(aggregated)
            yield ctx.local_agg_cpu(aggregated)
        if forwarded:
            yield ctx.repart_select_cpu(forwarded)
        unmatched = len(page_rows) - aggregated - forwarded
        if unmatched:
            yield ctx.select_cpu(unmatched)

    if mode == TWO_PHASE_MODE and len(table):
        ctx.record_memory(len(table))
        yield from flush_partials(ctx, bq, table.drain().items(), dst_of)
    for send in raw_chan.flush():
        yield send
    return mode


def adaptive_two_phase_body(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """One node's complete A-2P run; returns its result rows."""
    with ctx.phase("adaptive_scan"):
        yield from adaptive_scan(ctx, fragment, bq, cfg)
        yield from broadcast_eof(ctx)
    with ctx.phase("merge"):
        results = yield from merge_phase(
            ctx, bq, cfg, expected_eofs=ctx.num_nodes
        )
    return results
