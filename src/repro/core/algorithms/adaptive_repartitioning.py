"""The Adaptive Repartitioning algorithm (Section 3.3).

Start with Repartitioning — the right call when the optimizer expects many
groups.  While repartitioning, each node watches how many distinct groups
it has seen; if after ``init_seg`` tuples the count is suspiciously low,
the node broadcasts an ``end_of_phase`` message and falls back to the
Adaptive Two Phase strategy for its remaining tuples.  Nodes receiving
``end_of_phase`` follow suit (echoing their own notice, as the paper
describes).  The merge phase simply continues on the hash table the
repartitioning phase already populated — raw tuples shipped before the
switch are never reprocessed.
"""

from __future__ import annotations

from repro.core.algorithms.adaptive_two_phase import adaptive_scan
from repro.core.algorithms.base import (
    END_OF_PHASE,
    RAW,
    SimConfig,
    broadcast_eof,
    merge_destination,
    merge_phase,
    raw_item_bytes,
    scan_pages,
)
from repro.core.query import BoundQuery
from repro.sampling.decision import crossover_threshold
from repro.sim.node import BlockedChannel, NodeContext
from repro.storage.relation import Fragment


def _switch_groups(ctx: NodeContext, cfg: SimConfig) -> int:
    if cfg.arep_switch_groups is not None:
        return cfg.arep_switch_groups
    return crossover_threshold(ctx.num_nodes, groups_per_node=10)


def _init_seg(ctx: NodeContext, cfg: SimConfig, switch_groups: int) -> int:
    if cfg.init_seg is not None:
        return cfg.init_seg
    # 10× the group threshold: enough draws (coupon collector) to have
    # seen ≥ switch_groups distinct values whenever the relation really
    # has that many groups.
    return 10 * switch_groups


def adaptive_repartitioning_body(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """One node's complete A-Rep run; returns its result rows."""
    switch_groups = _switch_groups(ctx, cfg)
    init_seg = _init_seg(ctx, cfg, switch_groups)
    dst_of = merge_destination(ctx)
    raw_chan = BlockedChannel(ctx, RAW, raw_item_bytes(bq))

    seen_keys: set = set()
    tuples_seen = 0
    judged = False
    switching = False
    sent_end_of_phase = False
    leftover_rows: list = []

    with ctx.phase("repartition_scan"):
        for page_rows, io in scan_pages(ctx, fragment, cfg.pipeline):
            if io is not None:
                yield io
            # Poll for a peer's end-of-phase notice (piggy-backed control).
            notice = yield ctx.try_recv(END_OF_PHASE)
            if notice is not None:
                switching = True
                ctx.decision(
                    "end_of_phase_received",
                    ledger_only={"tuples_seen": tuples_seen},
                    from_node=notice.src,
                )
            if switching:
                leftover_rows.extend(page_rows)
                continue

            yield ctx.repart_select_cpu(len(page_rows))
            for row in page_rows:
                if not bq.matches(row):
                    continue
                key = bq.key_of(row)
                tuples_seen += 1
                if not judged:
                    seen_keys.add(key)
                    if tuples_seen >= init_seg:
                        judged = True
                        if len(seen_keys) < switch_groups:
                            switching = True
                            ctx.decision(
                                "switch_to_two_phase",
                                ledger_only={
                                    "switch_groups": switch_groups,
                                    "init_seg": init_seg,
                                },
                                tuples_seen=tuples_seen,
                                groups_seen=len(seen_keys),
                            )
                send = raw_chan.push(dst_of(key), bq.projected_row(row))
                if send is not None:
                    yield send
            if switching and not sent_end_of_phase:
                sent_end_of_phase = True
                for dst in range(ctx.num_nodes):
                    if dst != ctx.node_id:
                        yield ctx.send(dst, END_OF_PHASE)

        if switching and not sent_end_of_phase:
            # A notice arrived on the very last page: still echo it.
            sent_end_of_phase = True
            for dst in range(ctx.num_nodes):
                if dst != ctx.node_id:
                    yield ctx.send(dst, END_OF_PHASE)

        for send in raw_chan.flush():
            yield send

    if switching and leftover_rows:
        # Process the unscanned remainder with Adaptive Two Phase (it can
        # still fall back to repartitioning if the judgement was wrong).
        with ctx.phase("adaptive_fallback"):
            yield from adaptive_scan(
                ctx, fragment, bq, cfg, rows_override=leftover_rows
            )
    yield from broadcast_eof(ctx)
    with ctx.phase("merge"):
        results = yield from merge_phase(
            ctx, bq, cfg, expected_eofs=ctx.num_nodes
        )
    return results
