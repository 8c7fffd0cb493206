"""Streaming pre-aggregation with LRU eviction — the modern descendant.

The paper's adaptive algorithms later became standard practice; what
engines like Spark, Flink and DuckDB actually ship is a refinement of the
Adaptive Two Phase idea: keep a *bounded* local pre-aggregation table,
and when it fills, **evict one entry** (forwarding its partial to the
merge phase) instead of abandoning local aggregation wholesale.  Hot
groups stay resident and keep absorbing tuples; cold groups stream
through as partials.

* Uniform data, few groups: behaves like Two Phase (nothing evicts).
* Uniform data, many groups: degenerates towards Repartitioning with a
  one-tuple "partial" per input — like A-2P after its switch, but paying
  an extra table probe per tuple.
* Skewed (Zipf) data: this is where eviction wins — the heavy hitters
  collapse locally even when the distinct count far exceeds memory,
  which neither 2P (spills) nor A-2P (switches wholesale) exploits.

Implemented as an eighth algorithm so the ablation benchmarks can measure
that story against the paper's originals.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.aggregates import GroupState, make_state_factory
from repro.core.algorithms.base import (
    PARTIALS,
    SimConfig,
    broadcast_eof,
    merge_destination,
    merge_phase,
    partial_item_bytes,
    scan_pages,
)
from repro.core.query import BoundQuery
from repro.sim.node import BlockedChannel, NodeContext
from repro.storage.relation import Fragment


class LruAggregationTable:
    """A bounded pre-aggregation table with least-recently-used eviction."""

    def __init__(self, max_entries: int, state_factory) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._state_factory = state_factory
        self._table: OrderedDict = OrderedDict()
        self.evictions = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._table)

    def add_values(self, key, values) -> tuple | None:
        """Absorb one tuple; returns an evicted (key, state) or None."""
        state = self._table.get(key)
        if state is not None:
            state.update(values)
            self._table.move_to_end(key)
            self.hits += 1
            return None
        evicted = None
        if len(self._table) >= self.max_entries:
            evicted = self._table.popitem(last=False)  # LRU out
            self.evictions += 1
        state = self._state_factory()
        state.update(values)
        self._table[key] = state
        return evicted

    def drain(self) -> list[tuple]:
        items = list(self._table.items())
        self._table.clear()
        return items


def streaming_pre_aggregation_body(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """One node's streaming pre-aggregation run; returns its result rows."""
    table = LruAggregationTable(
        ctx.params.hash_table_entries,
        make_state_factory(bq.query.aggregates),
    )
    dst_of = merge_destination(ctx)
    chan = BlockedChannel(ctx, PARTIALS, partial_item_bytes(bq))

    with ctx.phase("streaming_scan"):
        for page_rows, io in scan_pages(ctx, fragment, cfg.pipeline):
            if io is not None:
                yield io
            matched = 0
            evicted_count = 0
            for row in page_rows:
                if not bq.matches(row):
                    continue
                matched += 1
                evicted = table.add_values(bq.key_of(row), bq.values_of(row))
                if evicted is not None:
                    evicted_count += 1
                    send = chan.push(dst_of(evicted[0]), evicted)
                    if send is not None:
                        yield send
            yield ctx.select_cpu(len(page_rows))
            yield ctx.local_agg_cpu(matched)
            if evicted_count:
                yield ctx.result_cpu(evicted_count)

        if table.evictions:
            ctx.decision(
                "evictions",
                ledger_only={"table_entries": len(table)},
                count=table.evictions,
                hits=table.hits,
            )
        ctx.record_memory(len(table))
    with ctx.phase("flush_partials"):
        final_count = 0
        for key, state in table.drain():
            final_count += 1
            send = chan.push(dst_of(key), (key, state))
            if send is not None:
                yield send
        yield ctx.result_cpu(final_count)
        for send in chan.flush():
            yield send
        yield from broadcast_eof(ctx)
    with ctx.phase("merge"):
        results = yield from merge_phase(
            ctx, bq, cfg, expected_eofs=ctx.num_nodes
        )
    return results
