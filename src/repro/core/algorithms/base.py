"""Shared building blocks of the algorithm program bodies.

All bodies follow the Gamma operator structure of Section 2: a scan/select
child feeds the aggregation operator(s), and a store parent consumes the
result (``pipeline=True`` removes the scan and store I/O, the Figure 2
scenario).  The pieces here are the ones several algorithms share:
page-wise fragment scanning, spill-I/O accounting for the bounded hash
aggregator, the partial-flush used by both Two Phase variants, and the
merge phase — which, per Section 3.2, absorbs locally aggregated partials
and repartitioned raw tuples into the *same* hash table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregates import make_state_factory
from repro.core.hashtable import HashAggregator
from repro.core.query import BoundQuery
from repro.core.sortagg import SortAggregator
from repro.sim.node import BlockedChannel, NodeContext
from repro.storage.hashing import bucket_of
from repro.storage.relation import Fragment

EOF = "eof"
PARTIALS = "partials"
RAW = "raw"
END_OF_PHASE = "end_of_phase"

# A merged partial carries the projected attributes plus a small running
# state overhead (e.g. AVG's count); raw tuples are just the projection.
_PARTIAL_OVERHEAD_BYTES = 8

# Overflow-bucket fanout of the node's hash aggregator.
FANOUT = 8


@dataclass(frozen=True)
class SimConfig:
    """Per-run knobs of the simulated algorithms.

    Attributes
    ----------
    pipeline:
        Drop base-relation scan and result-store I/O (Figure 2 mode).
    sampling_threshold:
        Crossover threshold for the Sampling algorithm (default 10·N).
    sample_multiplier:
        Sample size as a multiple of the threshold (paper: 10×).
    init_seg:
        Tuples each Adaptive Repartitioning node observes before judging
        the group count (default 10× the switch threshold).
    arep_switch_groups:
        Distinct groups below which A-Rep abandons Repartitioning
        (default 10·N, the crossover threshold).
    seed:
        Seed for the page sampler.
    local_method:
        Local/merge aggregation engine: "hash" (the paper's default) or
        "sort" (the [BBDW83] baseline).  The adaptive algorithms' switch
        logic is hash-table based and always uses "hash".
    """

    pipeline: bool = False
    sampling_threshold: int | None = None
    sample_multiplier: float = 10.0
    init_seg: int | None = None
    arep_switch_groups: int | None = None
    seed: int = 0
    local_method: str = "hash"

    def __post_init__(self) -> None:
        if self.local_method not in ("hash", "sort"):
            raise ValueError(
                f"local_method must be 'hash' or 'sort', got "
                f"{self.local_method!r}"
            )


def raw_item_bytes(bq: BoundQuery) -> int:
    """On-wire bytes of one repartitioned (projected) tuple."""
    return max(1, bq.projected_bytes)


def partial_item_bytes(bq: BoundQuery) -> int:
    """On-wire bytes of one (key, GroupState) partial."""
    return raw_item_bytes(bq) + _PARTIAL_OVERHEAD_BYTES


def result_item_bytes(bq: BoundQuery) -> int:
    """Bytes of one stored result row."""
    return partial_item_bytes(bq)


class SpillCharges:
    """Collects the hash aggregator's spill activity into I/O requests.

    The aggregator's hooks fire synchronously (they cannot yield), so they
    accumulate counts here; the program yields :meth:`drain` after each
    batch, converting spooled tuples into spill-page I/O.
    """

    def __init__(self, ctx: NodeContext, item_bytes: int) -> None:
        self.ctx = ctx
        self.item_bytes = item_bytes
        self._pending_writes = 0
        self._pending_reads = 0
        self.total_spilled = 0

    def on_write(self, n: int) -> None:
        self._pending_writes += n
        self.total_spilled += n

    def on_read(self, n: int) -> None:
        self._pending_reads += n

    def drain(self):
        """Yield the accumulated spill I/O requests (a generator)."""
        if self._pending_writes:
            pages = self.ctx.pages_of(self._pending_writes * self.item_bytes)
            self._pending_writes = 0
            yield self.ctx.write_pages(pages, tag="spill_io")
        if self._pending_reads:
            pages = self.ctx.pages_of(self._pending_reads * self.item_bytes)
            self._pending_reads = 0
            yield self.ctx.read_pages(pages, tag="spill_io")


def make_aggregator(
    bq: BoundQuery,
    max_entries: int,
    spill: SpillCharges,
    method: str = "hash",
):
    """The node's bounded aggregation engine (hash or sort)."""
    factory = make_state_factory(bq.query.aggregates)
    if method == "sort":
        return SortAggregator(
            factory,
            max_entries,
            on_spill_write=spill.on_write,
            on_spill_read=spill.on_read,
        )
    return HashAggregator(
        factory,
        max_entries,
        fanout=FANOUT,
        on_spill_write=spill.on_write,
        on_spill_read=spill.on_read,
    )


def scan_pages(ctx: NodeContext, fragment: Fragment, pipeline: bool):
    """Iterate the fragment page by page, yielding the scan I/O charge.

    A generator of generators would be unreadable, so this is a plain
    iterator over (page_rows, io_request_or_None); the caller yields the
    request itself.
    """
    for page_rows in fragment.relation.pages(ctx.params.page_bytes):
        # Counting scanned tuples feeds the tuples_scanned metric.
        ctx.record_scanned(len(page_rows))
        io = None if pipeline else ctx.read_pages(1, tag="scan_io")
        yield page_rows, io


def flush_partials(ctx: NodeContext, bq: BoundQuery, items, dst_of):
    """Charge result generation and ship (key, state) partials.

    ``items`` is an iterable of (key, GroupState); ``dst_of(key)`` picks
    the destination node.  A generator: yields the cost/send requests.
    """
    chan = BlockedChannel(ctx, PARTIALS, partial_item_bytes(bq))
    count = 0
    for key, state in items:
        count += 1
        send = chan.push(dst_of(key), (key, state))
        if send is not None:
            yield send
    yield ctx.result_cpu(count)
    for send in chan.flush():
        yield send


def broadcast_eof(ctx: NodeContext, dsts=None):
    """Tell every merge participant this node has no more input for it."""
    targets = range(ctx.num_nodes) if dsts is None else dsts
    for dst in targets:
        yield ctx.send(dst, EOF)


def merge_phase(
    ctx: NodeContext,
    bq: BoundQuery,
    cfg: SimConfig,
    expected_eofs: int,
    preloaded: HashAggregator | None = None,
    spill: SpillCharges | None = None,
):
    """The global aggregation phase (a generator returning result rows).

    Receives until ``expected_eofs`` EOF markers arrive, merging
    ``partials`` and ``raw`` messages into one hash table; stray
    ``end_of_phase`` control messages are consumed and ignored.  With
    ``preloaded`` the phase continues on a table an earlier phase already
    built (Adaptive Repartitioning reuses its repartitioning-phase table).
    """
    if spill is None:
        spill = SpillCharges(ctx, partial_item_bytes(bq))
    agg = (
        preloaded
        if preloaded is not None
        else make_aggregator(
            bq,
            ctx.params.hash_table_entries,
            spill,
            method=cfg.local_method,
        )
    )
    eofs = 0
    while eofs < expected_eofs:
        msg = yield ctx.recv()
        if msg.kind == EOF:
            eofs += 1
            continue
        if msg.kind == END_OF_PHASE:
            continue
        items = msg.payload
        yield ctx.merge_cpu(len(items))
        if msg.kind == PARTIALS:
            agg.add_partials(items)
        elif msg.kind == RAW:
            agg.add_projected(items, bq)
        else:
            raise RuntimeError(
                f"merge phase got unexpected message kind {msg.kind!r}"
            )
        yield from spill.drain()

    ctx.record_memory(agg.in_memory_groups)
    results = []
    for key, state in agg.finish():
        row = bq.result_row(key, state)
        if bq.passes_having(row):
            results.append(row)
    yield from spill.drain()
    ctx.record_groups(len(results))
    yield ctx.result_cpu(len(results))
    if results and not cfg.pipeline:
        pages = ctx.pages_of(len(results) * result_item_bytes(bq))
        yield ctx.write_pages(pages, tag="store_io")
    return results


def merge_destination(ctx: NodeContext):
    """The hash-partitioning function routing a group key to its merger.

    Memoized per distinct key: grouped inputs route millions of tuples
    through a handful of keys, so caching the bucket turns the per-tuple
    FNV hash into a dict hit with identical assignments.
    """
    n = ctx.num_nodes
    cache: dict = {}
    cache_get = cache.get

    def dst_of(key) -> int:
        dst = cache_get(key)
        if dst is None:
            dst = cache[key] = bucket_of(key, n)
        return dst

    return dst_of
