"""Node-side conveniences for writing algorithm programs.

A :class:`NodeContext` bundles the node id, the parameter set, and factory
methods for the request objects, plus the per-tuple CPU charges of Table 1
so algorithm code reads like the cost models ("charge select for n tuples",
"charge aggregation for n tuples").

:class:`BlockedChannel` reproduces the implementation detail of Section 5 —
"for efficiency reasons, we decided to block the messages into 2 KB pages":
tuples destined for a node are buffered and shipped one network block at a
time.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.costmodel.params import SystemParameters
from repro.sim.events import (
    Compute,
    Message,
    ReadPages,
    Recv,
    Send,
    TryRecv,
    WritePages,
)


class NodeContext:
    """What an algorithm program needs to know about 'its' node."""

    def __init__(
        self,
        node_id: int,
        num_nodes: int,
        params: SystemParameters,
        engine=None,
    ) -> None:
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.params = params
        self.engine = engine

    # -- request factories --------------------------------------------------

    def compute(self, seconds: float, tag: str = "cpu") -> Compute:
        return Compute(seconds, tag)

    def read_pages(
        self, pages: float, random: bool = False, tag: str = "io_read"
    ) -> ReadPages:
        return ReadPages(pages, random, tag)

    def write_pages(self, pages: float, tag: str = "io_write") -> WritePages:
        return WritePages(pages, tag)

    def send(
        self, dst: int, kind: str, payload=None, nbytes: int = 0
    ) -> Send:
        return Send(Message(self.node_id, dst, kind, payload, nbytes))

    def recv(self, kind: str | None = None) -> Recv:
        return Recv(kind)

    def try_recv(self, kind: str | None = None) -> TryRecv:
        return TryRecv(kind)

    # -- Table 1 per-tuple CPU charges ---------------------------------------

    def select_cpu(self, n: int) -> Compute:
        """Getting n tuples off data pages: n · (t_r + t_w)."""
        p = self.params
        return Compute(n * (p.t_r + p.t_w), "select_cpu")

    def local_agg_cpu(self, n: int) -> Compute:
        """Hash-aggregate n tuples: n · (t_r + t_h + t_a)."""
        p = self.params
        return Compute(n * (p.t_r + p.t_h + p.t_a), "agg_cpu")

    def repart_select_cpu(self, n: int) -> Compute:
        """Read, write, hash and route n tuples: n · (t_r+t_w+t_h+t_d)."""
        p = self.params
        return Compute(n * (p.t_r + p.t_w + p.t_h + p.t_d), "select_cpu")

    def merge_cpu(self, n: int) -> Compute:
        """Merge n arriving tuples/partials: n · (t_r + t_a)."""
        p = self.params
        return Compute(n * (p.t_r + p.t_a), "merge_cpu")

    def result_cpu(self, n: int) -> Compute:
        """Emit n result tuples: n · t_w."""
        return Compute(n * self.params.t_w, "result_cpu")

    # -- page arithmetic -----------------------------------------------------

    def pages_of(self, nbytes: float) -> float:
        return nbytes / self.params.page_bytes

    def decision(
        self, what: str, ledger_only: dict | None = None, **detail
    ) -> None:
        """Record an adaptive decision (sampling verdict, mode switch, ...).

        The run's :class:`~repro.obs.decisions.DecisionLedger` gets
        ``detail`` merged with ``ledger_only`` extras; a traced run also
        gets a tracer instant carrying exactly ``detail``.
        """
        if self.engine is not None:
            self.engine.decision(self.node_id, what, ledger_only, detail)

    def record_groups(self, groups: int) -> None:
        """Record result groups this node emitted (true-group ground truth)."""
        if self.engine is not None:
            self.engine.record_groups(self.node_id, groups)

    @contextmanager
    def phase(self, name: str, **args):
        """Span over an algorithm phase on this node's tracer track.

        A no-op (zero overhead beyond the generator frame) when the run
        is untraced.  Works inside node programs because ``__enter__``
        and ``__exit__`` execute synchronously at the node's current
        simulated clock.
        """
        engine = self.engine
        tracer = None if engine is None else engine.tracer
        if tracer is None:
            yield None
            return
        span = tracer.begin(
            name, track=self.node_id,
            t=engine.node_clock(self.node_id), **args,
        )
        try:
            yield span
        finally:
            tracer.end(span, engine.node_clock(self.node_id))

    def record_memory(self, table_entries: int) -> None:
        """Update this node's peak hash/sort-table occupancy metric."""
        if self.engine is not None:
            self.engine.record_memory(self.node_id, table_entries)

    def record_scanned(self, tuples: int) -> None:
        """Count fragment tuples scanned (the ``tuples_scanned`` metric)."""
        if self.engine is not None:
            self.engine.record_scanned(self.node_id, tuples)


class BlockedChannel:
    """Per-destination buffering of outgoing items into network blocks.

    ``push`` buffers an item for a destination and, once a full block's
    worth of bytes has accumulated, returns a Send request the program must
    yield (and clears the buffer).  ``flush`` drains any partial blocks at
    end of phase.
    """

    def __init__(self, ctx: NodeContext, kind: str, item_bytes: int) -> None:
        if item_bytes <= 0:
            raise ValueError("item_bytes must be positive")
        self.ctx = ctx
        self.kind = kind
        self.item_bytes = item_bytes
        self._buffers: dict[int, list] = {}
        self.items_pushed = 0
        self._items_per_block = max(
            1, ctx.params.block_bytes // item_bytes
        )

    def push(self, dst: int, item):
        """Buffer one item; returns a Send request when a block fills."""
        buf = self._buffers.setdefault(dst, [])
        buf.append(item)
        self.items_pushed += 1
        if len(buf) >= self._items_per_block:
            return self._ship(dst)
        return None

    def _ship(self, dst: int):
        buf = self._buffers.pop(dst, None)
        if not buf:
            return None
        return self.ctx.send(
            dst, self.kind, payload=buf, nbytes=len(buf) * self.item_bytes
        )

    def flush(self):
        """Send requests for every non-empty partial buffer."""
        sends = []
        for dst in sorted(self._buffers):
            send = self._ship(dst)
            if send is not None:
                sends.append(send)
        return sends
