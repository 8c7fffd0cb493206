"""The discrete-event core.

Each node runs exactly one program (a generator).  Compute and disk
requests only touch that node's private clock, so the engine advances a
program *greedily* until it needs a shared resource — a send (the network,
possibly a shared bus) or a receive.  Those requests are routed through a
global time-ordered event heap, which guarantees that bus contention and
message availability are resolved in chronological order across nodes, and
that runs are fully deterministic (ties broken by a global sequence
number).

Receive-side protocol CPU (m_p per block) is charged to the receiver when
it consumes a message, matching the cost models' "receiving tuples" terms.
Zero-byte messages (control traffic such as ``end_of_phase`` and ``eof``)
are free and arrive instantly — the paper piggy-backs them on data
messages.  A send to the local node bypasses both the network and the
protocol cost.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

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
from repro.obs.decisions import DecisionLedger
from repro.obs.tracer import NODE as _CAT_NODE
from repro.obs.tracer import QUERY as _CAT_QUERY
from repro.sim.metrics import ClusterMetrics, NodeMetrics
from repro.sim.network import make_network

_RUNNING = "running"
_PARKED = "parked"
_DONE = "done"


class DeadlockError(RuntimeError):
    """All remaining nodes are parked on Recv with no message in flight."""


class SimulationError(RuntimeError):
    """A node program yielded something the engine cannot price."""


@dataclass
class _NodeState:
    node_id: int
    gen: object
    clock: float = 0.0
    status: str = _RUNNING
    mailbox: list = field(default_factory=list)  # heap of (delivery, seq, Message)
    waiting_kind: str | None = None
    waiting_epoch: int = 0
    result: object = None
    metrics: NodeMetrics = None
    span: object = None  # open obs span for this node's lifetime, if traced

    def matching(self, kind: str | None):
        """Mailbox entries whose message kind matches ``kind``."""
        return [
            entry
            for entry in self.mailbox
            if kind is None or entry[2].kind == kind
        ]


class Engine:
    """Runs a set of node programs to completion over a network model."""

    def __init__(
        self,
        params: SystemParameters,
        network=None,
        max_events: int = 50_000_000,
        node_speed_factors=None,
        tracer=None,
        ledger=None,
    ) -> None:
        self.params = params
        self.network = network if network is not None else make_network(params)
        # Optional obs.Tracer; None = untraced, and every tracing hook
        # below short-circuits so the simulation is bit-identical.
        self.tracer = tracer
        # Every adaptive decision of the run lands here; a caller may
        # hand in its own ledger.
        self.ledger = ledger if ledger is not None else DecisionLedger()
        # A backstop against node programs that send/poll in an infinite
        # loop: far above any legitimate run, but finite.
        self.max_events = max_events
        # Heterogeneous hardware: node i's CPU and disk run at
        # speed_factors[i] times the Table 1 rates (0.5 = half speed,
        # i.e. doubled durations).  None = homogeneous.
        if node_speed_factors is not None:
            factors = list(node_speed_factors)
            if len(factors) != params.num_nodes or not all(
                math.isfinite(f) and f > 0 for f in factors
            ):
                raise ValueError(
                    f"node_speed_factors must hold exactly "
                    f"{params.num_nodes} finite positive numbers (one per "
                    f"node), got {factors!r}"
                )
            self.node_speed_factors = factors
        else:
            self.node_speed_factors = None
        self._heap: list = []
        self._seq = 0
        self._nodes: list[_NodeState] = []
        # Channels are FIFO per (src, dst) pair, as with PVM/TCP: a later
        # message (e.g. a zero-byte EOF) never overtakes earlier data.
        self._channel_last: dict[tuple[int, int], float] = {}

    # -- public API ---------------------------------------------------------

    def run(self, generators) -> tuple[list, ClusterMetrics]:
        """Execute one generator per node; returns (results, metrics)."""
        self._nodes = [
            _NodeState(i, gen, metrics=NodeMetrics(i))
            for i, gen in enumerate(generators)
        ]
        tracer = self.tracer
        query_span = None
        if tracer is not None:
            query_span = tracer.begin(
                "query", track=-1, t=0.0, cat=_CAT_QUERY,
                nodes=len(self._nodes),
            )
            for st in self._nodes:
                st.span = tracer.begin(
                    f"node {st.node_id}", track=st.node_id, t=0.0,
                    cat=_CAT_NODE, parent=query_span,
                )
        for st in self._nodes:
            self._push(0.0, "resume", st.node_id, None)
        processed = 0
        while self._heap:
            processed += 1
            if processed > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; a node "
                    "program is likely looping on sends or polls"
                )
            time, _seq, action, node_id, payload = heapq.heappop(self._heap)
            st = self._nodes[node_id]
            if st.status == _DONE:
                continue
            if action == "resume":
                self._advance(st, payload, time)
            elif action == "send":
                self._handle_send(st, payload, time)
            elif action == "recv":
                self._handle_recv(st, payload, time)
            elif action == "tryrecv":
                self._handle_tryrecv(st, payload, time)
            else:  # pragma: no cover - internal invariant
                raise SimulationError(f"unknown action {action!r}")
        stuck = [st.node_id for st in self._nodes if st.status != _DONE]
        if stuck:
            kinds = {
                st.node_id: st.waiting_kind
                for st in self._nodes
                if st.status == _PARKED
            }
            raise DeadlockError(
                f"nodes {stuck} never finished; parked waiting on {kinds}"
            )
        if tracer is not None:
            makespan = max(
                (st.metrics.finish_time for st in self._nodes), default=0.0
            )
            for st in self._nodes:
                tracer.end(st.span, st.metrics.finish_time)
            tracer.end(query_span, makespan)
        return [st.result for st in self._nodes], self._collect_metrics()

    def _collect_metrics(self) -> ClusterMetrics:
        return ClusterMetrics(
            nodes=[st.metrics for st in self._nodes],
            network_busy_seconds=self.network.busy_seconds,
            network_blocks=self.network.blocks_carried,
        )

    def decision(
        self, node_id: int, what: str, extra: dict | None, detail: dict
    ) -> None:
        """Record an adaptive decision at the node's current simulated time.

        The ledger entry holds ``detail`` merged with ``extra``, the
        ledger-only context (table capacities, sample sizes) that would
        bloat a trace.  On a traced run the decision is also a tracer
        instant carrying exactly ``detail``, linked from the ledger entry
        by the id of the span it was made inside.
        """
        clock = self._nodes[node_id].clock
        span_id = None
        if self.tracer is not None:
            self.tracer.instant(what, node_id, clock, **detail)
            span = self.tracer.current_span(node_id)
            if span is not None:
                span_id = span.span_id
        self.ledger.record(
            what,
            node_id,
            clock,
            data={**detail, **(extra or {})},
            span_id=span_id,
        )

    def node_clock(self, node_id: int) -> float:
        return self._nodes[node_id].clock

    def record_memory(self, node_id: int, table_entries: int) -> None:
        """Track the peak aggregate-table occupancy of one node."""
        metrics = self._nodes[node_id].metrics
        if table_entries > metrics.peak_table_entries:
            metrics.peak_table_entries = table_entries

    def record_groups(self, node_id: int, groups: int) -> None:
        """Record how many result groups one node produced (ground truth)."""
        self._nodes[node_id].metrics.groups_output += groups

    def record_scanned(self, node_id: int, tuples: int) -> None:
        """Count fragment tuples scanned."""
        self._nodes[node_id].metrics.tuples_scanned += tuples

    # -- internals ----------------------------------------------------------

    def _push(self, time: float, action: str, node_id: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, action, node_id, payload))

    def _blocks(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        return math.ceil(nbytes / self.params.block_bytes)

    def _node_slowdown(self, node_id: int) -> float:
        if self.node_speed_factors is None:
            return 1.0
        return 1.0 / self.node_speed_factors[node_id]

    def _advance(self, st: _NodeState, value, time: float) -> None:
        """Run the node greedily until it hits a shared-resource request."""
        st.clock = max(st.clock, time)
        st.status = _RUNNING
        gen = st.gen
        params = self.params
        metrics = st.metrics
        tracer = self.tracer
        trace_ops = tracer is not None and tracer.operator_spans
        slowdown = self._node_slowdown(st.node_id)
        while True:
            try:
                req = gen.send(value)
            except StopIteration as stop:
                st.status = _DONE
                st.result = stop.value
                metrics.finish_time = st.clock
                return
            value = None
            if isinstance(req, Compute):
                seconds = req.seconds * slowdown
                start = st.clock
                st.clock += seconds
                metrics.cpu_seconds += seconds
                metrics.add_tagged(req.tag, seconds)
                if trace_ops and seconds > 0:
                    tracer.complete(
                        req.tag, st.node_id, start, st.clock, op="compute"
                    )
            elif isinstance(req, ReadPages):
                per_page = (
                    params.random_io_seconds
                    if req.random
                    else params.io_seconds
                )
                seconds = req.pages * per_page * slowdown
                start = st.clock
                st.clock += seconds
                metrics.io_read_seconds += seconds
                metrics.pages_read += req.pages
                if req.tag == "spill_io":
                    metrics.spill_pages += req.pages
                metrics.add_tagged(req.tag, seconds)
                if trace_ops and st.clock > start:
                    tracer.complete(
                        req.tag, st.node_id, start, st.clock,
                        op="read", pages=req.pages,
                    )
            elif isinstance(req, WritePages):
                seconds = req.pages * params.io_seconds * slowdown
                start = st.clock
                st.clock += seconds
                metrics.io_write_seconds += seconds
                metrics.pages_written += req.pages
                if req.tag == "spill_io":
                    metrics.spill_pages += req.pages
                metrics.add_tagged(req.tag, seconds)
                if trace_ops and seconds > 0:
                    tracer.complete(
                        req.tag, st.node_id, start, st.clock,
                        op="write", pages=req.pages,
                    )
            elif isinstance(req, Send):
                self._push(st.clock, "send", st.node_id, req.message)
                return
            elif isinstance(req, Recv):
                st.waiting_epoch += 1
                self._push(
                    st.clock, "recv", st.node_id, (req.kind, st.waiting_epoch)
                )
                return
            elif isinstance(req, TryRecv):
                self._push(st.clock, "tryrecv", st.node_id, req.kind)
                return
            else:
                raise SimulationError(
                    f"node {st.node_id} yielded unsupported request "
                    f"{req!r}"
                )

    def _handle_send(self, st: _NodeState, msg: Message, time: float) -> None:
        st.clock = max(st.clock, time)
        blocks = self._blocks(msg.nbytes)
        metrics = st.metrics
        metrics.messages_sent += 1
        metrics.blocks_sent += blocks
        metrics.bytes_sent += msg.nbytes
        if msg.dst == msg.src:
            delivery = st.clock
        else:
            protocol = blocks * self.params.m_p
            st.clock += protocol
            metrics.cpu_seconds += protocol
            metrics.add_tagged("send_protocol", protocol)
            delivery = self.network.transfer(st.clock, blocks)
        channel = (msg.src, msg.dst)
        delivery = max(delivery, self._channel_last.get(channel, 0.0))
        self._channel_last[channel] = delivery
        dst = self._nodes[msg.dst]
        self._seq += 1
        heapq.heappush(dst.mailbox, (delivery, self._seq, msg))
        if dst.status == _PARKED and (
            dst.waiting_kind is None or dst.waiting_kind == msg.kind
        ):
            self._push(
                max(delivery, dst.clock),
                "recv",
                dst.node_id,
                (dst.waiting_kind, dst.waiting_epoch),
            )
        self._advance(st, None, st.clock)

    def _consume(self, st: _NodeState, entry) -> Message:
        """Remove one mailbox entry and charge the receive protocol."""
        st.mailbox.remove(entry)
        heapq.heapify(st.mailbox)
        delivery, _seq, msg = entry
        st.clock = max(st.clock, delivery)
        if msg.dst != msg.src:
            blocks = self._blocks(msg.nbytes)
            protocol = blocks * self.params.m_p
            st.clock += protocol
            st.metrics.cpu_seconds += protocol
            st.metrics.add_tagged("recv_protocol", protocol)
        st.metrics.messages_received += 1
        return msg

    def _handle_recv(self, st: _NodeState, payload, time: float) -> None:
        kind, epoch = payload
        if st.status == _DONE or epoch != st.waiting_epoch:
            return  # stale wake-up
        if st.status == _RUNNING:
            # First time this Recv is processed: record what we wait for.
            st.waiting_kind = kind
        matching = st.matching(kind)
        if not matching:
            st.status = _PARKED
            return
        entry = min(matching)
        delivery = entry[0]
        now = max(st.clock, time)
        if delivery > now:
            # The message exists but is still in flight; re-check at its
            # delivery time (an earlier arrival will also wake us).
            st.status = _PARKED
            self._push(delivery, "recv", st.node_id, (kind, epoch))
            return
        st.waiting_epoch += 1  # consume the wait; later wakes are stale
        msg = self._consume(st, entry)
        self._advance(st, msg, max(now, st.clock))

    def _handle_tryrecv(self, st: _NodeState, kind, time: float) -> None:
        now = max(st.clock, time)
        matching = [e for e in st.matching(kind) if e[0] <= now]
        if not matching:
            self._advance(st, None, now)
            return
        msg = self._consume(st, min(matching))
        self._advance(st, msg, max(now, st.clock))
