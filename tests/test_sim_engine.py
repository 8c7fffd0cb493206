"""Unit tests for the discrete-event engine."""

import re
from pathlib import Path

import pytest

from repro.costmodel.params import NetworkKind, SystemParameters
from repro.sim.engine import DeadlockError, Engine, SimulationError
from repro.sim.events import Compute, ReadPages, Recv, Send, TryRecv, WritePages
from repro.sim.network import SharedBusNetwork
from repro.sim.node import NodeContext


@pytest.fixture
def params():
    return SystemParameters.paper_default().with_(num_nodes=2)


def run(params, *program_fns, network=None):
    engine = Engine(params, network)
    ctxs = [
        NodeContext(i, len(program_fns), params, engine)
        for i in range(len(program_fns))
    ]
    gens = [fn(ctx) for fn, ctx in zip(program_fns, ctxs)]
    results, metrics = engine.run(gens)
    return results, metrics, engine


class TestCompute:
    def test_advances_clock(self, params):
        def prog(ctx):
            yield Compute(1.5)
            return "done"

        results, metrics, _ = run(params, prog)
        assert results == ["done"]
        assert metrics.node(0).finish_time == pytest.approx(1.5)
        assert metrics.node(0).cpu_seconds == pytest.approx(1.5)

    def test_tagged_breakdown(self, params):
        def prog(ctx):
            yield Compute(1.0, tag="select_cpu")
            yield Compute(2.0, tag="select_cpu")
            yield Compute(0.5, tag="merge_cpu")

        _, metrics, _ = run(params, prog)
        tags = metrics.node(0).tagged_seconds
        assert tags["select_cpu"] == pytest.approx(3.0)
        assert tags["merge_cpu"] == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)


class TestIo:
    def test_sequential_read(self, params):
        def prog(ctx):
            yield ReadPages(10)

        _, metrics, _ = run(params, prog)
        assert metrics.node(0).io_read_seconds == pytest.approx(
            10 * params.io_seconds
        )
        assert metrics.node(0).pages_read == 10

    def test_random_read_uses_rio(self, params):
        def prog(ctx):
            yield ReadPages(2, random=True)

        _, metrics, _ = run(params, prog)
        assert metrics.node(0).io_read_seconds == pytest.approx(
            2 * params.random_io_seconds
        )

    def test_write(self, params):
        def prog(ctx):
            yield WritePages(4)

        _, metrics, _ = run(params, prog)
        assert metrics.node(0).pages_written == 4

    def test_spill_tag_counts_spill_pages(self, params):
        def prog(ctx):
            yield WritePages(3, tag="spill_io")
            yield ReadPages(3, tag="spill_io")

        _, metrics, _ = run(params, prog)
        assert metrics.node(0).spill_pages == 6


class TestMessaging:
    def test_send_recv_payload(self, params):
        def sender(ctx):
            yield ctx.send(1, "data", payload=[1, 2, 3], nbytes=100)

        def receiver(ctx):
            msg = yield ctx.recv()
            return msg.payload

        results, _, _ = run(params, sender, receiver)
        assert results[1] == [1, 2, 3]

    def test_latency_delays_receiver(self, params):
        def sender(ctx):
            yield Compute(1.0)
            yield ctx.send(1, "data", nbytes=params.page_bytes)

        def receiver(ctx):
            yield ctx.recv()

        _, metrics, _ = run(params, sender, receiver)
        # receiver waits: 1.0 compute + m_p (send) + m_l + m_p (recv)
        expected = 1.0 + params.m_p + params.m_l + params.m_p
        assert metrics.node(1).finish_time == pytest.approx(expected)

    def test_recv_kind_filter(self, params):
        def sender(ctx):
            yield ctx.send(1, "noise", payload="no", nbytes=10)
            yield ctx.send(1, "data", payload="yes", nbytes=10)

        def receiver(ctx):
            msg = yield ctx.recv("data")
            return msg.payload

        results, _, _ = run(params, sender, receiver)
        assert results[1] == "yes"

    def test_fifo_per_channel(self, params):
        """A zero-byte control message never overtakes earlier data."""
        def sender(ctx):
            yield ctx.send(1, "data", payload="big", nbytes=50 * 4096)
            yield ctx.send(1, "eof")

        def receiver(ctx):
            first = yield ctx.recv()
            second = yield ctx.recv()
            return [first.kind, second.kind]

        results, _, _ = run(params, sender, receiver)
        assert results[1] == ["data", "eof"]

    def test_self_send_is_free(self, params):
        def prog(ctx):
            yield ctx.send(0, "data", payload=7, nbytes=4096)
            msg = yield ctx.recv()
            return msg.payload

        def other(ctx):
            return ()
            yield  # pragma: no cover

        results, metrics, _ = run(params, prog, other)
        assert results[0] == 7
        assert metrics.node(0).cpu_seconds == 0.0

    def test_try_recv_returns_none_when_empty(self, params):
        def prog(ctx):
            msg = yield ctx.try_recv("ping")
            return msg

        def other(ctx):
            return ()
            yield  # pragma: no cover

        results, _, _ = run(params, prog, other)
        assert results[0] is None

    def test_try_recv_sees_delivered_message(self, params):
        def sender(ctx):
            yield ctx.send(1, "ping")

        def receiver(ctx):
            yield Compute(5.0)  # the ping is long delivered by now
            msg = yield ctx.try_recv("ping")
            return msg is not None

        results, _, _ = run(params, sender, receiver)
        assert results[1] is True

    def test_try_recv_ignores_in_flight_message(self, params):
        def sender(ctx):
            yield Compute(10.0)
            yield ctx.send(1, "ping")

        def receiver(ctx):
            msg = yield ctx.try_recv("ping")  # at t=0: nothing yet
            got_early = msg is not None
            msg = yield ctx.recv("ping")
            return (got_early, msg is not None)

        results, _, _ = run(params, sender, receiver)
        assert results[1] == (False, True)

    def test_message_metrics(self, params):
        def sender(ctx):
            yield ctx.send(1, "data", nbytes=3 * params.block_bytes)

        def receiver(ctx):
            yield ctx.recv()

        _, metrics, _ = run(params, sender, receiver)
        assert metrics.node(0).messages_sent == 1
        assert metrics.node(0).blocks_sent == 3
        assert metrics.node(1).messages_received == 1
        assert metrics.network_blocks == 3


class TestBusContention:
    def test_two_senders_serialize(self):
        params = SystemParameters.paper_default().with_(
            num_nodes=3, network=NetworkKind.LIMITED_BANDWIDTH
        )

        def sender(ctx):
            yield ctx.send(2, "data", nbytes=10 * params.block_bytes)

        def receiver(ctx):
            yield ctx.recv()
            yield ctx.recv()

        net = SharedBusNetwork(params.m_l)
        engine = Engine(params, net)
        ctxs = [NodeContext(i, 3, params, engine) for i in range(3)]
        _, metrics = engine.run(
            [sender(ctxs[0]), sender(ctxs[1]), receiver(ctxs[2])]
        )
        # 20 blocks must cross a serial bus: makespan >= 20 · m_l.
        assert metrics.node(2).finish_time >= 20 * params.m_l


class TestFailureModes:
    def test_deadlock_detected(self, params):
        def waiter(ctx):
            yield ctx.recv("never")

        def done(ctx):
            return ()
            yield  # pragma: no cover

        with pytest.raises(DeadlockError, match="never"):
            run(params, waiter, done)

    def test_bad_request_rejected(self, params):
        def prog(ctx):
            yield "not a request"

        with pytest.raises(SimulationError, match="unsupported request"):
            run(params, prog)


class TestDeterminism:
    def test_identical_runs(self, params):
        def make_programs():
            def ping(ctx):
                for i in range(10):
                    yield ctx.send(1, "m", payload=i, nbytes=64)
                yield ctx.send(1, "eof")

            def pong(ctx):
                got = []
                while True:
                    msg = yield ctx.recv()
                    if msg.kind == "eof":
                        return got
                    got.append(msg.payload)

            return ping, pong

        r1, m1, _ = run(params, *make_programs())
        r2, m2, _ = run(params, *make_programs())
        assert r1 == r2
        assert m1.node(1).finish_time == m2.node(1).finish_time


class TestTrace:
    def test_log_records_time_and_node(self, params):
        """A decision lands in the engine's ledger at the node's clock,
        with its ledger-only extras merged into the data."""

        def prog(ctx):
            yield Compute(2.0)
            ctx.decision("checkpoint", ledger_only={"extra": 1}, detail=42)

        _, _, engine = run(params, prog)
        (event,) = engine.ledger.events
        assert event.time == pytest.approx(2.0)
        assert event.node == 0
        assert event.kind == "checkpoint"
        assert event.data == {"detail": 42, "extra": 1}
        assert event.span_id is None


ROOT = Path(__file__).resolve().parents[1]

# Second records of a simulated fact: an event list beside the ledger,
# timeline lanes beside the operator spans, and an inert tracer and a
# flat span log beside the one tracer and the one trace format.
_SECOND_RECORDS = re.compile(
    r"\b(TraceEvent|record_timeline|_record_segment|switch_events"
    r"|events_named|NullTracer|to_jsonl)\b"
)


def test_a_simulated_fact_is_recorded_once():
    """Decisions live in the DecisionLedger and activity in the tracer's
    operator spans; no second record of either comes back."""
    found = []
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if _SECOND_RECORDS.search(line):
                    found.append(f"{path.relative_to(ROOT)}:{n}: {line}")
    assert found == []
