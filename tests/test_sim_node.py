"""Unit tests for NodeContext helpers and BlockedChannel."""

import pytest

from repro.costmodel.params import SystemParameters
from repro.sim.events import Compute, Send
from repro.sim.node import BlockedChannel, NodeContext


@pytest.fixture
def ctx():
    params = SystemParameters.implementation()  # 2 KB blocks
    return NodeContext(0, 8, params)


class TestChargeHelpers:
    def test_select_cpu(self, ctx):
        req = ctx.select_cpu(100)
        p = ctx.params
        assert req.seconds == pytest.approx(100 * (p.t_r + p.t_w))
        assert req.tag == "select_cpu"

    def test_local_agg_cpu(self, ctx):
        p = ctx.params
        assert ctx.local_agg_cpu(10).seconds == pytest.approx(
            10 * (p.t_r + p.t_h + p.t_a)
        )

    def test_repart_select_cpu(self, ctx):
        p = ctx.params
        assert ctx.repart_select_cpu(10).seconds == pytest.approx(
            10 * (p.t_r + p.t_w + p.t_h + p.t_d)
        )

    def test_merge_cpu(self, ctx):
        p = ctx.params
        assert ctx.merge_cpu(10).seconds == pytest.approx(
            10 * (p.t_r + p.t_a)
        )

    def test_result_cpu(self, ctx):
        assert ctx.result_cpu(4).seconds == pytest.approx(
            4 * ctx.params.t_w
        )

    def test_pages_of(self, ctx):
        assert ctx.pages_of(ctx.params.page_bytes * 2.5) == 2.5

    def test_send_builds_message(self, ctx):
        req = ctx.send(3, "raw", payload=[1], nbytes=16)
        assert isinstance(req, Send)
        assert req.message.src == 0
        assert req.message.dst == 3
        assert req.message.nbytes == 16

    def test_log_without_engine_is_noop(self, ctx):
        ctx.decision("anything")  # must not raise


class TestBlockedChannel:
    def test_ships_when_block_full(self, ctx):
        # 2048-byte blocks, 16-byte items: 128 per block.
        chan = BlockedChannel(ctx, "raw", item_bytes=16)
        sends = []
        for i in range(300):
            send = chan.push(1, i)
            if send is not None:
                sends.append(send)
        assert len(sends) == 2
        assert all(len(s.message.payload) == 128 for s in sends)
        assert all(s.message.nbytes == 2048 for s in sends)

    def test_flush_drains_partials(self, ctx):
        chan = BlockedChannel(ctx, "raw", item_bytes=16)
        chan.push(0, "a")
        chan.push(2, "b")
        sends = chan.flush()
        assert sorted(s.message.dst for s in sends) == [0, 2]
        assert all(s.message.nbytes == 16 for s in sends)

    def test_flush_empty(self, ctx):
        assert BlockedChannel(ctx, "x", 16).flush() == []

    def test_no_item_lost(self, ctx):
        chan = BlockedChannel(ctx, "raw", item_bytes=100)
        shipped = []
        for i in range(1000):
            send = chan.push(i % 4, i)
            if send is not None:
                shipped.extend(send.message.payload)
        for send in chan.flush():
            shipped.extend(send.message.payload)
        assert sorted(shipped) == list(range(1000))
        assert chan.items_pushed == 1000

    def test_items_bigger_than_block_ship_singly(self, ctx):
        chan = BlockedChannel(ctx, "raw", item_bytes=5000)
        send = chan.push(1, "huge")
        assert send is not None
        assert len(send.message.payload) == 1

    def test_invalid_item_bytes(self, ctx):
        with pytest.raises(ValueError):
            BlockedChannel(ctx, "raw", item_bytes=0)
