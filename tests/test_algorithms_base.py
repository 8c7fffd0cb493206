"""Tests for the shared algorithm building blocks."""

import pytest

from repro.core.aggregates import AggregateSpec
from repro.core.algorithms.base import (
    SimConfig,
    SpillCharges,
    merge_destination,
    partial_item_bytes,
    raw_item_bytes,
)
from repro.core.query import AggregateQuery
from repro.costmodel.params import SystemParameters
from repro.sim.events import ReadPages, WritePages
from repro.sim.node import NodeContext
from repro.storage.schema import default_schema


@pytest.fixture
def ctx():
    params = SystemParameters.implementation()
    return NodeContext(0, 8, params)


@pytest.fixture
def bq():
    query = AggregateQuery(
        group_by=["gkey"], aggregates=[AggregateSpec("sum", "val")]
    )
    return query.bind(default_schema())


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert not cfg.pipeline
        assert cfg.local_method == "hash"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimConfig().pipeline = True

    def test_invalid_local_method(self):
        with pytest.raises(ValueError):
            SimConfig(local_method="btree")


class TestItemBytes:
    def test_raw_is_projection(self, bq):
        assert raw_item_bytes(bq) == 16  # gkey + val

    def test_partial_adds_overhead(self, bq):
        assert partial_item_bytes(bq) == raw_item_bytes(bq) + 8


class TestSpillCharges:
    def test_write_then_read_requests(self, ctx):
        spill = SpillCharges(ctx, item_bytes=100)
        spill.on_write(40)  # one page's worth at 4KB pages
        reqs = list(spill.drain())
        assert len(reqs) == 1
        assert isinstance(reqs[0], WritePages)
        assert reqs[0].pages == pytest.approx(4000 / 4096)
        assert reqs[0].tag == "spill_io"

        spill.on_read(40)
        reqs = list(spill.drain())
        assert isinstance(reqs[0], ReadPages)

    def test_drain_is_idempotent(self, ctx):
        spill = SpillCharges(ctx, item_bytes=10)
        spill.on_write(5)
        assert len(list(spill.drain())) == 1
        assert list(spill.drain()) == []

    def test_total_spilled_tracks_writes(self, ctx):
        spill = SpillCharges(ctx, item_bytes=10)
        spill.on_write(5)
        spill.on_write(7)
        spill.on_read(12)
        assert spill.total_spilled == 12


class TestMergeDestination:
    def test_stable_across_nodes(self):
        """Every node must route a key to the same merge node — that is
        what makes the unsynchronized mixed merging correct."""
        params = SystemParameters.implementation()
        dsts = [
            merge_destination(NodeContext(i, 8, params)) for i in range(8)
        ]
        for key in [(k,) for k in range(50)]:
            homes = {dst(key) for dst in dsts}
            assert len(homes) == 1

    def test_in_range(self, ctx):
        dst = merge_destination(ctx)
        for k in range(100):
            assert 0 <= dst((k,)) < 8

    def test_spreads_keys(self, ctx):
        dst = merge_destination(ctx)
        used = {dst((k,)) for k in range(200)}
        assert len(used) == 8
