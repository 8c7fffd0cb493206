"""Unit tests for the bounded hash table and the spilling aggregator."""

import pytest

import repro.core.hashtable
from repro.core.aggregates import AggregateSpec, make_state_factory
from repro.core.hashtable import BoundedAggregateHashTable, HashAggregator
from repro.resources import SpillDepthExceededError

SPECS = [AggregateSpec("sum", "v"), AggregateSpec("count", None)]


def factory():
    return make_state_factory(SPECS)()


def make_table(max_entries):
    return BoundedAggregateHashTable(
        max_entries, make_state_factory(SPECS)
    )


class TestBoundedTable:
    def test_absorbs_until_full(self):
        t = make_table(2)
        assert t.add_values("a", (1.0, 1))
        assert t.add_values("b", (1.0, 1))
        assert t.is_full
        assert not t.add_values("c", (1.0, 1))

    def test_existing_key_updates_even_when_full(self):
        t = make_table(1)
        assert t.add_values("a", (1.0, 1))
        assert t.add_values("a", (2.0, 1))
        items = dict(t.items())
        assert items["a"].results() == (3.0, 2)

    def test_add_partial_merges(self):
        t = make_table(2)
        p = factory()
        p.update((5.0, 1))
        assert t.add_partial("a", p)
        q = factory()
        q.update((3.0, 1))
        assert t.add_partial("a", q)
        assert dict(t.items())["a"].results() == (8.0, 2)

    def test_add_partial_copies(self):
        """The table must own its states — a caller reusing the partial
        object must not corrupt the table."""
        t = make_table(2)
        p = factory()
        p.update((5.0, 1))
        t.add_partial("a", p)
        p.update((100.0, 1))
        assert dict(t.items())["a"].results() == (5.0, 1)

    def test_add_partial_respects_capacity(self):
        t = make_table(1)
        t.add_values("a", (1.0, 1))
        assert not t.add_partial("b", factory())

    def test_drain_empties(self):
        t = make_table(2)
        t.add_values("a", (1.0, 1))
        drained = t.drain()
        assert set(drained) == {"a"}
        assert len(t) == 0
        assert not t.is_full or t.max_entries == 0

    def test_contains(self):
        t = make_table(2)
        t.add_values("a", (1.0, 1))
        assert "a" in t
        assert "b" not in t

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_table(0)


class TestHashAggregator:
    def _collect(self, agg):
        return {k: s.results() for k, s in agg.finish()}

    def test_no_overflow_below_capacity(self):
        agg = HashAggregator(make_state_factory(SPECS), max_entries=10)
        for i in range(5):
            agg.add_values(i, (float(i), 1))
        out = self._collect(agg)
        assert len(out) == 5
        assert not agg.overflowed

    def test_overflow_still_correct(self):
        agg = HashAggregator(make_state_factory(SPECS), max_entries=3)
        for i in range(50):
            agg.add_values(i % 10, (1.0, 1))
        out = self._collect(agg)
        assert len(out) == 10
        assert all(v == (5.0, 5) for v in out.values())
        assert agg.overflowed
        assert agg.spilled_items > 0

    def test_spill_hooks_fire(self):
        writes, reads = [], []
        agg = HashAggregator(
            make_state_factory(SPECS),
            max_entries=2,
            on_spill_write=writes.append,
            on_spill_read=reads.append,
        )
        for i in range(20):
            agg.add_values(i, (1.0, 1))
        list(agg.finish())
        # 18 of 20 keys miss the 2-entry table on the first pass; deeper
        # passes may respill, but writes and reads must always balance.
        assert sum(writes) >= 18
        assert sum(writes) == sum(reads)

    def test_partials_spill_too(self):
        agg = HashAggregator(make_state_factory(SPECS), max_entries=2)
        for i in range(10):
            p = factory()
            p.update((float(i), 1))
            agg.add_partial(i, p)
        out = self._collect(agg)
        assert len(out) == 10
        assert out[9] == (9.0, 1)

    def test_mixed_raw_and_partials(self):
        agg = HashAggregator(make_state_factory(SPECS), max_entries=2)
        for i in range(8):
            agg.add_values(i, (1.0, 1))
        for i in range(8):
            p = factory()
            p.update((1.0, 1))
            agg.add_partial(i, p)
        out = self._collect(agg)
        assert all(v == (2.0, 2) for v in out.values())

    def test_deep_overflow_single_entry_table(self):
        agg = HashAggregator(
            make_state_factory(SPECS), max_entries=1, fanout=2
        )
        for i in range(200):
            agg.add_values(i % 40, (1.0, 1))
        out = self._collect(agg)
        assert len(out) == 40
        assert all(v == (5.0, 5) for v in out.values())

    def test_overflow_passes_counted(self):
        agg = HashAggregator(make_state_factory(SPECS), max_entries=2)
        for i in range(20):
            agg.add_values(i, (1.0, 1))
        list(agg.finish())
        assert agg.overflow_passes >= 1

    def test_fanout_validation(self):
        with pytest.raises(ValueError, match="fanout"):
            HashAggregator(make_state_factory(SPECS), 10, fanout=1)

    def test_existing_group_never_spills(self):
        """Matching tuples always merge in memory (step 1 of Section 2)."""
        agg = HashAggregator(make_state_factory(SPECS), max_entries=1)
        for _ in range(100):
            agg.add_values("only", (1.0, 1))
        assert agg.spilled_items == 0
        out = self._collect(agg)
        assert out["only"] == (100.0, 100)

    def test_in_memory_groups_property(self):
        agg = HashAggregator(make_state_factory(SPECS), max_entries=3)
        agg.add_values("a", (1.0, 1))
        assert agg.in_memory_groups == 1


class TestSpillDepthGuard:
    def test_pathological_skew_raises(self, monkeypatch):
        """Total hash collapse must fail loudly, not recurse forever.

        With every key hashing to the same bucket at every depth,
        repartitioning can never shrink the working set; before this
        guard the aggregator silently fell back to an unbounded table.
        """
        monkeypatch.setattr(
            repro.core.hashtable, "stable_hash", lambda _key: 7
        )
        agg = HashAggregator(
            make_state_factory(SPECS), max_entries=1, fanout=2,
            max_depth=4,
        )
        with pytest.raises(SpillDepthExceededError) as info:
            for _ in range(3):
                for i in range(8):
                    agg.add_values(i, (1.0, 1))
            list(agg.finish())
        err = info.value
        assert err.depth == 4
        assert err.max_entries == 1
        # Every spilled item sits in one bucket: maximal skew.
        assert err.largest_bucket_items >= 1
        assert err.bucket_share > 0.0
        assert "skew" in str(err)

    def test_honest_hashing_stays_under_depth(self):
        """The same workload with a real hash finishes fine."""
        agg = HashAggregator(
            make_state_factory(SPECS), max_entries=1, fanout=2,
            max_depth=32,
        )
        for _ in range(3):
            for i in range(8):
                agg.add_values(i, (1.0, 1))
        out = {k: s.results() for k, s in agg.finish()}
        assert len(out) == 8
        assert all(v == (3.0, 3) for v in out.values())

    def test_max_depth_validation(self):
        with pytest.raises(ValueError, match="max_depth"):
            HashAggregator(make_state_factory(SPECS), 10, max_depth=0)

