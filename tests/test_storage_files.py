"""Tests for the on-disk substrate: the spill stores."""

import os

import pytest

from repro.core.aggregates import AggregateSpec, make_state_factory
from repro.core.hashtable import HashAggregator
from repro.storage.spill import FileSpillStore, MemorySpillStore


class TestSpillStores:
    def _drive(self, store):
        store.append(0, ("v", 1, (1.0,)))
        store.append(0, ("v", 2, (2.0,)))
        store.append(3, ("v", 9, (9.0,)))
        assert store.bucket_ids() == [0, 3]
        assert store.item_count(0) == 2
        items = list(store.drain(0))
        assert items == [("v", 1, (1.0,)), ("v", 2, (2.0,))]
        assert store.item_count(0) == 0
        assert list(store.drain(0)) == []

    def test_memory_store(self):
        self._drive(MemorySpillStore())

    def test_file_store(self, tmp_path):
        store = FileSpillStore(str(tmp_path / "spill"))
        self._drive(store)
        assert store.bytes_written > 0
        store.close()

    def test_file_store_owns_tempdir(self):
        store = FileSpillStore()
        directory = store.directory
        store.append(1, ("v", 1, (1.0,)))
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.isdir(directory)

    def test_children_are_isolated(self, tmp_path):
        store = FileSpillStore(str(tmp_path / "spill"))
        child = store.child()
        store.append(1, "parent-item")
        child.append(1, "child-item")
        assert list(store.drain(1)) == ["parent-item"]
        assert list(child.drain(1)) == ["child-item"]


class TestFileSpillStoreHardening:
    def test_context_manager_cleans_up(self):
        with FileSpillStore() as store:
            store.append(0, "item")
            directory = store.directory
            assert os.path.isdir(directory)
        assert not os.path.isdir(directory)

    def test_cleanup_survives_exceptions(self):
        """Spill files must not outlive the operator that crashed."""
        directory = None
        with pytest.raises(RuntimeError, match="boom"):
            with FileSpillStore() as store:
                store.append(0, "item")
                directory = store.directory
                raise RuntimeError("boom")
        assert directory is not None
        assert not os.path.isdir(directory)

    def test_close_is_idempotent(self):
        store = FileSpillStore()
        store.append(0, "item")
        store.close()
        store.close()  # second close is a no-op, not an error
        assert not os.path.isdir(store.directory)

    def test_append_after_close_raises(self):
        store = FileSpillStore()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.append(0, "item")
        with pytest.raises(RuntimeError, match="closed"):
            store.child()

    def test_closing_root_removes_children(self, tmp_path):
        store = FileSpillStore(str(tmp_path / "spill"))
        child = store.child()
        child.append(0, "item")
        store.close()
        assert not os.path.isdir(child.directory)

    def test_byte_accounting_read_back(self):
        with FileSpillStore() as store:
            store.append(0, ("v", 1, (1.0,)))
            store.append(0, ("v", 2, (2.0,)))
            assert store.bytes_written > 0
            assert store.bytes_read == 0
            list(store.drain(0))
            assert store.bytes_read == store.bytes_written

    def test_children_share_root_totals(self, tmp_path):
        store = FileSpillStore(str(tmp_path / "spill"))
        child = store.child()
        store.append(0, "a")
        child.append(0, "b")
        assert store.total_bytes_written == (
            store.bytes_written + child.bytes_written
        )
        store.close()

    def test_memory_store_context_manager(self):
        with MemorySpillStore() as store:
            store.append(0, "item")
        assert store.item_count(0) == 0


class TestFileBackedAggregation:
    def test_aggregator_spills_through_real_files(self, tmp_path):
        """The Section 2 algorithm genuinely out-of-core: a 4-entry
        table over 200 groups, overflow spooled to disk files."""
        specs = [AggregateSpec("sum", "v"), AggregateSpec("count", None)]
        store = FileSpillStore(str(tmp_path / "spill"))
        agg = HashAggregator(
            make_state_factory(specs),
            max_entries=4,
            spill_store=store,
        )
        for i in range(1000):
            agg.add_values(i % 200, (1.0, 1))
        out = {k: s.results() for k, s in agg.finish()}
        assert len(out) == 200
        assert all(v == (5.0, 5) for v in out.values())
        assert store.bytes_written > 0
        store.close()
