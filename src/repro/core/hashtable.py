"""Hash-based aggregation with bounded memory and overflow buckets.

This is the Section 2 uniprocessor algorithm every parallel algorithm builds
on:

1. Build a hash table on the GROUP BY attributes; the first tuple of a new
   group adds an entry, subsequent matches update the running aggregate.
2. If the table would exceed its memory allocation, incoming tuples of
   *new* groups are hash-partitioned into overflow buckets and spooled to
   disk.
3. The overflow buckets are then processed one by one, recursively, each
   with a fresh table.

:class:`BoundedAggregateHashTable` is the bare bounded table — it reports
"full" instead of spooling, because the Adaptive Two Phase algorithm's whole
point is to *react* to that event by switching strategy rather than
spilling.  :class:`HashAggregator` wraps it with the spool-and-recurse
machinery for the phases that must complete locally regardless (e.g. the
merge phase), and exposes spill hooks so the simulator can charge the
intermediate I/O the cost model's ``(1 - M/(S·|R|))`` terms describe.
"""

from __future__ import annotations

from repro.core.aggregates import canonical_key
from repro.resources.governor import SpillDepthExceededError
from repro.storage.hashing import stable_hash

_MAX_DEPTH = 32


class BoundedAggregateHashTable:
    """An aggregate hash table holding at most ``max_entries`` groups.

    ``add_values``/``add_partial`` return True when absorbed and False when
    the table is full and the key is new — the caller decides what overflow
    means (spool, forward, or switch algorithms).
    """

    def __init__(self, max_entries: int, state_factory) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._state_factory = state_factory
        self._table: dict = {}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key) -> bool:
        return key in self._table

    @property
    def is_full(self) -> bool:
        return len(self._table) >= self.max_entries

    def add_values(self, key, values) -> bool:
        """Absorb one raw tuple's aggregate inputs for ``key``."""
        state = self._table.get(key)
        if state is None:
            if self.is_full:
                return False
            state = self._state_factory()
            self._table[key] = state
        state.update(values)
        return True

    def add_partial(self, key, partial) -> bool:
        """Merge a partial GroupState for ``key`` (Section 3.2 mixed input)."""
        state = self._table.get(key)
        if state is None:
            if self.is_full:
                return False
            self._table[key] = partial.copy()
            return True
        state.merge(partial)
        return True

    def items(self):
        return self._table.items()

    def drain(self) -> dict:
        """Remove and return all entries (used when a node flushes on switch)."""
        table, self._table = self._table, {}
        return table


class HashAggregator:
    """Bounded hash aggregation with hash-partitioned overflow buckets.

    Parameters
    ----------
    state_factory:
        Zero-arg callable producing a fresh GroupState.
    max_entries:
        Memory allocation, in hash-table entries (the model's ``M``).
    fanout:
        Number of overflow buckets created on each overflow pass.
    on_spill_write / on_spill_read:
        Optional callbacks ``(num_items) -> None`` fired when items are
        spooled to / read back from an overflow bucket, so callers can
        charge simulated I/O.
    max_depth:
        Overflow recursion limit.  A bucket that still spills past this
        depth raises :class:`~repro.resources.SpillDepthExceededError`
        (reporting the bucket skew) instead of recursing forever.
    """

    def __init__(
        self,
        state_factory,
        max_entries: int,
        fanout: int = 8,
        on_spill_write=None,
        on_spill_read=None,
        spill_store=None,
        max_depth: int = _MAX_DEPTH,
        _depth: int = 0,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self._state_factory = state_factory
        self._fanout = fanout
        self._on_spill_write = on_spill_write
        self._on_spill_read = on_spill_read
        if spill_store is None:
            from repro.storage.spill import MemorySpillStore

            spill_store = MemorySpillStore()
        self._store = spill_store
        self._max_depth = max_depth
        self._depth = _depth
        # Once anything has spilled the table is full, and it stays full
        # until ``finish`` — so a key never lands both in the table and in
        # a bucket.
        self._table = BoundedAggregateHashTable(max_entries, state_factory)
        self.spilled_items = 0
        self.overflow_passes = 0

    @property
    def max_entries(self) -> int:
        return self._table.max_entries

    @property
    def in_memory_groups(self) -> int:
        return len(self._table)

    @property
    def overflowed(self) -> bool:
        return self.spilled_items > 0

    def _bucket_of(self, key) -> int:
        # Salt the hash with the recursion depth so a bucket's keys spread
        # across all sub-buckets when it is reprocessed.
        return stable_hash((self._depth, key)) % self._fanout

    def _spill(self, item) -> None:
        bucket = self._bucket_of(item[1])
        if self._depth >= self._max_depth:
            # Partitioning is no longer reducing the working set: at this
            # depth every level's hash salt has failed to split the keys.
            largest = max(
                (
                    self._store.item_count(b)
                    for b in self._store.bucket_ids()
                ),
                default=0,
            )
            raise SpillDepthExceededError(
                depth=self._depth,
                largest_bucket_items=max(largest, self._store.item_count(
                    bucket) + 1),
                total_spilled_items=self.spilled_items + 1,
                max_entries=self._table.max_entries,
            )
        self._store.append(bucket, item)
        self.spilled_items += 1
        if self._on_spill_write is not None:
            self._on_spill_write(1)

    def add_values(self, key, values) -> None:
        if not self._table.add_values(key, values):
            self._spill(("v", key, values))

    def add_partial(self, key, partial) -> None:
        if not self._table.add_partial(key, partial):
            self._spill(("p", key, partial))

    # -- batch entry points --------------------------------------------------
    #
    # The batch paths absorb whole row batches with the per-row dispatch
    # hoisted out: resident-key updates and not-full inserts run inline;
    # a new key on a full table delegates to the per-item methods above,
    # so spill semantics (and therefore results) are exactly the per-row
    # path's.

    def _absorb_kv(self, pairs) -> None:
        bounded = self._table
        table = bounded._table
        get = table.get
        factory = self._state_factory
        slow_add = self.add_values
        max_entries = bounded.max_entries
        for key, values in pairs:
            state = get(key)
            if state is not None:
                state.update(values)
            elif len(table) < max_entries:
                state = factory()
                table[key] = state
                state.update(values)
            else:
                slow_add(key, values)

    def add_rows(self, rows, bq) -> int:
        """Absorb a batch of raw rows; returns how many passed WHERE.

        ``rows`` is any iterable of tuples (a page, a decoded block, …).
        """
        if bq.query.where is not None:
            matches = bq.matches
            rows = [row for row in rows if matches(row)]
        elif not isinstance(rows, (list, tuple)):
            rows = list(rows)
        key_of = bq.key_of
        values_of = bq.values_of
        self._absorb_kv([(key_of(row), values_of(row)) for row in rows])
        return len(rows)

    def add_projected(self, items, bq) -> None:
        """Absorb a batch of projected tuples (key columns + agg inputs)."""
        k = len(bq.key_indexes)
        self._absorb_kv([(p[:k], p[k:]) for p in items])

    def add_partials(self, items) -> None:
        """Merge a batch of (key, GroupState) partials."""
        bounded = self._table
        table = bounded._table
        get = table.get
        slow_add = self.add_partial
        max_entries = bounded.max_entries
        for key, partial in items:
            state = get(key)
            if state is not None:
                state.merge(partial)
            elif len(table) < max_entries:
                table[key] = partial.copy()
            else:
                slow_add(key, partial)

    def finish(self):
        """Yield every (key, GroupState), processing overflow buckets.

        After this generator is exhausted the aggregator is empty and may
        not be reused.
        """
        yield from self._table.drain().items()
        for bucket in self._store.bucket_ids():
            count = self._store.item_count(bucket)
            if not count:
                continue
            self.overflow_passes += 1
            if self._on_spill_read is not None:
                self._on_spill_read(count)
            sub = HashAggregator(
                self._state_factory,
                self._table.max_entries,
                fanout=self._fanout,
                on_spill_write=self._on_spill_write,
                on_spill_read=self._on_spill_read,
                spill_store=self._store.child(),
                max_depth=self._max_depth,
                _depth=self._depth + 1,
            )
            for kind, key, payload in self._store.drain(bucket):
                # A store that pickles hands back fresh NaN objects,
                # which a dict would keep apart.
                key = canonical_key(key)
                if kind == "v":
                    sub.add_values(key, payload)
                else:
                    sub.add_partial(key, payload)
            yield from sub.finish()
            self.spilled_items += sub.spilled_items
            self.overflow_passes += sub.overflow_passes
