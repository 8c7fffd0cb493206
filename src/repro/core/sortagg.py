"""Sort-based local aggregation — the [BBDW83] baseline.

The paper's related work (Bitton et al.) aggregates by sorting: sort the
input on the GROUP BY attributes, then fold adjacent equal keys.  This
module provides that alternative local-aggregation engine so the Two
Phase family can be run with ``local_method="sort"`` and compared against
the hash engine the paper (and this library) defaults to.

Memory behaviour mirrors the hash engine's M-entry allocation: the sorter
accumulates at most ``max_entries`` items in memory, then emits a sorted
*run*; runs are spooled (charged through the same spill hooks) and merged
at finish time.  Like the hash engine, equal keys met while a run is in
memory are pre-aggregated immediately, so run length is bounded by
distinct keys, not raw tuples.  With a ``spill_store`` the emitted
runs genuinely leave memory.
"""

from __future__ import annotations

import heapq

from repro.core.aggregates import sort_key


def _item_order(item):
    return sort_key(item[0])


class SortAggregator:
    """Sort-based aggregation with bounded memory and spooled runs.

    Drop-in replacement for :class:`~repro.core.hashtable.HashAggregator`
    — same ``add_values`` / ``add_partial`` / ``finish`` surface, same
    spill hooks — so node programs can swap engines via configuration.

    Keys must be orderable under
    :func:`~repro.core.aggregates.sort_key` (tuples of ints, floats or
    strs, as produced by BoundQuery.key_of, are, and so is a bare value).

    A ``spill_store`` (same protocol as the hash aggregator's) holds the
    emitted runs out of core, one bucket per run.
    """

    def __init__(
        self,
        state_factory,
        max_entries: int,
        on_spill_write=None,
        on_spill_read=None,
        spill_store=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._state_factory = state_factory
        self._max_entries = max_entries
        self._on_spill_write = on_spill_write
        self._on_spill_read = on_spill_read
        self._store = spill_store
        self._current: dict = {}
        self._runs: list[list] = []
        self._run_lengths: list[int] = []
        self.spilled_items = 0
        self.run_count = 0

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def in_memory_groups(self) -> int:
        return len(self._current)

    @property
    def overflowed(self) -> bool:
        return self.spilled_items > 0

    def _emit_run(self) -> None:
        if not self._current:
            return
        run = sorted(self._current.items(), key=_item_order)
        if self._store is not None:
            run_id = self.run_count
            for item in run:
                self._store.append(run_id, item)
        else:
            self._runs.append(run)
        self._run_lengths.append(len(run))
        self.run_count += 1
        self.spilled_items += len(run)
        if self._on_spill_write is not None:
            self._on_spill_write(len(run))
        self._current = {}

    def _absorb(self, key, state_or_values, is_partial: bool) -> None:
        state = self._current.get(key)
        if state is None:
            if len(self._current) >= self._max_entries:
                self._emit_run()
            state = self._state_factory()
            self._current[key] = state
        if is_partial:
            state.merge(state_or_values)
        else:
            state.update(state_or_values)

    def add_values(self, key, values) -> None:
        self._absorb(key, values, is_partial=False)

    def add_partial(self, key, partial) -> None:
        self._absorb(key, partial, is_partial=True)

    # -- batch entry points --------------------------------------------------
    #
    # Same contract as HashAggregator's: resident-key updates and
    # not-full inserts run inline, everything else delegates to
    # _absorb.  _absorb can emit a run, which REBINDS self._current, so the
    # local dict alias must be refreshed after every delegation.

    def _absorb_kv_batch(self, pairs, is_partial: bool) -> None:
        factory = self._state_factory
        max_entries = self._max_entries
        current = self._current
        get = current.get
        for key, item in pairs:
            state = get(key)
            if state is None:
                if len(current) >= max_entries:
                    self._absorb(key, item, is_partial)
                    current = self._current
                    get = current.get
                    continue
                state = factory()
                current[key] = state
            if is_partial:
                state.merge(item)
            else:
                state.update(item)

    def add_rows(self, rows, bq) -> int:
        """Absorb a batch of raw rows; returns how many passed WHERE."""
        if bq.query.where is not None:
            matches = bq.matches
            rows = [row for row in rows if matches(row)]
        elif not isinstance(rows, (list, tuple)):
            rows = list(rows)
        key_of = bq.key_of
        values_of = bq.values_of
        self._absorb_kv_batch(
            [(key_of(row), values_of(row)) for row in rows], is_partial=False
        )
        return len(rows)

    def add_projected(self, items, bq) -> None:
        """Absorb a batch of projected tuples (key columns + agg inputs)."""
        k = len(bq.key_indexes)
        self._absorb_kv_batch(
            [(p[:k], p[k:]) for p in items], is_partial=False
        )

    def add_partials(self, items) -> None:
        """Merge a batch of (key, GroupState) partials."""
        self._absorb_kv_batch(items, is_partial=True)

    def finish(self):
        """Yield (key, state) in key order, merging all spooled runs."""
        if not self.run_count:
            # Common case: everything fit — one in-memory sort.
            items = sorted(self._current.items(), key=_item_order)
            self._current = {}
            yield from items
            return
        self._emit_run()  # flush the tail as a final run
        if self._on_spill_read is not None:
            for length in self._run_lengths:
                self._on_spill_read(length)
        self._run_lengths = []
        if self._store is not None:
            runs = [self._store.drain(i) for i in range(self.run_count)]
        else:
            runs, self._runs = self._runs, []
        merged = heapq.merge(*runs, key=_item_order)
        pending_key, pending_state = None, None
        for key, state in merged:
            # Keys are canonical (BoundQuery.key_of): a NaN is the one
            # NAN, which tuples compare equal to itself.
            if key == pending_key:
                pending_state.merge(state)
                continue
            if pending_key is not None:
                yield pending_key, pending_state
            pending_key, pending_state = key, state
        if pending_key is not None:
            yield pending_key, pending_state
