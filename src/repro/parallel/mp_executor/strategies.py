"""The one strategy beyond two-phase: the two rounds of ``rep``."""

from __future__ import annotations

from repro.parallel.mp_executor.kernel import (
    _columnar_group_keys,
    _decline,
    _local_phase,
)
from repro.parallel.mp_executor.merge import _key_tuples, _merge_sequential
from repro.parallel.mp_executor.wire import _projection_for
from repro.storage.columnblock import ColumnBlock
from repro.storage.hashing import stable_hash


class _RepPartitionPhase:
    """Round 1 of ``strategy="rep"``: hash-partition a fragment's rows
    into ``num_buckets`` disjoint key ranges (the paper's Repartitioning
    redistribution step, minus the network).  Picklable, so the pool can
    ship it like any substituted phase function.
    """

    __slots__ = ("num_buckets",)

    def __init__(self, num_buckets: int) -> None:
        self.num_buckets = num_buckets

    def __call__(self, job):
        rows, query, schema = job
        # Every chunk leaves in the projected rep schema — whether the
        # fragment arrived as a block that shipped projected, a full
        # block in-process, or full-width rows (row-born in-process, or
        # an inline fallback) — so round 2 decodes one shape.
        if isinstance(rows, ColumnBlock):
            block = rows
            proj = _projection_for(query, block.schema)
            if proj is not None:
                schema, idx = proj
                block = block.project(idx, schema)
            out = self._partition_block(block, query, schema)
            if out is not None:
                return out
            rows = block.to_rows()
            idx = None
        else:
            _decline("row_source")
            proj = _projection_for(query, schema)
            idx = proj[1] if proj is not None else None
        bq = query.bind(schema)
        buckets: list[list] = [[] for _ in range(self.num_buckets)]
        memo: dict[tuple, int] = {}
        for row in rows:
            if not bq.matches(row):
                continue
            key = bq.key_of(row)
            b = memo.get(key)
            if b is None:
                b = stable_hash(key) % self.num_buckets
                memo[key] = b
            if idx is not None:
                row = tuple(row[i] for i in idx)
            buckets[b].append(row)
        return ("rep_rows", [chunk or None for chunk in buckets])

    def _partition_block(self, block, query, schema):
        """Vectorized partition of a ColumnBlock; None (the kernel's
        guards recorded why) to go per-row.

        Keeps the rows that pass WHERE, computes each one's bucket
        through the same ``stable_hash(key)`` the per-row path uses (so
        a retried fragment that falls back per-row lands every group in
        the same bucket) and slices the block columns by bucket mask —
        each chunk re-serializes with the parent dictionary, codes
        untouched.
        """
        import numpy as np

        grouped = _columnar_group_keys(block, query)
        if grouped is None:
            return None
        block, key_payload, inv, n_groups = grouped
        lut = np.empty(max(n_groups, 1), dtype=np.int64)
        for g, key in enumerate(_key_tuples(key_payload, n_groups)):
            lut[g] = stable_hash(key) % self.num_buckets
        row_buckets = lut[inv]
        chunks = []
        for b in range(self.num_buckets):
            mask = row_buckets == b
            n = int(mask.sum())
            if not n:
                chunks.append(None)
                continue
            sub = ColumnBlock(
                schema, n, [arr[mask] for arr in block.columns],
                block.dictionaries,
            )
            # bytes: a bytearray is copied once more on each side of
            # the pipe (pickle protocol 4 reduces it through bytes).
            chunks.append(bytes(sub.to_bytes()))
        return ("rep_blocks", chunks)


def _rep_bucket_phase(job):
    """Round 2 of ``strategy="rep"``: aggregate one bucket's chunks.

    ``job`` is ``(chunks, query, schema)`` with one chunk per source
    fragment, in fragment order: ``("block", bytes)`` for a columnar
    slice or ``("rows", rows)`` for a per-row slice.  Each chunk is
    aggregated exactly like a 2P fragment (:func:`_local_phase`: kernel
    first, per-row on a decline) and the per-chunk partials are merged
    per key in fragment order (:func:`_merge_sequential`) — reproducing
    the 2P merge's operation order bit for bit, just sharded by key
    range.
    """
    chunks, query, schema = job
    partials = (
        _local_phase((
            ColumnBlock.from_bytes(schema, payload) if kind == "block"
            else payload,
            query, schema,
        ))
        for kind, payload in chunks
    )
    return list(_merge_sequential(partials, query).items())


def _run_rep_strategy(run, jobs, query, schema):
    """Dispatch both Rep rounds; returns per-bucket partial lists.

    Round 1 hash-partitions each fragment into ``len(jobs)`` disjoint
    key buckets (:class:`_RepPartitionPhase` — vectorized for columnar
    segments, per-row otherwise).  Round 2 aggregates each bucket's
    chunks in fragment order (:func:`_rep_bucket_phase`), so the final
    parent merge sees one partial per key and the result is
    bit-identical to the 2P strategies.  Both rounds go through ``run``
    (:meth:`~repro.parallel.mp_executor.pool._Runner.run`): wherever
    the run's jobs execute, under whatever settings, so do these.
    """
    num_buckets = len(jobs)
    part_fn = _RepPartitionPhase(num_buckets)
    round1 = run(lambda _attempt: part_fn, jobs)

    proj = _projection_for(query, schema)
    rep_schema = proj[0] if proj is not None else schema
    bucket_jobs = []
    for b in range(num_buckets):
        chunks = []
        for f in range(len(jobs)):
            tag, parts = round1[f]
            payload = parts[b]
            if payload is None:
                continue
            chunks.append(
                ("block" if tag == "rep_blocks" else "rows", payload)
            )
        bucket_jobs.append((chunks, query, rep_schema))
    # Bucket jobs are chunks, not fragments: nothing for the wire to ship.
    return run(lambda _attempt: _rep_bucket_phase, bucket_jobs, inline=True)
