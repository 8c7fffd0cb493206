"""The wire: how a fragment crosses the process boundary.

One format: a serialized :class:`~repro.storage.ColumnBlock` in one
parent-owned shared-memory segment, described by a small picklable
descriptor; ``("inline", job)`` only for what a block cannot carry.
"""

from __future__ import annotations

import multiprocessing
import secrets
from multiprocessing import resource_tracker, shared_memory

from repro.core.query import AggregateQuery
from repro.parallel.mp_executor.mask import predicate_columns
from repro.storage.columnblock import ColumnBlock


# Every executor-owned shared-memory segment uses this name prefix, so
# leaked segments are countable (tests/test_mp_shm.py greps /dev/shm).
SHM_PREFIX = "repro_mp_"


def _projection_for(query: AggregateQuery, schema):
    """(subschema, column indexes) shipping only the columns a built-in
    phase reads: key + aggregate + WHERE-predicate columns.

    Returns None when projection is unsafe or useless: an opaque
    callable WHERE may read any column, a predicate naming a column the
    schema lacks must fail against the full column list, and a
    COUNT(*)-only query has no needed columns (an empty schema cannot
    exist — ship the full rows).
    """
    used = set(query.group_by)
    used.update(
        spec.column for spec in query.aggregates if spec.column is not None
    )
    if query.where is not None:
        read = predicate_columns(query.where)
        if read is None or not all(name in schema for name in read):
            return None
        used.update(read)
    needed = [c.name for c in schema.columns if c.name in used]
    if not needed or len(needed) == len(schema.columns):
        return None
    return schema.project(needed), schema.indexes_of(needed)


def _encode_fragment(rows, query, schema, segments: list, project: bool = True):
    """Encode one fragment into a shared-memory segment; returns the job
    descriptor for the pool worker.

    Every non-empty fragment — ``rows`` is a row list or a block-born
    :class:`~repro.storage.ColumnBlock` — ships as one
    ``ColumnBlock.to_bytes()`` buffer in one segment (appended to
    ``segments``, which the caller owns and unlinks):
    ``("shm_col", name, nbytes, num_rows, query, schema, as_rows)``.
    Empty fragments (``SharedMemory`` cannot be zero-sized) and rows the
    block codec rejects (an int outside int64, a mistyped value) fall
    back to an ``("inline", job)`` descriptor pickled over the pipe.

    ``project=True`` says a built-in phase will run the fragment: the
    block is projected to the columns the query reads when that is safe
    (:func:`_projection_for`) and the worker hands the phase the block
    itself.  ``project=False`` ships the full tuples and sets
    ``as_rows`` — a substituted ``phase_fn`` inspects raw row lists.
    """
    if not len(rows):
        return ("inline", ([], query, schema))
    proj = _projection_for(query, schema) if project else None
    ship_schema, idx = proj if proj is not None else (schema, None)
    try:
        if not isinstance(rows, ColumnBlock):
            block = ColumnBlock.from_rows(ship_schema, rows, idx=idx)
        elif idx is not None:
            block = rows.project(idx, ship_schema)
        else:
            block = rows
        data = block.to_bytes()
    except (ValueError, OverflowError, TypeError, AttributeError):
        return ("inline", (rows, query, schema))
    name = SHM_PREFIX + secrets.token_hex(8)
    shm = shared_memory.SharedMemory(create=True, size=len(data), name=name)
    segments.append(shm)
    shm.buf[: len(data)] = data
    return (
        "shm_col", shm.name, len(data), block.num_rows, query, ship_schema,
        not project,
    )


def _unlink_segments(segments: list) -> None:
    """Parent side: close and unlink every segment a run created.  A
    segment already gone (injected shm loss) is not an error."""
    for shm in segments:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifecycle.

    Attaching registers the segment with a resource tracker, which would
    unlink it again at exit — but the parent owns the lifecycle.  Forked
    workers share the parent's tracker, where registration is idempotent
    and the parent's ``unlink`` deregisters exactly once, so nothing to
    undo; under any other start method the worker has its *own* tracker
    and the attachment must be unregistered immediately.
    """
    shm = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method() != "fork":
        try:  # pragma: no cover - non-fork platforms
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


def _load_job(descriptor):
    """Worker side: a descriptor back into ``(source, query, schema)``.

    ``source`` is the shipped :class:`~repro.storage.ColumnBlock` for a
    built-in phase, decoded row tuples when the descriptor says
    ``as_rows`` (a substituted ``phase_fn``), and whatever the parent
    pickled for an inline descriptor.
    """
    if descriptor[0] == "inline":
        return descriptor[1]
    _kind, name, nbytes, num_rows, query, schema, as_rows = descriptor
    shm = _attach_segment(name)
    try:
        data = bytes(shm.buf[:nbytes])
    finally:
        shm.close()
    block = ColumnBlock.from_bytes(schema, data)
    if block.num_rows != num_rows:
        raise ValueError(
            f"columnar segment holds {block.num_rows} rows, "
            f"descriptor says {num_rows}"
        )
    return (block.to_rows() if as_rows else block, query, schema)
