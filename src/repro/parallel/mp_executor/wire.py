"""The wire: how a fragment crosses the process boundary, and how its
partial comes back (the return arenas, below).

One format: a serialized :class:`~repro.storage.ColumnBlock` in one
parent-owned shared-memory segment, described by a small picklable
descriptor; ``("inline", job)`` only for what a block cannot carry.
The parent writes the block straight into the segment, every column on
an 8-byte boundary, and the worker reads it where it lies: its block's
columns are read-only views over the mapping, which it closes once the
job's reply is pickled.  Nothing is copied on either side after the one
write, and the kernel sees the aligned columns one process would.

Who the bytes came from decides how long a segment lives.  A row list
is mutable, so its segment is good for one run and unlinked when the run
ends.  A *block-born* fragment — the source is a ``ColumnBlock``, which
is immutable once it sits in a relation — gets a **resident** segment:
the parent's :class:`_ResidentSegments` table keeps it, under its
``repro_mp_*`` name, keyed by ``(the block, the projected column
indexes)``, and the next run over the same block and projection builds
its descriptor from the table entry without projecting, serializing,
creating or unlinking anything.  The paper's fragments are resident on
their nodes and only the query travels; this is that, for one host.

A resident segment is unlinked when its block is collected, when a
newer one needs its bytes under the ceiling, by
:func:`release_resident_segments` (``shutdown_worker_pool()``, the
service replacing or bumping a table), or when it is found gone — and
only by the process that created it, never by a forked worker.  Runs pin
what they ship, so whichever of those races an in-flight run defers the
unlink to that run's release.  :class:`_Shipment` is the one place a
run's segments are created, pinned, lost, re-encoded and released.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import pickle
import secrets
import threading
import weakref
from collections import OrderedDict, deque
from multiprocessing import resource_tracker, shared_memory

from repro.core.query import AggregateQuery
from repro.parallel.mp_executor.mask import predicate_columns
from repro.storage.columnblock import ColumnBlock


# Every executor-owned shared-memory segment uses this name prefix, so
# leaked segments are countable (tests/conftest.py greps /dev/shm).
SHM_PREFIX = "repro_mp_"

# Where POSIX shared memory shows up as files; None where it does not
# (a resident hit is then not checked by name, and a segment that went
# missing costs the worker's FileNotFoundError and a retry instead).
_SHM_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else None

# Resident segments together, and a return arena on its own, never
# hold more than this, nor more than half of what the shm mount has free
# when a segment asks to stay or an arena to be made (a default
# container mounts 64 MiB).  Worked out here, not configured.
_RESIDENT_CEILING_BYTES = 1 << 30


def _shm_ceiling() -> int:
    if _SHM_DIR is None:
        return _RESIDENT_CEILING_BYTES
    stat = os.statvfs(_SHM_DIR)
    return min(_RESIDENT_CEILING_BYTES, stat.f_bavail * stat.f_frsize // 2)


def _kept_from_children(shm: shared_memory.SharedMemory) -> None:
    """A process forked while the parent maps ``shm`` (a worker respawned
    mid-run, a rebuilt or private pool) does not inherit the mapping: a
    worker maps only what it is sent, and never pins the pages of a
    segment the parent has unlinked."""
    advice = getattr(mmap, "MADV_DONTFORK", None)
    if advice is not None:
        shm._mmap.madvise(advice)


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


# What the block codec refuses: an int outside int64, a mistyped value
# (``from_rows``), a string UTF-8 cannot carry (``to_bytes``).
_CODEC_REJECTS = (ValueError, OverflowError, TypeError, AttributeError)


def _block_of(schema, rows, idx=None):
    """``rows`` as a :class:`~repro.storage.ColumnBlock` of ``schema``
    (``idx`` as in ``ColumnBlock.from_rows``), or None for rows the
    block codec rejects: those stay rows, and the per-row phase runs
    them as a counted ``row_source`` decline.  The pool's wire and the
    in-process runner both ask here, so a row-born fragment meets the
    kernel on the same terms wherever it runs — but for a string UTF-8
    cannot carry, which only the wire's ``to_bytes`` refuses."""
    try:
        return ColumnBlock.from_rows(schema, rows, idx=idx)
    except _CODEC_REJECTS:
        return None


def _encode_fragment(rows, query, schema, segments: list, project: bool = True):
    """Encode one fragment into a shared-memory segment; returns the job
    descriptor for the pool worker.

    Every non-empty fragment — ``rows`` is a row list or a block-born
    :class:`~repro.storage.ColumnBlock` — ships as one
    ``ColumnBlock.to_bytes()`` buffer, written by ``to_bytes`` itself
    into one segment sized for it (appended to ``segments``, which the
    caller owns and unlinks):
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
    nbytes = 0

    def segment(size: int):
        # Asked for once the block is known to serialize: a rejected
        # fragment never creates a segment.
        nonlocal nbytes
        nbytes = size
        shm = shared_memory.SharedMemory(
            create=True, size=size, name=SHM_PREFIX + secrets.token_hex(8)
        )
        segments.append(shm)
        _kept_from_children(shm)
        return shm.buf

    if not isinstance(rows, ColumnBlock):
        block = _block_of(ship_schema, rows, idx)
    elif idx is not None:
        block = rows.project(idx, ship_schema)
    else:
        block = rows
    inline = ("inline", (rows, query, schema))
    if block is None:
        return inline
    try:
        block.to_bytes(segment)
    except _CODEC_REJECTS:
        return inline
    return (
        "shm_col", segments[-1].name, nbytes, block.num_rows, query,
        ship_schema, not project,
    )


def _unlink_segments(segments: list) -> None:
    """Parent side: close and unlink every per-run segment a run
    created.  A segment already gone (injected shm loss) is not an
    error."""
    for shm in segments:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


# -- resident segments --------------------------------------------------------


class _Resident:
    """One resident segment: what a descriptor is built from, and what
    decides when the segment is unlinked."""

    __slots__ = (
        "key", "shm", "name", "nbytes", "num_rows", "ship_schema", "pid",
        "pins", "listed", "finalizer",
    )

    def __init__(self, key, shm, nbytes, num_rows, ship_schema) -> None:
        self.key = key
        self.shm = shm          # closed; kept to unlink by, None once unlinked
        self.name = shm.name
        self.nbytes = nbytes
        self.num_rows = num_rows
        self.ship_schema = ship_schema
        self.pid = os.getpid()  # only the creator unlinks
        self.pins = 1           # runs whose descriptors name the segment
        self.listed = True      # findable in the table
        self.finalizer = None


class _ResidentSegments:
    """The parent's table of segments that outlive the run that wrote
    them: ``(id(block), column indexes or None)`` → :class:`_Resident`,
    least recently shipped first.

    An entry whose block was collected is dropped by the block's
    finalizer before the block's ``id`` can be reused.  A finalizer can
    fire anywhere an allocation can — also while this thread holds the
    table's lock — so it never blocks on the lock: it queues its key,
    and whoever holds the lock empties the queue before reading the
    table and again on the way out.

    An entry that leaves the table while runs still have it pinned is
    *unlisted*: no later run can find it, and the last release unlinks
    its segment.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _Resident] = OrderedDict()
        self._unlisted: set[_Resident] = set()
        self._collected: deque[tuple] = deque()
        self.nbytes = 0

    @contextlib.contextmanager
    def _locked(self):
        with self._lock:
            self._reap()
            yield
        self._drain_collected()

    def _block_collected(self, key) -> None:
        self._collected.append(key)
        self._drain_collected()

    def _drain_collected(self) -> None:
        # The lock is busy: its holder drains after releasing it.
        while self._collected and self._lock.acquire(blocking=False):
            try:
                self._reap()
            finally:
                self._lock.release()

    def _reap(self) -> None:
        """Lock held: drop the entries whose blocks were collected."""
        while self._collected:
            entry = self._entries.get(self._collected.popleft())
            if entry is not None and not entry.finalizer.alive:
                self._unlist(entry)

    def _unlist(self, entry: _Resident, gone: bool = False) -> None:
        """Lock held: ``entry`` leaves the table.  Its segment is
        unlinked now — or, while runs still read it and it is not
        ``gone`` already, at the last release."""
        if entry.listed:
            del self._entries[entry.key]
            entry.listed = False
            entry.finalizer.detach()
            self.nbytes -= entry.nbytes
        if entry.pins and not gone:
            self._unlisted.add(entry)
            return
        self._unlisted.discard(entry)
        shm, entry.shm = entry.shm, None
        if shm is None or entry.pid != os.getpid():
            return  # unlinked before, or a forked child's copy of the table
        try:
            shm.unlink()
        except FileNotFoundError:
            # Removed behind the table's back: what is left of it is
            # the resource tracker's note to unlink it at exit.
            resource_tracker.unregister(shm._name, "shared_memory")

    def pin(self, block, idx):
        """``(entry, vanished)``: the resident entry of ``(block, idx)``
        pinned for the caller, or None; ``vanished`` when there was an
        entry but its segment is gone from the mount (the entry is
        dropped on the spot)."""
        key = (id(block), idx)
        with self._locked():
            entry = self._entries.get(key)
            if entry is None:
                return None, False
            if _SHM_DIR is not None and not os.path.exists(
                os.path.join(_SHM_DIR, entry.name)
            ):
                self._unlist(entry, gone=True)
                return None, True
            self._entries.move_to_end(key)
            entry.pins += 1
            return entry, False

    def adopt(self, block, idx, shm, nbytes, num_rows, ship_schema):
        """``(entry, evicted)``: keep the segment the caller just wrote
        for ``(block, idx)``, pinned for the caller, after evicting
        ``evicted`` least-recently-shipped unpinned entries to stay
        under the ceiling.  ``entry`` is None, and the segment stays the
        caller's, when it cannot fit or another thread's segment for the
        key got here first."""
        ceiling = _shm_ceiling()
        key = (id(block), idx)
        with self._locked():
            if key in self._entries:
                return None, 0
            over = self.nbytes + nbytes - ceiling
            victims = []
            for old in self._entries.values():
                if over <= 0:
                    break
                if not old.pins:
                    victims.append(old)
                    over -= old.nbytes
            if over > 0:
                return None, 0
            for old in victims:
                self._unlist(old)
            entry = _Resident(key, shm, nbytes, num_rows, ship_schema)
            entry.finalizer = weakref.finalize(
                block, self._block_collected, key
            )
            self._entries[key] = entry
            self.nbytes += nbytes
            return entry, len(victims)

    def release(self, entry: _Resident) -> None:
        """Undo one pin."""
        with self._locked():
            entry.pins -= 1
            if not entry.listed:
                self._unlist(entry)

    def lose(self, entry: _Resident) -> None:
        """The segment is (to be) gone whoever still reads it: injected
        loss, or a worker that could not attach."""
        with self._locked():
            self._unlist(entry, gone=True)

    def drop(self, blocks=None) -> None:
        """Unlist every entry of ``blocks`` (all entries for None)."""
        ids = None if blocks is None else {id(block) for block in blocks}
        with self._locked():
            for entry in list(self._entries.values()):
                if ids is None or entry.key[0] in ids:
                    self._unlist(entry)

    def names(self) -> set[str]:
        """Names of the segments the table answers for."""
        with self._locked():
            return {
                entry.name
                for entry in (*self._entries.values(), *self._unlisted)
            }


_resident = _ResidentSegments()


def release_resident_segments(relation=None) -> None:
    """Unlink the resident segments of ``relation``'s block-born
    fragments — call it when the data behind a relation changes, or the
    relation is being replaced — or, with no argument, every resident
    segment (what :func:`shutdown_worker_pool` does).  Segments an
    in-flight run still reads go when that run ends."""
    if relation is None:
        _resident.drop()
        return
    blocks = [
        getattr(frag.relation, "block", None) for frag in relation.fragments
    ]
    _resident.drop([block for block in blocks if block is not None])


class _Shipment:
    """One run's fragments on the wire, from first descriptor to the
    release of every segment behind them (``with _Shipment(...)``).

    ``jobs`` are ``(source, query, schema)``.  A non-empty
    ``ColumnBlock`` source ships through the resident table: a hit pins
    the entry and costs a descriptor; a miss encodes as ever, closes the
    parent's mapping and hands the segment to the table, which keeps it
    unless it cannot fit.  Everything else — row lists, segments the
    table declined — is this run's own and unlinked at release, and
    empty or codec-rejected fragments travel inline.
    """

    def __init__(self, jobs, obs, project: bool = True) -> None:
        self.jobs = jobs
        self.obs = obs
        self.project = project
        self._segments: list = []   # per-run segments, ours to unlink
        self._owned: dict[int, shared_memory.SharedMemory] = {}
        self._pinned: dict[int, _Resident] = {}

    def __enter__(self) -> "_Shipment":
        return self

    def __exit__(self, *_exc) -> None:
        for entry in self._pinned.values():
            _resident.release(entry)
        # The parent owns every per-run segment: unlink on success,
        # worker error, timeout, death, and FragmentFailedError alike,
        # so /dev/shm never accumulates stray repro_mp_* files.
        _unlink_segments(self._segments)

    def ship(self) -> list:
        """One descriptor per job, in job order."""
        descriptors = [self._encode(i) for i in range(len(self.jobs))]
        self.obs.shipped(_resident.nbytes)
        return descriptors

    def _encode(self, index: int):
        rows, query, schema = self.jobs[index]
        block_born = isinstance(rows, ColumnBlock) and len(rows) > 0
        if block_born:
            proj = _projection_for(query, schema) if self.project else None
            idx = None if proj is None else tuple(proj[1])
            entry, vanished = _resident.pin(rows, idx)
            if vanished:
                self.obs.resident("vanished")
            if entry is not None:
                self.obs.resident("hit")
                self._pinned[index] = entry
                return (
                    "shm_col", entry.name, entry.nbytes, entry.num_rows,
                    query, entry.ship_schema, not self.project,
                )
            self.obs.resident("miss")
        desc = _encode_fragment(
            rows, query, schema, self._segments, self.project
        )
        if desc[0] != "shm_col":
            return desc
        shm = self._segments[-1]
        entry = None
        if block_born:
            _kind, _name, nbytes, num_rows, _q, ship_schema, _as_rows = desc
            entry, evicted = _resident.adopt(
                rows, idx, shm, nbytes, num_rows, ship_schema
            )
        if entry is None:
            self._owned[index] = shm
            return desc
        self._pinned[index] = entry
        # Resident by name, not by mapping: workers attach by name and
        # the parent has no further use for its own view of the bytes.
        self._segments.pop()
        shm.close()
        if evicted:
            self.obs.resident("evicted", evicted)
        return desc

    def reencode(self, index: int):
        """A worker found job ``index``'s segment gone: ship the job
        again.  A resident entry that failed this way is dropped for
        everyone, and the fresh segment takes its place."""
        entry = self._pinned.pop(index, None)
        if entry is not None:
            _resident.lose(entry)
            _resident.release(entry)
        return self._encode(index)

    def lose(self, index: int) -> bool:
        """Injected shm loss: unlink the segment job ``index`` shipped
        in, resident or not.  False for an inline descriptor, which has
        nothing to lose."""
        entry = self._pinned.get(index)
        if entry is not None:
            _resident.lose(entry)
            return True
        shm = self._owned.get(index)
        if shm is None:
            return False
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - lost twice
            pass
        return True


# -- return arenas -----------------------------------------------------------
#
# A partial comes back the way a fragment goes out: its bytes are written
# once, into a parent-owned segment, and read where they lie.  Each pool
# worker has one *return arena*.  The parent creates it on the worker's
# first reply that carries arrays, maps it once and unlinks it when it
# discards the worker; the worker maps it once and keeps that mapping
# for its life — the one mapping a worker keeps across jobs.  Each
# dispatch lends the job the arena's largest free extent.  The worker
# pickles its reply with protocol 5, writes every out-of-band buffer
# (a packed partial's arrays) into the extent, and sends only the frame
# and the layout down the pipe.  The parent rebuilds the reply as
# read-only views over its own mapping and holds the region it took
# until the run that received it has merged.

# Each buffer starts on this boundary, as a segment's columns do.
_ARENA_ALIGN = 64
_ARENA_PREFIX = SHM_PREFIX + "arena_"


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ARENA_ALIGN) * _ARENA_ALIGN


class _Arena:
    """One return arena as the parent maps it.  ``free`` holds the
    ``[start, end)`` extents no run holds, in order; ``leases`` counts
    the regions runs hold."""

    __slots__ = ("shm", "name", "size", "view", "free", "leases", "pid")

    def __init__(self, size: int) -> None:
        self.shm = shared_memory.SharedMemory(
            create=True, size=size, name=_ARENA_PREFIX + secrets.token_hex(8)
        )
        _kept_from_children(self.shm)
        self.name = self.shm.name
        self.size = size
        self.view = self.shm.buf.toreadonly()
        self.free = [(0, size)]
        self.leases = 0
        self.pid = os.getpid()  # only the creator unlinks


class _ReturnArenas:
    """The parent's table of return arenas: pool worker pid → its arena.

    Only the dispatcher holding a worker lends, takes from or grows its
    arena; any thread gives regions back.  An arena leaves the table
    when its worker is discarded, or when a reply outgrew it: its
    segment is unlinked then, and the parent's mapping closed once the
    last run holding one of its regions gives it back.  A mapping that
    a view the caller kept still pins is closed at a later call.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: dict[int, _Arena] = {}
        self._retired: list[_Arena] = []

    def lend(self, pid: int):
        """``(arena, start, capacity)``, the largest free extent of
        worker ``pid``'s arena, for its next reply; None while it has
        none."""
        with self._lock:
            arena = self._current.get(pid)
            if arena is None:
                return None
            start, end = max(arena.free, key=lambda e: e[1] - e[0],
                             default=(0, 0))
            return arena, start, end - start

    def take(self, arena: _Arena, start: int, used: int) -> tuple:
        """The ``used`` bytes a reply wrote at ``start`` are held:
        returns the lease to :meth:`give_back`."""
        end = start + _aligned(used)
        with self._lock:
            for i, (lo, hi) in enumerate(arena.free):
                if lo <= start and end <= hi:
                    arena.free[i:i + 1] = [
                        e for e in ((lo, start), (end, hi)) if e[0] < e[1]
                    ]
                    break
            arena.leases += 1
        return arena, start, end

    def give_back(self, leases) -> None:
        with self._lock:
            for arena, start, end in leases:
                merged: list = []
                for lo, hi in sorted([*arena.free, (start, end)]):
                    if merged and lo <= merged[-1][1]:
                        merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
                    else:
                        merged.append((lo, hi))
                arena.free = merged
                arena.leases -= 1
            self._close_retired()

    def grow(self, pid: int, need: int) -> None:
        """Worker ``pid``'s reply needed ``need`` bytes it was not lent:
        its next one goes to a new arena twice the old one, and twice
        what runs hold of the old one plus ``need``, rounded to pages.
        An arena that size would pass the shm ceiling is not made: the
        worker keeps what it has, and what does not fit comes in-band."""
        with self._lock:
            old = self._current.get(pid)
            size = held = 0
            if old is not None:
                size = old.size
                held = size - sum(hi - lo for lo, hi in old.free)
            size = max(2 * size, 2 * (held + _aligned(need)))
            size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
            if size > _shm_ceiling():
                return
            self._current[pid] = _Arena(size)
            if old is not None:
                self._retire(old)

    def retire(self, pid: int) -> None:
        """Worker ``pid`` was discarded: its arena goes."""
        with self._lock:
            arena = self._current.pop(pid, None)
            if arena is not None:
                self._retire(arena)

    def _retire(self, arena: _Arena) -> None:
        """Lock held: unlink now, unmap when no run holds a region."""
        if arena.pid == os.getpid():
            try:
                arena.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - gone already
                resource_tracker.unregister(arena.shm._name, "shared_memory")
        self._retired.append(arena)
        self._close_retired()

    def _close_retired(self) -> None:
        """Lock held: close the retired mappings nothing holds."""
        still = []
        for arena in self._retired:
            if not arena.leases:
                arena.view.release()
                try:
                    arena.shm.close()
                    continue
                except BufferError:  # a view the caller kept pins it
                    pass
            still.append(arena)
        self._retired = still

    def names(self) -> set[str]:
        """Names of the arenas on the mount: one per worker that has
        one."""
        with self._lock:
            return {arena.name for arena in self._current.values()}


_arenas = _ReturnArenas()


def _received(message, lent):
    """Parent side: a worker's final message, unpickled, back into
    ``(reply, lease, arena_bytes, need)``.  ``lease`` is the region an
    arena reply was read from (None else), ``arena_bytes`` what it
    crossed in the arena, and ``need`` nonzero when the reply did not
    fit what it was lent and came in-band: the bytes it needed."""
    kind = message[0]
    if kind == "arena":
        _kind, layout, frame = message
        arena, start, _capacity = lent
        at, nbytes = layout[-1]
        lease = _arenas.take(arena, start, at + nbytes - start)
        views = [arena.view[at:at + n] for at, n in layout]
        reply = pickle.loads(frame, buffers=views)
        return reply, lease, sum(n for _at, n in layout), 0
    if kind == "inband":
        _kind, need, frame, buffers = message
        return pickle.loads(frame, buffers=buffers), None, 0, need
    return message, None, 0, 0


# -- worker side --------------------------------------------------------------


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


def _load_job(descriptor, mapped: list):
    """Worker side: a descriptor back into ``(source, query, schema)``.

    ``source`` is the shipped :class:`~repro.storage.ColumnBlock` for a
    built-in phase, decoded row tuples when the descriptor says
    ``as_rows`` (a substituted ``phase_fn``), and whatever the parent
    pickled for an inline descriptor.

    The block's columns are read-only views over the attached segment,
    which is appended to ``mapped``: the caller owns the mapping, and
    closes it once nothing reads the views — a mapping does not close
    under a live one (``BufferError``).
    """
    if descriptor[0] == "inline":
        return descriptor[1]
    _kind, name, nbytes, num_rows, query, schema, as_rows = descriptor
    shm = _attach_segment(name)
    mapped.append(shm)
    block = ColumnBlock.from_bytes(schema, shm.buf[:nbytes].toreadonly())
    if block.num_rows != num_rows:
        raise ValueError(
            f"columnar segment holds {block.num_rows} rows, "
            f"descriptor says {num_rows}"
        )
    return (block.to_rows() if as_rows else block, query, schema)


class _WorkerArena:
    """A worker's mapping of its return arena, kept across jobs."""

    def __init__(self) -> None:
        self.shm = None

    def close(self) -> None:
        if self.shm is not None:
            self.shm.close()
            self.shm = None

    def message(self, reply, lent) -> bytes:
        """``reply`` as the bytes the parent receives: the reply itself
        when it carries no out-of-band buffer (no arrays);
        ``("arena", layout, frame)`` once its buffers are written into
        ``lent`` — ``(name, start, capacity)``, the extent the parent
        lent this job; ``("inband", need, frame, buffers)`` when they
        needed ``need`` bytes and were lent fewer (or nothing).  The
        parent replaces an arena a reply outgrew, so that mapping is
        dropped here."""
        buffers: list = []
        frame = pickle.dumps(
            reply, protocol=5, buffer_callback=buffers.append
        )
        if not buffers:
            return frame
        raws = [buffer.raw() for buffer in buffers]
        need = sum(_aligned(raw.nbytes) for raw in raws)
        if lent is None or need > lent[2]:
            self.close()
            return pickle.dumps(("inband", need, frame, buffers), protocol=5)
        name, at, _capacity = lent
        if self.shm is None or self.shm.name != name:
            self.close()
            self.shm = _attach_segment(name)
        layout = []
        for raw in raws:
            self.shm.buf[at:at + raw.nbytes] = raw
            layout.append((at, raw.nbytes))
            at += _aligned(raw.nbytes)
        return pickle.dumps(("arena", layout, frame), protocol=5)
