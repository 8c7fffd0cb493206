"""The wire: how a fragment crosses the process boundary, how its
partial comes back, and the one table that owns every shared-memory
segment either way.

One format: a serialized :class:`~repro.storage.ColumnBlock` in one
parent-owned shared-memory segment, described by a small picklable
descriptor; ``("inline", job)`` only for what a block cannot carry.
The parent writes the block straight into the segment, every column on
an 8-byte boundary, and the worker reads it where it lies: its block's
columns are read-only views over the mapping, which it closes once the
job's reply is pickled.  Nothing is copied on either side after the one
write, and the kernel sees the aligned columns one process would.  A
partial comes back the same way, through the worker's return arena.

Every ``repro_mp_*`` segment is an entry of one :class:`_SegmentTable`,
from its creation to its unlink, and the mount holds exactly the
table's segments at every instant.  An entry has a kind, a pin count
and a size; the kinds differ only in when they leave the table:

* ``run`` — a row list is mutable, so its segment is one run's, and
  leaves when the run's :class:`_Shipment` ends.
* ``resident`` — a *block-born* fragment (the source is a
  ``ColumnBlock``, immutable once it sits in a relation) keeps its
  segment, keyed by ``(the block, the projected column indexes)``, and
  the next run over the same block and projection builds its descriptor
  from the entry without projecting, serializing, creating or unlinking
  anything.  The paper's fragments are resident on their nodes and only
  the query travels; this is that, for one host.  It leaves when its
  block is collected, when a newer one needs its bytes under the
  ceiling, at :func:`release_resident_segments`
  (``shutdown_worker_pool()``, the service replacing or bumping a
  table), or when it is found gone.
* ``arena`` — each pool worker's return arena, lent out a region at a
  time; it leaves when its worker is discarded or a reply outgrew it.

Runs pin what they read, so whichever way out races an in-flight run
defers the unlink to that run's last unpin; and only the process that
created a segment unlinks it, never a forked worker.
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
# container mounts 64 MiB); a run's own segments are never refused.
# Worked out here, not configured.
_RESIDENT_CEILING_BYTES = 1 << 30


def _shm_ceiling() -> int:
    if _SHM_DIR is None:
        return _RESIDENT_CEILING_BYTES
    stat = os.statvfs(_SHM_DIR)
    return min(_RESIDENT_CEILING_BYTES, stat.f_bavail * stat.f_frsize // 2)


# Each buffer in a return arena starts on this boundary, as a segment's
# columns do.
_ARENA_ALIGN = 64
_ARENA_PREFIX = SHM_PREFIX + "arena_"


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ARENA_ALIGN) * _ARENA_ALIGN


def _kept_from_children(shm: shared_memory.SharedMemory) -> None:
    """A process forked while the parent maps ``shm`` (a worker respawned
    mid-run, a rebuilt or private pool) does not inherit the mapping: a
    worker maps only what it is sent, and never pins the pages of a
    segment the parent has unlinked.  Advice only: where the kernel
    refuses it, a fork maps the segment too, and nothing else changes."""
    advice = getattr(mmap, "MADV_DONTFORK", None)
    if advice is not None:
        with contextlib.suppress(OSError):
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


def _encode_fragment(rows, query, schema, keep, project: bool = True):
    """Encode one fragment into a shared-memory segment; returns the job
    descriptor for the pool worker.

    Every non-empty fragment — ``rows`` is a row list or a block-born
    :class:`~repro.storage.ColumnBlock` — ships as one
    ``ColumnBlock.to_bytes()`` buffer, written by ``to_bytes`` itself
    into one run segment of the table sized for it (pinned for the
    caller, and handed to ``keep`` before a byte is written, so whoever
    releases it does on every exit path):
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
    entry = None  # the run segment, once ``to_bytes`` asked for it

    def segment(size: int):
        # Asked for once the block is known to serialize: a rejected
        # fragment never creates a segment.
        nonlocal entry
        entry = _table.create(size)
        keep(entry)
        return entry.shm.buf

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
    # Workers attach by name: the parent is done with its mapping.
    entry.shm.close()
    return (
        "shm_col", entry.name, entry.nbytes, block.num_rows, query,
        ship_schema, not project,
    )


# -- the segment table --------------------------------------------------------


class _Segment:
    """One segment the parent created: its mapping, and what decides
    when it is unlinked.  ``kind`` is who holds it — ``"run"``, one
    run's input; ``"resident"``, an input kept for its block;
    ``"arena"``, a pool worker's return arena — and ``key`` where it is
    listed: ``(id(block), column indexes or None)`` for a resident
    input, the worker's pid for an arena."""

    __slots__ = (
        "kind", "key", "shm", "name", "nbytes", "pid", "pins", "listed",
        "view", "num_rows", "ship_schema", "finalizer", "free",
    )

    def __init__(self, kind: str, shm, nbytes: int) -> None:
        self.kind = kind
        self.key = None
        self.shm = shm
        self.name = shm.name
        self.nbytes = nbytes
        self.pid = os.getpid()  # only the creator unlinks
        self.pins = 0           # runs reading it: descriptors, arena regions
        self.listed = False     # findable by kind and key
        self.view = None        # an arena's: the parent's read-only view


class _SegmentTable:
    """Every ``repro_mp_*`` segment the parent has created and not yet
    unlinked, whoever holds it: the mount is exactly :meth:`names` at
    every instant, but for a segment removed behind the table's back
    that it has not yet noticed.

    One set of rules for every kind.  A segment is created here, kept
    from forked children, and unlinked only by the process that created
    it.  Runs pin what they read: the descriptors that name an input,
    the arena regions their partials are views over.  A segment that
    *leaves* — its run ended; its block was collected, evicted or
    released; its worker was discarded or outgrew it — is no longer
    found, and is unlinked at once if nothing pins it, else at the last
    unpin; a segment found gone is unlinked at once, pinned or not.  The
    parent's mapping closes at the unlink — an input's was closed once
    written, an arena's is read until then — or, while a view the caller
    kept still pins it, at a later call.

    A block's finalizer can fire anywhere an allocation can — also while
    this thread holds the lock — so it never blocks on the lock: it
    queues its key, and whoever holds the lock empties the queue before
    reading the table and again on the way out.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[str, _Segment] = {}  # by name
        # Listed: resident inputs least recently shipped first, arenas
        # by worker pid.
        self._resident: OrderedDict[tuple, _Segment] = OrderedDict()
        self._arenas: dict[int, _Segment] = {}
        self._mapped: list[_Segment] = []  # unlinked, mapping still open
        self._collected: deque[tuple] = deque()
        self.resident_bytes = 0

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
            entry = self._resident.get(self._collected.popleft())
            if entry is not None and not entry.finalizer.alive:
                self._leave(entry)

    # -- what every kind shares ---------------------------------------------

    def _new(self, kind: str, size: int, prefix: str = SHM_PREFIX):
        """Lock held: a fresh segment of ``size`` bytes, in the table."""
        shm = shared_memory.SharedMemory(
            create=True, size=size, name=prefix + secrets.token_hex(8)
        )
        _kept_from_children(shm)
        entry = _Segment(kind, shm, size)
        self._live[entry.name] = entry
        return entry

    def create(self, size: int) -> _Segment:
        """A run's input segment of ``size`` bytes, pinned by the run:
        unlisted, so its release unlinks it unless :meth:`adopt` keeps
        it first.  Counted here, never refused."""
        with self._locked():
            entry = self._new("run", size)
            entry.pins = 1
            return entry

    def release(self, entries) -> None:
        """Undo one pin of each of ``entries``."""
        with self._locked():
            for entry in entries:
                self._unpin(entry)

    def lose(self, entry: _Segment) -> None:
        """The segment is (to be) gone whoever still reads it: injected
        loss, or a worker that could not attach."""
        with self._locked():
            self._leave(entry, gone=True)

    def _unpin(self, entry: _Segment) -> None:
        entry.pins -= 1
        if not entry.pins and not entry.listed:
            self._unlink(entry)

    def _leave(self, entry: _Segment, gone: bool = False) -> None:
        """Lock held: ``entry`` is found no more.  Its segment is
        unlinked now — or, while runs pin it and it is not ``gone``
        already, at the last unpin."""
        if entry.listed:
            entry.listed = False
            if entry.kind == "resident":
                del self._resident[entry.key]
                entry.finalizer.detach()
                self.resident_bytes -= entry.nbytes
            else:
                del self._arenas[entry.key]
        if gone or not entry.pins:
            self._unlink(entry)

    def _unlink(self, entry: _Segment) -> None:
        """Lock held: ``entry``'s segment leaves the mount, once."""
        if self._live.pop(entry.name, None) is None:
            return
        if entry.pid == os.getpid():  # not a forked child's copy
            try:
                entry.shm.unlink()
            except FileNotFoundError:
                # Removed behind the table's back: what is left of it is
                # the resource tracker's note to unlink it at exit.
                resource_tracker.unregister(entry.shm._name, "shared_memory")
        self._mapped.append(entry)
        self._unmap()

    def _unmap(self) -> None:
        """Lock held: close the unlinked segments' mappings."""
        still = []
        for entry in self._mapped:
            try:
                if entry.view is not None:
                    entry.view.release()
                entry.shm.close()
            except BufferError:  # a view the caller kept pins it
                still.append(entry)
        self._mapped = still

    def names(self, kind: str | None = None) -> set[str]:
        """Names of the segments on the mount the table answers for:
        every kind's, or ``kind``'s."""
        with self._locked():
            return {
                name for name, entry in self._live.items()
                if kind is None or entry.kind == kind
            }

    # -- resident inputs ----------------------------------------------------

    def pin(self, block, idx):
        """``(entry, vanished)``: the resident entry of ``(block, idx)``
        pinned for the caller, or None; ``vanished`` when there was an
        entry but its segment is gone from the mount (the entry is
        dropped on the spot)."""
        key = (id(block), idx)
        with self._locked():
            entry = self._resident.get(key)
            if entry is None:
                return None, False
            if _SHM_DIR is not None and not os.path.exists(
                os.path.join(_SHM_DIR, entry.name)
            ):
                self._leave(entry, gone=True)
                return None, True
            self._resident.move_to_end(key)
            entry.pins += 1
            return entry, False

    def adopt(self, entry: _Segment, block, idx, num_rows, ship_schema):
        """Keep the run segment ``entry``, just written for ``(block,
        idx)``, resident, still pinned for its run, after evicting
        least-recently-shipped unpinned entries to stay under the
        ceiling: returns how many were evicted.  None, and the segment
        stays the run's, when it cannot fit or another thread's segment
        for the key got here first."""
        ceiling = _shm_ceiling()
        key = (id(block), idx)
        with self._locked():
            if key in self._resident:
                return None
            over = self.resident_bytes + entry.nbytes - ceiling
            victims = []
            for old in self._resident.values():
                if over <= 0:
                    break
                if not old.pins:
                    victims.append(old)
                    over -= old.nbytes
            if over > 0:
                return None
            for old in victims:
                self._leave(old)
            entry.kind, entry.key, entry.listed = "resident", key, True
            entry.num_rows, entry.ship_schema = num_rows, ship_schema
            entry.finalizer = weakref.finalize(
                block, self._block_collected, key
            )
            self._resident[key] = entry
            self.resident_bytes += entry.nbytes
            return len(victims)

    def drop(self, blocks=None) -> None:
        """Every resident entry of ``blocks`` (all for None) leaves."""
        ids = None if blocks is None else {id(block) for block in blocks}
        with self._locked():
            for entry in list(self._resident.values()):
                if ids is None or entry.key[0] in ids:
                    self._leave(entry)

    # -- return arenas ------------------------------------------------------
    #
    # A partial comes back the way a fragment goes out: its bytes are
    # written once, into a parent-owned segment, and read where they lie.
    # Each pool worker has one *return arena*.  The parent creates it on
    # the worker's first reply that carries arrays and maps it until it
    # leaves; the worker maps it once and keeps that mapping for its life
    # — the one mapping a worker keeps across jobs.  Each dispatch lends
    # the job the arena's largest free extent.  The worker pickles its
    # reply with protocol 5, writes every out-of-band buffer (a packed
    # partial's arrays) into the extent, and sends only the frame and
    # the layout down the pipe.  The parent rebuilds the reply as
    # read-only views over its own mapping and pins the region it took
    # until the run that received it has merged.  Only the dispatcher
    # holding a worker lends, takes from or grows its arena; any thread
    # gives regions back.

    def lend(self, pid: int):
        """``(arena, start, capacity)``, the largest free extent of
        worker ``pid``'s arena, for its next reply; None while it has
        none."""
        with self._locked():
            arena = self._arenas.get(pid)
            if arena is None:
                return None
            start, end = max(arena.free, key=lambda e: e[1] - e[0],
                             default=(0, 0))
            return arena, start, end - start

    def take(self, arena: _Segment, start: int, used: int) -> tuple:
        """The ``used`` bytes a reply wrote at ``start`` are held:
        returns the lease to :meth:`give_back`."""
        end = start + _aligned(used)
        with self._locked():
            for i, (lo, hi) in enumerate(arena.free):
                if lo <= start and end <= hi:
                    arena.free[i:i + 1] = [
                        e for e in ((lo, start), (end, hi)) if e[0] < e[1]
                    ]
                    break
            arena.pins += 1
        return arena, start, end

    def give_back(self, leases) -> None:
        with self._locked():
            for arena, start, end in leases:
                merged: list = []
                for lo, hi in sorted([*arena.free, (start, end)]):
                    if merged and lo <= merged[-1][1]:
                        merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
                    else:
                        merged.append((lo, hi))
                arena.free = merged
                self._unpin(arena)
            self._unmap()

    def grow(self, pid: int, need: int) -> None:
        """Worker ``pid``'s reply needed ``need`` bytes it was not lent:
        its next one goes to a new arena twice the old one, and twice
        what runs hold of the old one plus ``need``, rounded to pages.
        An arena that size would pass the shm ceiling is not made: the
        worker keeps what it has, and what does not fit comes in-band."""
        with self._locked():
            old = self._arenas.get(pid)
            size = held = 0
            if old is not None:
                size = old.nbytes
                held = size - sum(hi - lo for lo, hi in old.free)
            size = max(2 * size, 2 * (held + _aligned(need)))
            size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
            if size > _shm_ceiling():
                return
            if old is not None:
                self._leave(old)
            arena = self._new("arena", size, _ARENA_PREFIX)
            arena.key, arena.listed, arena.free = pid, True, [(0, size)]
            arena.view = arena.shm.buf.toreadonly()
            self._arenas[pid] = arena

    def retire(self, pid: int) -> None:
        """Worker ``pid`` was discarded: its arena leaves."""
        with self._locked():
            arena = self._arenas.get(pid)
            if arena is not None:
                self._leave(arena)


_table = _SegmentTable()


def release_resident_segments(relation=None) -> None:
    """Unlink the resident segments of ``relation``'s block-born
    fragments — call it when the data behind a relation changes, or the
    relation is being replaced — or, with no argument, every resident
    segment (what :func:`shutdown_worker_pool` does).  Segments an
    in-flight run still reads go when that run ends."""
    if relation is None:
        _table.drop()
        return
    blocks = [
        getattr(frag.relation, "block", None) for frag in relation.fragments
    ]
    _table.drop([block for block in blocks if block is not None])


class _Shipment:
    """One run's fragments on the wire, from first descriptor to the
    release of every segment behind them (``with _Shipment(...)``).

    ``jobs`` are ``(source, query, schema)``.  Each job that ships in a
    segment pins it, and the run's end releases every pin.  A non-empty
    ``ColumnBlock`` source ships through the resident entries: a hit
    pins the entry and costs a descriptor; a miss encodes as ever and
    asks the table to keep the segment, which it does unless it cannot
    fit.  Everything else — row lists, segments the table declined —
    is a run segment, unlinked at the release, and empty or
    codec-rejected fragments travel inline.
    """

    def __init__(self, jobs, obs, project: bool = True) -> None:
        self.jobs = jobs
        self.obs = obs
        self.project = project
        self._pinned: dict[int, _Segment] = {}  # job index -> its segment

    def __enter__(self) -> "_Shipment":
        return self

    def __exit__(self, *_exc) -> None:
        # On success, worker error, timeout, death and
        # FragmentFailedError alike.
        _table.release(self._pinned.values())

    def ship(self) -> list:
        """One descriptor per job, in job order."""
        descriptors = [self._encode(i) for i in range(len(self.jobs))]
        self.obs.shipped(_table.resident_bytes)
        return descriptors

    def _encode(self, index: int):
        rows, query, schema = self.jobs[index]
        block_born = isinstance(rows, ColumnBlock) and len(rows) > 0
        if block_born:
            proj = _projection_for(query, schema) if self.project else None
            idx = None if proj is None else tuple(proj[1])
            entry, vanished = _table.pin(rows, idx)
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

        def keep(entry: _Segment) -> None:  # known to __exit__ at once
            self._pinned[index] = entry

        desc = _encode_fragment(rows, query, schema, keep, self.project)
        if desc[0] != "shm_col":
            return desc
        entry = self._pinned[index]
        if block_born:
            _kind, _name, _nbytes, num_rows, _q, ship_schema, _as_rows = desc
            evicted = _table.adopt(entry, rows, idx, num_rows, ship_schema)
            if evicted:
                self.obs.resident("evicted", evicted)
        return desc

    def reencode(self, index: int):
        """A worker found job ``index``'s segment gone: ship the job
        again.  A resident entry that failed this way is dropped for
        everyone, and the fresh segment takes its place."""
        entry = self._pinned.pop(index, None)
        if entry is not None:
            _table.lose(entry)
            _table.release([entry])
        return self._encode(index)

    def lose(self, index: int) -> bool:
        """Injected shm loss: unlink the segment job ``index`` shipped
        in, resident or not.  False for an inline descriptor, which has
        nothing to lose."""
        entry = self._pinned.get(index)
        if entry is None:
            return False
        _table.lose(entry)
        return True


def _received(message, lent, nbytes):
    """Parent side: a worker's final message, unpickled, back into
    ``(reply, lease, reply_bytes, need)``.  ``lease`` is the region an
    arena reply was read from (None else), ``reply_bytes`` the reply's
    own size — its pickle frame plus its out-of-band buffers, counted
    alike whether they crossed in the arena or in-band, or ``nbytes``
    (the message's) when it had none — and ``need`` nonzero when the
    reply did not fit what it was lent and came in-band: the bytes it
    needed."""
    kind = message[0]
    if kind == "arena":
        _kind, layout, frame = message
        arena, start, _capacity = lent
        at, size = layout[-1]
        lease = _table.take(arena, start, at + size - start)
        views = [arena.view[at:at + n] for at, n in layout]
        reply = pickle.loads(frame, buffers=views)
        return reply, lease, len(frame) + sum(n for _at, n in layout), 0
    if kind == "inband":
        _kind, need, frame, buffers = message
        size = len(frame) + sum(memoryview(b).nbytes for b in buffers)
        return pickle.loads(frame, buffers=buffers), None, size, need
    return message, None, nbytes, 0


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
