"""Spill stores for the hash aggregator's overflow buckets.

`HashAggregator` keeps overflow buckets in memory by default (the
simulator charges their I/O symbolically).  For real out-of-core
operation, :class:`FileSpillStore` spools bucket items to per-bucket
files via pickle and streams them back — so the Section 2 algorithm can
genuinely run with data larger than memory.

Both stores are context managers and ``close()`` is idempotent, so spill
files never outlive an exception (``with FileSpillStore() as store:``).
The file store keeps real byte accounting (``bytes_written`` /
``bytes_read``, totalled across recursion levels at the root).
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile


class MemorySpillStore:
    """The default store: plain in-memory lists."""

    def __init__(self) -> None:
        self._buckets: dict[int, list] = {}

    def append(self, bucket: int, item) -> None:
        self._buckets.setdefault(bucket, []).append(item)

    def bucket_ids(self) -> list[int]:
        return sorted(self._buckets)

    def drain(self, bucket: int):
        items = self._buckets.pop(bucket, [])
        yield from items

    def item_count(self, bucket: int) -> int:
        return len(self._buckets.get(bucket, ()))

    def child(self) -> "MemorySpillStore":
        """A fresh store for one recursion level of bucket processing."""
        return MemorySpillStore()

    def close(self) -> None:
        self._buckets.clear()

    def __enter__(self) -> "MemorySpillStore":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class FileSpillStore:
    """Spool bucket items to per-bucket files on disk.

    Items are pickled length-prefixed records, appended sequentially —
    the access pattern the cost model's sequential-I/O spill terms
    assume.  ``drain`` streams a bucket back and deletes its file.
    """

    def __init__(
        self,
        directory: str | None = None,
        _root: "FileSpillStore | None" = None,
    ) -> None:
        self.directory = (
            tempfile.mkdtemp(prefix="repro-spill-")
            if directory is None
            else directory
        )
        os.makedirs(self.directory, exist_ok=True)
        self._counts: dict[int, int] = {}
        self._children = 0
        self._closed = False
        self._root = self if _root is None else _root
        # Per-store byte counters; the root additionally aggregates the
        # whole tree in total_bytes_written / total_bytes_read.
        self.bytes_written = 0
        self.bytes_read = 0
        self.total_bytes_written = 0
        self.total_bytes_read = 0

    def _path(self, bucket: int) -> str:
        return os.path.join(self.directory, f"bucket_{bucket}.spill")

    def append(self, bucket: int, item) -> None:
        if self._closed:
            raise RuntimeError("spill store is closed")
        data = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        nbytes = len(data) + 4
        with open(self._path(bucket), "ab") as handle:
            handle.write(len(data).to_bytes(4, "little"))
            handle.write(data)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self.bytes_written += nbytes
        self._root.total_bytes_written += nbytes

    def bucket_ids(self) -> list[int]:
        return sorted(self._counts)

    def item_count(self, bucket: int) -> int:
        return self._counts.get(bucket, 0)

    def drain(self, bucket: int):
        path = self._path(bucket)
        if bucket not in self._counts:
            return
        self._counts.pop(bucket)
        root = self._root
        with open(path, "rb") as handle:
            while True:
                header = handle.read(4)
                if not header:
                    break
                size = int.from_bytes(header, "little")
                self.bytes_read += size + 4
                root.total_bytes_read += size + 4
                yield pickle.loads(handle.read(size))
        os.remove(path)

    def child(self) -> "FileSpillStore":
        """A store in a subdirectory, for one recursion level.

        Children share the root's byte accounting, and live inside the root's directory: closing the root
        removes every level at once (each child's own ``close()`` is
        also safe and removes just its subtree).
        """
        if self._closed:
            raise RuntimeError("spill store is closed")
        self._children += 1
        return FileSpillStore(
            os.path.join(self.directory, f"level_{self._children}"),
            _root=self._root,
        )

    def close(self) -> None:
        """Remove this store's directory tree.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._counts.clear()
        if os.path.isdir(self.directory):
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "FileSpillStore":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False
