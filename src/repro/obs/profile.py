"""Worker self-profiling for the real (multiprocessing) executors.

A worker process cannot be observed from outside without platform
machinery, so it observes itself: :func:`profile_start` snapshots the
wall and CPU clocks at entry, :func:`profile_finish` turns that into a
plain dict (picklable, pipe-friendly) with wall seconds, CPU seconds and
the process's high-water RSS; a pool worker adds ``load_seconds``, the
part of the wall it spent getting at its fragment.  The parent wraps the
dict back into a :class:`WorkerProfile` and feeds registry histograms /
tracer spans.

``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the conversion
happens *in the worker*, so the parent always sees bytes.  On platforms
without the ``resource`` module (Windows) the RSS reads as 0 rather
than failing the run.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass


def _max_rss_bytes() -> int:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(rss)
    return int(rss) * 1024


def profile_start() -> tuple[float, float]:
    """Snapshot (wall, cpu) clocks at worker entry."""
    return (time.perf_counter(), time.process_time())


def profile_finish(started: tuple[float, float]) -> dict:
    """The worker's self-measurement as a picklable dict."""
    wall0, cpu0 = started
    return {
        "wall_seconds": time.perf_counter() - wall0,
        "cpu_seconds": time.process_time() - cpu0,
        "max_rss_bytes": _max_rss_bytes(),
        "pid": os.getpid(),
    }


@dataclass(frozen=True)
class WorkerProfile:
    """One fragment attempt's resource usage, as seen by the worker."""

    fragment_index: int
    attempt: int
    wall_seconds: float
    cpu_seconds: float
    max_rss_bytes: int
    pid: int
    ok: bool = True
    # Pool workers only: attaching the fragment's segment and building
    # the block over it (0.0 for an inline or in-process job).
    load_seconds: float = 0.0

    @classmethod
    def from_dict(
        cls, fragment_index: int, attempt: int, data: dict, ok: bool = True
    ) -> "WorkerProfile":
        return cls(
            fragment_index=fragment_index,
            attempt=attempt,
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),
            max_rss_bytes=int(data.get("max_rss_bytes", 0)),
            pid=int(data.get("pid", 0)),
            ok=ok,
            load_seconds=float(data.get("load_seconds", 0.0)),
        )
