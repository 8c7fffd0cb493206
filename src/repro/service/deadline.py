"""Per-query deadlines as absolute monotonic instants.

A :class:`Deadline` is created at admission and threaded everywhere the
query goes: the admission queue wait, the retry loop's sleeps, and —
via :meth:`absolute` — straight into the executor's
``multiprocessing_aggregate(deadline=...)`` cooperative-cancellation
path, so a query that times out mid-fragment discards its workers'
in-flight jobs and still unlinks every shm segment.
"""

from __future__ import annotations

import sys
import time


class Deadline:
    """An absolute ``time.monotonic()`` budget for one query."""

    def __init__(self, timeout_seconds: float | None) -> None:
        # NaN compares false to everything and never expires; infinity
        # is "no limit", which is spelled None.
        if timeout_seconds is not None and not (
            0 < timeout_seconds <= sys.float_info.max
        ):
            raise ValueError("timeout_seconds must be positive and finite")
        self.timeout_seconds = timeout_seconds
        self._start = time.monotonic()
        self._at = (
            None if timeout_seconds is None
            else self._start + timeout_seconds
        )

    def absolute(self) -> float | None:
        """The monotonic instant to hand the executor (None = no limit)."""
        return self._at

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or None for no limit."""
        if self._at is None:
            return None
        return max(0.0, self._at - time.monotonic())

    def expired(self) -> bool:
        return self._at is not None and time.monotonic() >= self._at

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def clamp_sleep(self, seconds: float) -> float:
        """Never sleep past the deadline (retry backoff uses this)."""
        rem = self.remaining()
        if rem is None:
            return seconds
        return min(seconds, rem)
