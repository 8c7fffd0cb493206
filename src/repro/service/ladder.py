"""The service's overload degradation ladder.

As instantaneous load (occupied capacity over total capacity) climbs, the
service sheds *quality of service* before it sheds *queries*:

1. ``SVC_FULL`` — full per-query parallelism.
2. ``SVC_REDUCED`` — reduced per-query fanout, so more queries share
   the pool at lower individual speed.
3. ``SVC_CACHE_ONLY`` — only data-version-keyed cache hits are served
   (free); misses are shed with a retry hint.
4. ``SVC_SHED`` — the queue is saturated; everything new is shed.

Every rung *transition* is a DecisionLedger event and the current rung
is a gauge (``svc.ladder.rung``), so overload behavior is auditable
after the fact.
"""

from __future__ import annotations

import threading

SVC_FULL = "full"
SVC_REDUCED = "reduced_fanout"
SVC_CACHE_ONLY = "cache_only"
SVC_SHED = "shed"

# Load thresholds, as a fraction of total capacity (running + queued
# over max_concurrency + queue_depth): at or above REDUCED_LOAD queries
# run with reduced fanout, at or above CACHE_ONLY_LOAD only cache hits
# are served, and at 1.0 the queue is full.
REDUCED_LOAD = 0.5
CACHE_ONLY_LOAD = 0.85

LADDER_CODES = {
    SVC_FULL: 0,
    SVC_REDUCED: 1,
    SVC_CACHE_ONLY: 2,
    SVC_SHED: 3,
}


class OverloadLadder:
    """Maps load to a rung; tracks transitions for the ledger/metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current = SVC_FULL
        self.transitions = 0

    def rung_for(self, load: float) -> str:
        if load >= 1.0:
            return SVC_SHED
        if load >= CACHE_ONLY_LOAD:
            return SVC_CACHE_ONLY
        if load >= REDUCED_LOAD:
            return SVC_REDUCED
        return SVC_FULL

    def observe(self, load: float) -> tuple[str, str | None]:
        """Classify ``load``; returns (rung, previous) — previous is
        non-None only when this observation moved the ladder."""
        rung = self.rung_for(load)
        with self._lock:
            previous = self._current
            if rung == previous:
                return rung, None
            self._current = rung
            self.transitions += 1
            return rung, previous

    @property
    def current(self) -> str:
        with self._lock:
            return self._current

    def code(self, rung: str | None = None) -> int:
        return LADDER_CODES[rung if rung is not None else self.current]
