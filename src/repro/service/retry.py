"""Query-level retry with exponential backoff + jitter.

Only *infrastructure* failures are retryable — worker death, heartbeat
loss, shm-segment loss, poison quarantine — the same cause set the pool
circuit breaker watches.  User errors (bad SQL, a raising aggregate)
and deadline misses are never retried: retrying a deterministic
failure burns the latency budget for nothing.

The policy composes with, not fights, the breaker: each retry
re-enters ``multiprocessing_aggregate``, which consults the breaker —
so a retry after a rebuild lands on the fresh pool, and a retry after
degradation runs on a private pool of its own.  Backoff gives the pool time
to rebuild instead of hammering it.
"""

from __future__ import annotations

import random

from repro.parallel.mp_executor import FragmentFailedError
from repro.parallel.mp_executor.resilience import _INFRA_CAUSES


class RetryPolicy:
    """Decides *whether* and *how long* to wait before a retry."""

    def __init__(
        self,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        backoff_cap_seconds: float = 2.0,
        jitter: float = 0.5,
        rng: random.Random | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.backoff_cap_seconds = backoff_cap_seconds
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()

    def is_retryable(self, exc: BaseException) -> bool:
        """True only for pool-infrastructure failures."""
        return (
            isinstance(exc, FragmentFailedError)
            and exc.cause_type in _INFRA_CAUSES
        )

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based): 2^n with jitter."""
        base = min(
            self.backoff_seconds * (2 ** attempt),
            self.backoff_cap_seconds,
        )
        return base * (1.0 + self.jitter * self._rng.random())
