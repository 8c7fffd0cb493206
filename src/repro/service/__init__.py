"""Long-lived query service: admission control, deadlines, degradation.

The paper adapts *at query evaluation time*; this package extends that
to *admission time*.  A :class:`QueryService` admits many concurrent SQL
queries (``repro.sql.run_sql`` over the persistent worker pool) and
keeps answering correctly under overload, memory pressure, and real
worker faults:

* **Admission control** — bounded queue + concurrency cap; each
  admitted query leases a budget slice from a service-wide
  :class:`~repro.resources.MemoryBudgetPool`; over capacity requests
  get a typed shed error instead of queueing unboundedly.
* **Deadlines** — per-query deadlines thread into the executor's
  cooperative-cancellation path; timed-out fragments are discarded and
  their shm segments still unlinked.
* **Retry** — exponential backoff + jitter on infra failures (worker
  death, heartbeat loss, shm loss), composing with the pool circuit
  breaker; every retry is a DecisionLedger event.
* **Degradation ladder** — full parallelism → reduced fanout → cache
  only → shed, keyed on instantaneous load, visible in metrics.
* **Graceful drain** — SIGTERM stops admission, finishes or cancels
  in-flight queries by deadline, shuts the pool down clean.

``repro serve`` boots the HTTP front end (:mod:`repro.service.http`).
See ``docs/service.md``.
"""

from repro.service.admission import AdmissionController
from repro.service.cache import PlanCache, ResultCache
from repro.service.config import ServiceConfig
from repro.service.core import QueryOutcome, QueryService
from repro.service.deadline import Deadline
from repro.service.errors import (
    DeadlineMissError,
    DrainingError,
    QueryFailedError,
    ServiceError,
    ShedError,
)
from repro.service.ladder import (
    SVC_CACHE_ONLY,
    SVC_FULL,
    SVC_REDUCED,
    SVC_SHED,
    OverloadLadder,
)

__all__ = [
    "AdmissionController",
    "Deadline",
    "DeadlineMissError",
    "DrainingError",
    "OverloadLadder",
    "PlanCache",
    "QueryFailedError",
    "QueryOutcome",
    "QueryService",
    "ResultCache",
    "SVC_CACHE_ONLY",
    "SVC_FULL",
    "SVC_REDUCED",
    "SVC_SHED",
    "ServiceConfig",
    "ServiceError",
    "ShedError",
]
