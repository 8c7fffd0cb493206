"""Observability: tracing, metrics registry, profiling, exporters.

The simulator, the real executors, the algorithms, the CLI and the
benchmark harness all instrument themselves through this package:

``Tracer``
    Hierarchical spans (query → node → phase → operator) plus instant
    events.  Time-domain agnostic: the simulator records simulated
    seconds, the multiprocessing executor records wall seconds.
    ``tracer=None`` disables it at zero cost: every integration point
    short-circuits and runs are bit-identical to the un-instrumented
    code.

``MetricsRegistry``
    Typed counter / gauge / histogram handles with a deterministic
    ``merge`` fold — the one place per-attempt counters (retries, spill
    bytes, stall seconds) are combined, instead of ad-hoc summing.

``repro.obs.export``
    Chrome ``trace_event`` JSON (loads in ``chrome://tracing`` and
    Perfetto).

``repro.obs.schema``
    One table of what every exported artifact must contain, keyed by
    schema id, with the one writer and reader that check against it;
    shared by the producers, the tests and CI.

``repro.obs.profile``
    Worker-process self-profiling (wall/CPU time, max RSS) used by
    ``repro.parallel.mp_executor``.

``repro.obs.decisions``
    The decision ledger: every adaptive choice (sampling verdict, A-2P
    switch, A-Rep fallback) as a typed event, annotated post-hoc with
    ground truth and counterfactual model costs; rendered by
    ``repro explain``.

``repro.obs.live``
    Serving telemetry for the long-lived query service: the
    ``repro-qlog/1`` structured query log (non-blocking, drop-counting),
    the flight recorder (recent-query ring + slow-query Chrome traces),
    and Prometheus text exposition with a strict validating parser.

``repro.obs.drift``
    Predicted-vs-observed joins between the cost models' per-family
    breakdowns and measured runs (simulator or mp executor).

See ``docs/observability.md`` and ``docs/decisions.md`` for the tour.
"""

from repro.obs.decisions import (
    DecisionEvent,
    DecisionLedger,
    annotate_ground_truth,
    mp_run_artifact,
    render_explain,
    run_artifact,
)
from repro.obs.drift import (
    DriftReport,
    compare_model_to_mp,
    compare_model_to_run,
    format_drift_table,
)
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.live import (
    PROM_CONTENT_TYPE,
    FlightRecorder,
    QueryLog,
    fingerprint,
    query_record,
    to_prometheus,
    validate_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.obs.profile import WorkerProfile
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Counter",
    "DecisionEvent",
    "DecisionLedger",
    "DriftReport",
    "annotate_ground_truth",
    "compare_model_to_mp",
    "compare_model_to_run",
    "format_drift_table",
    "mp_run_artifact",
    "render_explain",
    "run_artifact",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROM_CONTENT_TYPE",
    "QueryLog",
    "Span",
    "Tracer",
    "WorkerProfile",
    "fingerprint",
    "query_record",
    "quantile_from_buckets",
    "to_prometheus",
    "validate_prometheus",
    "to_chrome_trace",
    "write_chrome_trace",
]
