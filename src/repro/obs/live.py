"""Always-on serving telemetry: query log, flight recorder, Prometheus.

PR 3's tracer/metrics were built for one-shot batch runs — collect,
export, exit.  The long-lived query service needs the complement:
telemetry that is readable *while the process is alive* and cheap enough
to leave on.  Three pieces:

``QueryLog``
    One JSONL line per admission outcome (``repro-qlog/1``, see
    :mod:`repro.obs.schema`).  The request thread never touches the
    disk: ``record`` appends to a bounded in-memory queue under a lock
    and a daemon writer thread drains it.  When the queue is full the
    record is *dropped and counted* — backpressure from a slow disk
    must never stall admission.

``FlightRecorder``
    A ring buffer of the last N query records plus auto-captured Chrome
    traces for queries slower than a threshold, served at
    ``GET /debug/queries`` and ``GET /debug/trace/<query_id>`` so a
    slow query can be reconstructed after the fact without restarting
    the server with tracing on.

``to_prometheus`` / ``validate_prometheus``
    Text exposition (format 0.0.4) of a :class:`MetricsRegistry`
    snapshot — counters, gauges, and cumulative ``_bucket{le="..."}``
    histograms — plus a strict parser used by tests and the CI storm
    job to reject malformed output (duplicate families, non-monotone
    buckets, cumulative counts that go backwards).

Everything here is stdlib-only and safe under ``ThreadingHTTPServer``'s
one-thread-per-request model.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
from collections import OrderedDict, deque

from repro.obs.export import to_chrome_trace
from repro.obs.schema import QLOG_SCHEMA

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PROM_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_PROM_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)\Z"
)
_PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def fingerprint(sql: str) -> str:
    """A short stable fingerprint of a SQL text.

    Normalizes case and whitespace so trivially reformatted queries
    share a fingerprint, then hashes — the query log carries this
    instead of the raw SQL, keeping lines short and grep-able
    (``grep` `<fp>`` finds every run of the same statement).
    """
    normalized = " ".join(sql.split()).lower()
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]


def query_record(
    *,
    query_id: int,
    sql: str,
    outcome: str,
    queue_wait_seconds: float,
    elapsed_seconds: float,
    exec_seconds=None,
    rung: str = "full",
    strategy: str = "pool",
    cache_hit: bool = False,
    retries: int = 0,
    error=None,
    reason=None,
) -> dict:
    """Build one ``repro-qlog/1`` record (see ``repro.obs.schema``)."""
    return {
        "schema": QLOG_SCHEMA,
        "query_id": query_id,
        "sql_fingerprint": fingerprint(sql),
        "outcome": outcome,
        "queue_wait_seconds": queue_wait_seconds,
        "elapsed_seconds": elapsed_seconds,
        "exec_seconds": exec_seconds,
        "rung": rung,
        "strategy": strategy,
        "cache_hit": cache_hit,
        "retries": retries,
        "error": error,
        "reason": reason,
    }


class QueryLog:
    """Non-blocking JSONL writer with a bounded queue and drop counting.

    ``record`` serializes the dict, appends it to an in-memory queue
    under a lock and returns immediately; a daemon thread appends the
    lines to ``path``.  A full queue drops the record and increments
    ``dropped`` — the caller finds out from the return value and the
    ``svc.qlog.dropped`` counter, never from latency.

    ``autostart=False`` leaves the writer thread unstarted (records
    accumulate and, past ``capacity``, drop) — used by tests to exercise
    the drop path deterministically; ``close`` then drains the queue
    synchronously.
    """

    def __init__(self, path, capacity: int = 1024,
                 autostart: bool = True) -> None:
        capacity = int(capacity)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.path = str(path)
        self.capacity = capacity
        self._queue: deque[str] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._writing = False
        self._dropped = 0
        self._written = 0
        self._thread = None
        if autostart:
            self.start()

    def start(self) -> None:
        """Start the writer thread (idempotent)."""
        with self._cond:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._run, name="qlog-writer", daemon=True
            )
            self._thread.start()

    def record(self, record: dict) -> bool:
        """Enqueue one record; False (and a drop count) if full/closed."""
        line = json.dumps(record, sort_keys=True)
        with self._cond:
            if self._closed or len(self._queue) >= self.capacity:
                self._dropped += 1
                return False
            self._queue.append(line)
            self._cond.notify_all()
            return True

    @property
    def dropped(self) -> int:
        with self._cond:
            return self._dropped

    @property
    def written(self) -> int:
        with self._cond:
            return self._written

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until every enqueued record reached the file (or timeout)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queue and not self._writing, timeout
            )

    def close(self) -> None:
        """Stop accepting records, drain the queue, join the writer."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout=5.0)
        else:
            self._drain_once()

    def _drain_once(self) -> None:
        with self._cond:
            batch = list(self._queue)
            self._queue.clear()
        if not batch:
            return
        with open(self.path, "a", encoding="utf-8") as out:
            for line in batch:
                out.write(line + "\n")
        with self._cond:
            self._written += len(batch)
            self._cond.notify_all()

    def _run(self) -> None:
        with open(self.path, "a", encoding="utf-8") as out:
            while True:
                with self._cond:
                    while not self._queue and not self._closed:
                        self._cond.wait(0.5)
                    batch = list(self._queue)
                    self._queue.clear()
                    closed = self._closed
                    self._writing = bool(batch)
                for line in batch:
                    out.write(line + "\n")
                if batch:
                    out.flush()
                with self._cond:
                    self._written += len(batch)
                    self._writing = False
                    self._cond.notify_all()
                    if closed and not self._queue:
                        return


class FlightRecorder:
    """Ring buffer of recent query records + traces of the slow ones.

    ``note`` stores every record in a ``deque(maxlen=entries)`` and,
    when the query's elapsed time clears ``slow_threshold_seconds`` and
    a live tracer was passed, captures its Chrome trace into a bounded
    map (oldest trace evicted past ``trace_entries``).  A threshold of
    ``None`` disables trace capture; ``0.0`` traces everything.
    """

    def __init__(self, entries: int = 128, trace_entries: int = 16,
                 slow_threshold_seconds=1.0) -> None:
        entries = int(entries)
        trace_entries = int(trace_entries)
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        if trace_entries < 0:
            raise ValueError(
                f"trace_entries must be non-negative, got {trace_entries}"
            )
        if slow_threshold_seconds is not None and slow_threshold_seconds < 0:
            raise ValueError(
                "slow_threshold_seconds must be non-negative or None, "
                f"got {slow_threshold_seconds}"
            )
        self.entries = entries
        self.trace_entries = trace_entries
        self.slow_threshold_seconds = slow_threshold_seconds
        self._records: deque[dict] = deque(maxlen=entries)
        self._traces: OrderedDict[int, dict] = OrderedDict()
        self._lock = threading.Lock()

    def note(self, record: dict, tracer=None) -> bool:
        """Store a record; True if a slow-query trace was captured."""
        trace = None
        threshold = self.slow_threshold_seconds
        if (
            tracer is not None
            and tracer.spans
            and threshold is not None
            and self.trace_entries > 0
            and record.get("elapsed_seconds", 0.0) >= threshold
        ):
            trace = to_chrome_trace(
                tracer, process_name=f"query-{record.get('query_id')}"
            )
        with self._lock:
            self._records.append(dict(record))
            if trace is not None:
                self._traces[record["query_id"]] = trace
                while len(self._traces) > self.trace_entries:
                    self._traces.popitem(last=False)
        return trace is not None

    def queries(self, limit=None) -> list[dict]:
        """The most recent records, newest first."""
        with self._lock:
            records = list(self._records)
        records.reverse()
        if limit is not None:
            records = records[: max(0, int(limit))]
        return records

    def trace(self, query_id: int):
        """The captured Chrome trace for ``query_id``, or None."""
        with self._lock:
            return self._traces.get(query_id)

    def trace_ids(self) -> list[int]:
        """Query ids with a captured trace, oldest first."""
        with self._lock:
            return list(self._traces)


def _prom_name(name: str) -> str:
    sanitized = _PROM_SANITIZE_RE.sub("_", name)
    if not sanitized or not _PROM_NAME_RE.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus(source) -> str:
    """Prometheus text exposition (0.0.4) of a registry or snapshot.

    ``source`` is a :class:`MetricsRegistry` or the dict its
    ``snapshot()`` returns.  Dotted handle names sanitize to the
    Prometheus charset (``svc.latency_seconds`` →
    ``svc_latency_seconds``); a sanitization collision appends a
    numeric suffix so no family is emitted twice.  Histograms emit the
    cumulative ``_bucket{le="..."}`` series ending in ``+Inf``, plus
    ``_sum`` and ``_count``.
    """
    snapshot = source.snapshot() if hasattr(source, "snapshot") else source
    lines: list[str] = []
    used: set[str] = set()
    for name in sorted(snapshot):
        entry = snapshot[name]
        prom = _prom_name(name)
        candidate, suffix = prom, 2
        while candidate in used:
            candidate = f"{prom}_{suffix}"
            suffix += 1
        prom = candidate
        used.add(prom)
        kind = entry.get("type")
        if kind == "counter":
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_prom_value(entry['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(entry['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for bound, count in zip(entry["buckets"], entry["counts"]):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_prom_value(float(bound))}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{prom}_bucket{{le="+Inf"}} {entry["count"]}'
            )
            lines.append(f"{prom}_sum {_prom_value(entry['total'])}")
            lines.append(f"{prom}_count {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_le(labels: str):
    match = re.match(r'le="(?P<le>[^"]*)"\Z', labels or "")
    if match is None:
        return None
    raw = match.group("le")
    if raw == "+Inf":
        return math.inf
    try:
        return float(raw)
    except ValueError:
        return None


def validate_prometheus(text: str) -> list[str]:
    """Problems in a Prometheus 0.0.4 exposition ([] = valid).

    Strict on purpose — the CI storm job scrapes a live server and any
    concurrency bug (duplicate family from a name collision, a torn
    histogram whose cumulative counts run backwards, ``+Inf`` bucket
    disagreeing with ``_count``) must fail the build, not scrape as
    garbage metrics.
    """
    problems: list[str] = []
    families: dict[str, str] = {}
    seen_samples: set[str] = set()
    hist_buckets: dict[str, list[tuple[float, float]]] = {}
    hist_counts: dict[str, float] = {}
    for i, line in enumerate(text.splitlines()):
        where = f"line {i + 1}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    problems.append(f"{where}: malformed TYPE line")
                    continue
                _, _, family, kind = parts
                if not _PROM_NAME_RE.match(family):
                    problems.append(
                        f"{where}: invalid family name {family!r}"
                    )
                if kind not in _PROM_TYPES:
                    problems.append(f"{where}: unknown type {kind!r}")
                if family in families:
                    problems.append(f"{where}: duplicate family {family!r}")
                families[family] = kind
            continue
        match = _PROM_SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"{where}: unparseable sample {line!r}")
            continue
        name, labels = match.group("name"), match.group("labels")
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                f"{where}: unparseable value {match.group('value')!r}"
            )
            continue
        key = f"{name}{{{labels or ''}}}"
        if key in seen_samples:
            problems.append(f"{where}: duplicate sample {key}")
        seen_samples.add(key)
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and families.get(base) == "histogram":
                family = base
                break
        if family not in families:
            problems.append(
                f"{where}: sample {name!r} has no preceding TYPE line"
            )
            continue
        if families[family] == "histogram":
            if name == family + "_bucket":
                le = _parse_le(labels)
                if le is None:
                    problems.append(
                        f"{where}: bucket sample needs a le label"
                    )
                    continue
                hist_buckets.setdefault(family, []).append((le, value))
            elif name == family + "_count":
                hist_counts[family] = value
        elif labels:
            problems.append(
                f"{where}: unexpected labels on {families[family]} "
                f"sample {name!r}"
            )
    for family, buckets in sorted(hist_buckets.items()):
        les = [le for le, _ in buckets]
        counts = [count for _, count in buckets]
        if les != sorted(les) or len(set(les)) != len(les):
            problems.append(
                f"histogram {family!r}: le bounds not strictly increasing"
            )
        if counts != sorted(counts):
            problems.append(
                f"histogram {family!r}: cumulative bucket counts decrease"
            )
        if not les or les[-1] != math.inf:
            problems.append(
                f"histogram {family!r}: missing +Inf bucket"
            )
        elif family in hist_counts and counts[-1] != hist_counts[family]:
            problems.append(
                f"histogram {family!r}: +Inf bucket {counts[-1]} != "
                f"count {hist_counts[family]}"
            )
    for family, kind in sorted(families.items()):
        if kind != "histogram" and not any(
            key == f"{family}{{}}" or key.startswith(f"{family}{{")
            for key in seen_samples
        ):
            problems.append(f"family {family!r} declared but has no samples")
    return problems
