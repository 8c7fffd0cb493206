"""A typed metrics registry with a deterministic fold.

The simulator's :class:`~repro.sim.metrics.NodeMetrics` /
:class:`~repro.sim.metrics.ClusterMetrics` are purpose-built dataclasses;
the mp executor grew its own counters on top.  ``MetricsRegistry`` is the unifying container:
every number is a named :class:`Counter`, :class:`Gauge` or
:class:`Histogram` handle, snapshots are JSON-serializable and sorted
(deterministic), and ``merge`` defines *once* how per-attempt values fold
into a run total — counters add, gauges combine per their declared mode,
histograms merge bucket-wise.  ``from_cluster_metrics`` adapts a
simulated run's accounting into the registry so simulator and
real-executor runs can be compared handle-for-handle.

Every handle is safe under concurrent writers: the query service's
``ThreadingHTTPServer`` gives each request its own thread and they all
share one registry, so ``Counter.inc``'s read-modify-write,
``Gauge.set``'s compare-and-fold and ``Histogram.observe``'s
multi-field update each run under a per-metric lock, and ``snapshot`` /
``merge`` read each metric atomically (a snapshot never shows a
histogram whose ``count`` disagrees with ``sum(counts)``).  The locks
are uncontended in one-shot batch runs, where the cost is one
``threading.Lock`` acquire per update.
"""

from __future__ import annotations

import math
import threading

_MODES = ("last", "max", "min", "sum")

DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def quantile_from_buckets(bounds, counts, q, overflow_value=None):
    """Estimate the ``q``-quantile of a bucketed distribution.

    ``bounds`` are the bucket upper bounds, ``counts`` the per-bucket
    tallies with one extra trailing overflow bucket (the
    :class:`Histogram` layout, which the JSON ``snapshot`` preserves —
    so ``repro top`` can estimate tail latency from a scraped snapshot
    without the live object).  Returns the upper bound of the bucket
    the target rank falls in: a conservative (pessimistic) estimate,
    deterministic given the counts.  An empty distribution returns 0.0;
    a rank landing in the overflow bucket returns ``overflow_value``
    (the observed max, when the caller tracked one) or the last finite
    bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total <= 0:
        return 0.0
    # Rank of the q-quantile among `total` ordered observations,
    # 1-based; q=0 maps to the first observation.
    rank = max(1, math.ceil(q * total))
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= rank:
            return bound
    return overflow_value if overflow_value is not None else bounds[-1]


class Counter:
    """A monotonically increasing count (events, bytes, retries)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n=1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value with a declared fold mode.

    ``mode`` decides how two observations of the same gauge combine in
    ``MetricsRegistry.merge``: "last" (overwrite), "max", "min", "sum".
    High-water marks are ``mode="max"``; a makespan is ``mode="last"``.
    """

    __slots__ = ("name", "value", "mode", "_set", "_lock")

    def __init__(self, name: str, mode: str = "last") -> None:
        if mode not in _MODES:
            raise ValueError(f"gauge mode must be one of {_MODES}")
        self.name = name
        self.mode = mode
        self.value = 0.0
        self._set = False
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            if not self._set:
                self.value = value
                self._set = True
                return
            if self.mode == "last":
                self.value = value
            elif self.mode == "max":
                self.value = max(self.value, value)
            elif self.mode == "min":
                self.value = min(self.value, value)
            else:
                self.value += value


class Histogram:
    """A fixed-bucket distribution (durations, sizes).

    ``buckets`` are upper bounds; an observation lands in the first
    bucket whose bound is >= the value, or the overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min",
                 "max", "_lock")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Conservative ``q``-quantile estimate from the bucket counts
        (the p50/p95/p99 behind ``repro top`` and the bench gate)."""
        with self._lock:
            return quantile_from_buckets(
                self.buckets, self.counts, q, overflow_value=self.max
            )


class MetricsRegistry:
    """Named typed handles; get-or-create, snapshot, deterministic merge."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, factory):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, mode: str = "last") -> Gauge:
        gauge = self._get(name, Gauge, lambda: Gauge(name, mode))
        if gauge.mode != mode:
            raise ValueError(
                f"gauge {name!r} registered with mode {gauge.mode!r}, "
                f"requested {mode!r}"
            )
        return gauge

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def value(self, name: str):
        """Shortcut: a counter's or gauge's current value."""
        with self._lock:
            metric = self._metrics[name]
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; read its fields")
        return metric.value

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (the one blessed fold).

        Counters add, gauges combine by their mode, histograms combine
        bucket-wise (bucket layouts must match).  Deterministic: the
        result depends only on the two registries' contents.  Each
        source metric is copied out under its own lock before being
        folded in under the target's, so no two metric locks are ever
        held together (two registries may merge into each other
        concurrently without deadlock).
        """
        with other._lock:
            names = sorted(other._metrics)
            metrics = [other._metrics[name] for name in names]
        for name, metric in zip(names, metrics):
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                with metric._lock:
                    was_set, value = metric._set, metric.value
                mine = self.gauge(name, metric.mode)
                if was_set:
                    mine.set(value)
            else:
                with metric._lock:
                    counts = list(metric.counts)
                    count, total = metric.count, metric.total
                    lo, hi = metric.min, metric.max
                mine = self.histogram(name, metric.buckets)
                if mine.buckets != metric.buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket layouts differ"
                    )
                with mine._lock:
                    for i, c in enumerate(counts):
                        mine.counts[i] += c
                    mine.count += count
                    mine.total += total
                    for bound_attr, theirs in (("min", lo), ("max", hi)):
                        if theirs is None:
                            continue
                        ours = getattr(mine, bound_attr)
                        if ours is None:
                            setattr(mine, bound_attr, theirs)
                        else:
                            pick = min if bound_attr == "min" else max
                            setattr(mine, bound_attr, pick(ours, theirs))

    def snapshot(self) -> dict:
        """A JSON-serializable, sorted view of every handle.

        Each metric is read under its own lock, so a histogram entry is
        internally consistent (``count == sum(counts)``) even while
        request threads keep observing.
        """
        with self._lock:
            names = sorted(self._metrics)
            metrics = [self._metrics[name] for name in names]
        out: dict[str, dict] = {}
        for name, metric in zip(names, metrics):
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {
                    "type": "gauge",
                    "mode": metric.mode,
                    "value": metric.value,
                }
            else:
                with metric._lock:
                    out[name] = {
                        "type": "histogram",
                        "count": metric.count,
                        "total": metric.total,
                        "min": metric.min,
                        "max": metric.max,
                        "buckets": list(metric.buckets),
                        "counts": list(metric.counts),
                    }
        return out

    @classmethod
    def from_cluster_metrics(
        cls, metrics, prefix: str = "sim"
    ) -> "MetricsRegistry":
        """Adapt a :class:`ClusterMetrics` into typed handles.

        Every scattered counter family — timing, I/O, network, memory —
        lands under one namespace, so two runs (or a
        simulated and a real one) compare handle-for-handle.
        """
        reg = cls()
        reg.gauge(f"{prefix}.makespan_seconds").set(metrics.makespan)
        reg.gauge(f"{prefix}.skew_ratio").set(metrics.skew_ratio())
        reg.gauge(f"{prefix}.network_busy_seconds", mode="sum").set(
            metrics.network_busy_seconds
        )
        reg.counter(f"{prefix}.network_blocks").inc(metrics.network_blocks)
        reg.gauge(f"{prefix}.peak_table_entries", mode="sum").set(
            metrics.total_peak_table_entries
        )
        counters = {
            "messages_sent": "total_messages",
            "bytes_sent": "total_bytes_sent",
        }
        for short, attr in counters.items():
            reg.counter(f"{prefix}.{short}").inc(getattr(metrics, attr))
        spill_pages = reg.counter(f"{prefix}.spill_pages")
        busy = reg.histogram(f"{prefix}.node_busy_seconds")
        for node in metrics.nodes:
            spill_pages.inc(round(node.spill_pages))
            busy.observe(node.busy_seconds)
        return reg
