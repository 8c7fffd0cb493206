"""Trace exporter: Chrome ``trace_event`` JSON.

The Chrome format (the "JSON Array Format" of the trace_event spec) is
loadable directly in ``chrome://tracing`` and https://ui.perfetto.dev.
Mapping: every span becomes a complete ("X") event with microsecond
``ts``/``dur``; instants become "i" events; tracks become thread ids
(track -1, the cluster track, is rendered as tid 0 named "cluster", node
``i`` as tid ``i + 1`` named "node i").  Span categories and the span
tree (ids/parents) ride along in ``args`` so nothing is lost in export.
"""

from __future__ import annotations

from repro.obs.schema import CHROME_TRACE, write_artifact

_US = 1e6  # seconds -> microseconds, the trace_event time unit


def _tid(track: int) -> int:
    return track + 1  # -1 (cluster) -> 0, node i -> i + 1


def to_chrome_trace(tracer, process_name: str = "repro") -> dict:
    """Build the Chrome trace dict for a finished (or aborted) trace."""
    events: list[dict] = []
    tracks = {span.track for span in tracer.spans}
    tracks.update(e["track"] for e in tracer.instants)
    events.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    )
    for track in sorted(tracks):
        label = "cluster" if track == -1 else f"node {track}"
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": _tid(track),
                "args": {"name": label},
            }
        )
    # A span still open at export time (crashed run) is closed at the
    # trace's horizon so viewers render it instead of dropping it.
    horizon = 0.0
    for span in tracer.spans:
        horizon = max(horizon, span.start, span.end or 0.0)
    for inst in tracer.instants:
        horizon = max(horizon, inst["time"])
    for span in tracer.spans:
        end = span.end if span.end is not None else horizon
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.end is None:
            args["unfinished"] = True
        args.update(span.args)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.cat,
                "pid": 0,
                "tid": _tid(span.track),
                "ts": span.start * _US,
                "dur": (end - span.start) * _US,
                "args": args,
            }
        )
    for inst in tracer.instants:
        events.append(
            {
                "ph": "i",
                "name": inst["name"],
                "cat": "event",
                "pid": 0,
                "tid": _tid(inst["track"]),
                "ts": inst["time"] * _US,
                "s": "t",
                "args": dict(inst["args"]),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "time_domain": "seconds"},
    }


def write_chrome_trace(tracer, path: str, process_name: str = "repro") -> str:
    """Check and write the Chrome trace JSON to ``path``; returns the path."""
    doc = to_chrome_trace(tracer, process_name)
    return write_artifact(doc, CHROME_TRACE, path)

