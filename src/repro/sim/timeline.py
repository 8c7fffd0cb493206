"""ASCII Gantt rendering of a traced run.

Each node's operator spans (CPU, scan I/O, spill I/O, merge, network
protocol, ...) become one labelled lane; gaps are idle/waiting time —
which is how you *see* the C-2P coordinator bottleneck, the A-Rep
end-of-phase synchronization, or the bus-bound tail of Repartitioning.
"""

from __future__ import annotations

from repro.obs.tracer import NODE, OPERATOR

_TAG_CHARS = {
    "scan_io": "S",
    "io_read": "r",
    "io_write": "w",
    "spill_io": "!",
    "store_io": "s",
    "sample_io": "$",
    "select_cpu": "c",
    "agg_cpu": "a",
    "merge_cpu": "m",
    "result_cpu": "R",
    "send_protocol": ">",
    "recv_protocol": "<",
    "cpu": "#",
}
_DEFAULT_CHAR = "#"


def tag_char(tag: str) -> str:
    """The single-character lane marker for an activity tag."""
    return _TAG_CHARS.get(tag, _DEFAULT_CHAR)


def render_timeline(tracer, width: int = 72) -> str:
    """Render per-node lanes of a tracer's operator spans.

    One lane per traced node; '.' marks idle/waiting time.  The tracer
    must have recorded operator spans (``Tracer()``'s default).
    """
    activity = [
        span for span in tracer.spans_by_cat(OPERATOR)
        if span.end > span.start
    ]
    if not activity:
        return "(no timeline recorded: the trace has no operator spans)"
    end_time = max(span.end for span in activity)
    scale = width / end_time
    tracks = {span.track for span in tracer.spans_by_cat(NODE)}
    tracks.update(span.track for span in activity)
    lanes = {track: [] for track in sorted(tracks)}
    for span in activity:
        lanes[span.track].append(span)

    lines = []
    for track, lane in lanes.items():
        chars = ["."] * width
        for span in lane:
            lo = min(width - 1, int(span.start * scale))
            hi = min(width, max(lo + 1, int(span.end * scale + 0.9999)))
            marker = tag_char(span.name)
            for i in range(lo, hi):
                chars[i] = marker
        lines.append(f"node {track:>2} |" + "".join(chars) + "|")
    lines.append(f"         0s{' ' * (width - 12)}{end_time:.3f}s")
    legend = "  ".join(
        f"{tag_char(tag)}={tag}"
        for tag in sorted({span.name for span in activity})
    )
    lines.append("         " + legend + "  .=idle/wait")
    return "\n".join(lines)
