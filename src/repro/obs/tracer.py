"""Hierarchical span tracing for simulated and real executions.

A :class:`Tracer` records *spans* (named intervals with a category and a
parent) and *instants* (point events) on integer *tracks*.  Track ``-1``
is the cluster-wide track (the query span lives there); track ``i >= 0``
is node / fragment ``i``.  The tracer is time-domain agnostic — callers
pass explicit timestamps, so the simulator traces in simulated seconds
while the multiprocessing executor traces in wall seconds (the exporter
only cares that they are seconds).

The span hierarchy is maintained with one open-span stack per track:
``begin`` pushes, ``end`` pops, and ``complete`` records a closed span
under the current stack top without pushing.  That yields the
query → node → phase → operator tree the exporters rely on.

Disabled tracing must cost nothing: pass ``tracer=None``; every
integration point guards with ``if tracer is not None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

QUERY = "query"
NODE = "node"
PHASE = "phase"
OPERATOR = "operator"


@dataclass
class Span:
    """One named interval on one track (``end`` is None while open)."""

    span_id: int
    parent_id: int | None
    name: str
    cat: str
    track: int
    start: float
    end: float | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


class Tracer:
    """Collects spans and instant events from one traced execution.

    ``operator_spans=False`` suppresses the per-request operator spans
    the simulator emits (they dominate span counts on large runs) while
    keeping query/node/phase structure and instants.
    """

    def __init__(self, operator_spans: bool = True) -> None:
        self.operator_spans = operator_spans
        self.spans: list[Span] = []
        self.instants: list[dict] = []
        self._stacks: dict[int, list[Span]] = {}
        self._next_id = 1

    # -- recording ----------------------------------------------------------

    def _parent_of(self, track: int) -> Span | None:
        stack = self._stacks.get(track)
        if stack:
            return stack[-1]
        # An empty node track hangs off whatever is open cluster-wide
        # (normally the query span).
        cluster = self._stacks.get(-1)
        if track != -1 and cluster:
            return cluster[-1]
        return None

    def begin(
        self,
        name: str,
        track: int = -1,
        t: float = 0.0,
        cat: str = PHASE,
        parent: Span | None = None,
        **args,
    ) -> Span:
        """Open a span and push it on its track's stack."""
        if parent is None:
            parent = self._parent_of(track)
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            cat=cat,
            track=track,
            start=t,
            args=dict(args) if args else {},
        )
        self._next_id += 1
        self.spans.append(span)
        self._stacks.setdefault(track, []).append(span)
        return span

    def end(self, span: Span, t: float, **args) -> None:
        """Close a span (tolerates out-of-order closes of inner spans)."""
        if span.end is not None:
            return
        span.end = max(t, span.start)
        if args:
            span.args.update(args)
        stack = self._stacks.get(span.track)
        if stack and span in stack:
            stack.remove(span)

    def complete(
        self,
        name: str,
        track: int,
        start: float,
        end: float,
        cat: str = OPERATOR,
        **args,
    ) -> Span:
        """Record an already-finished span (not pushed on the stack)."""
        parent = self._parent_of(track)
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            cat=cat,
            track=track,
            start=start,
            end=end,
            args=dict(args) if args else {},
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def instant(self, name: str, track: int, t: float, **args) -> None:
        """Record a point event (mode switch, retry, ...)."""
        self.instants.append(
            {
                "name": name,
                "track": track,
                "time": t,
                "args": dict(args) if args else {},
            }
        )

    # -- inspection ---------------------------------------------------------

    def current_span(self, track: int = -1) -> Span | None:
        """The innermost open span on ``track``.

        Lets decision recorders link an event to the phase/operator span
        it occurred under without threading span handles through the
        algorithm bodies.
        """
        stack = self._stacks.get(track)
        if stack:
            return stack[-1]
        return None

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended (empty after a clean run)."""
        return [s for s in self.spans if s.end is None]

    def close_all(self, t: float) -> None:
        """End every still-open span at ``t`` (crash/abort cleanup)."""
        for stack in self._stacks.values():
            for span in list(reversed(stack)):
                self.end(span, t)

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def spans_by_cat(self, cat: str) -> list[Span]:
        return [s for s in self.spans if s.cat == cat]

    def summary(self) -> dict:
        """Span/instant counts and per-phase total seconds (sorted)."""
        by_cat: dict[str, int] = {}
        phase_seconds: dict[str, float] = {}
        for span in self.spans:
            by_cat[span.cat] = by_cat.get(span.cat, 0) + 1
            if span.cat == PHASE and span.end is not None:
                phase_seconds[span.name] = (
                    phase_seconds.get(span.name, 0.0) + span.duration
                )
        return {
            "spans": len(self.spans),
            "instants": len(self.instants),
            "by_category": dict(sorted(by_cat.items())),
            "phase_seconds": dict(sorted(phase_seconds.items())),
        }

