"""Requests a node program may yield, and the message envelope.

A node program is a generator.  Each ``yield`` hands the engine one of
these request objects; the engine advances simulated time (and metrics)
accordingly and resumes the generator — with the received
:class:`Message` as the value of a ``Recv``/``TryRecv`` yield.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Compute:
    """Occupy this node's CPU for ``seconds`` of simulated time."""

    seconds: float
    tag: str = "cpu"

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("compute time must be non-negative")


@dataclass(frozen=True)
class ReadPages:
    """Read ``pages`` pages from this node's local disk.

    ``random=True`` prices the read at rIO instead of sequential IO
    (used by the page sampler).  ``tag`` routes the time into the metrics
    breakdown ("scan_io", "spill_io", ...).
    """

    pages: float
    random: bool = False
    tag: str = "io_read"

    def __post_init__(self) -> None:
        if self.pages < 0:
            raise ValueError("page count must be non-negative")


@dataclass(frozen=True)
class WritePages:
    """Write ``pages`` pages to this node's local disk."""

    pages: float
    tag: str = "io_write"

    def __post_init__(self) -> None:
        if self.pages < 0:
            raise ValueError("page count must be non-negative")


@dataclass(frozen=True)
class Message:
    """A message between nodes.

    ``kind`` is the protocol tag the algorithms dispatch on ("partials",
    "raw", "sample", "decision", "end_of_phase", "eof").  ``nbytes`` is
    the payload's on-wire size; the engine derives the block count, the
    protocol CPU cost and the network occupancy from it.  Zero-byte
    messages model piggy-backed control traffic: they cost nothing and
    arrive instantly.
    """

    src: int
    dst: int
    kind: str
    payload: object = None
    nbytes: int = 0

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


@dataclass(frozen=True)
class Send:
    """Transmit ``message`` to ``message.dst``."""

    message: Message


@dataclass(frozen=True)
class Recv:
    """Block until a message arrives; ``kind=None`` accepts any kind."""

    kind: str | None = None


@dataclass(frozen=True)
class TryRecv:
    """Non-blocking receive: a delivered matching message, or None.

    Used by Adaptive Repartitioning to poll for end-of-phase notices
    while it is still scanning its own fragment.
    """

    kind: str | None = None

