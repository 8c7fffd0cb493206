"""What every workload shares: statistics, the result check, process and
shared-memory accounting, and the benchmark's own span recorder.

Nothing here imports the system under test; the workloads do that, and
only through its public entry points.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import statistics
import threading
import time

import numpy as np

FLOAT_TOLERANCE = 1e-9
SHM_PATTERN = "/dev/shm/repro_mp_*"


# -- statistics ---------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    return float(np.quantile(values, q))


median = statistics.median


# -- the result check ---------------------------------------------------


def rows_match(got, expected) -> bool:
    """The CLI's ``--verify`` rule: keys, ints and strings exact, floats
    within 1e-9 relative.  Rows arrive sorted by group key on both sides
    (lists from JSON compare like tuples)."""
    if len(got) != len(expected):
        return False
    for row_g, row_e in zip(got, expected):
        if len(row_g) != len(row_e):
            return False
        for a, b in zip(row_g, row_e):
            if isinstance(a, float) or isinstance(b, float):
                if not (
                    abs(a - b)
                    <= FLOAT_TOLERANCE + FLOAT_TOLERANCE * abs(b)
                ):
                    return False
            elif a != b:
                return False
    return True


# -- processes, memory, shared memory -----------------------------------


def _stat_fields(pid: str):
    """(ppid, state, session) of ``pid`` from /proc, or None once it is
    gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            data = handle.read()
    except OSError:
        return None
    # The command name is parenthesised and may itself hold spaces.
    rest = data[data.rindex(")") + 2:].split()
    return int(rest[1]), rest[0], int(rest[3])


def _process_tree() -> dict[int, list[int]]:
    """parent pid -> child pids, for every live process /proc shows."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(entry)
        if fields is None:
            continue
        ppid, state, _session = fields
        if state == "Z":  # exited, waiting to be reaped: not running
            continue
        children.setdefault(ppid, []).append(int(entry))
    return children


def descendants(tree: dict | None = None) -> list[int]:
    """Live processes below this one."""
    tree = _process_tree() if tree is None else tree
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        for child in tree.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child)
    return sorted(found)


def session_members(session: int) -> list[int]:
    """Every process of ``session`` that /proc still shows, exited but
    unreaped ones too."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and fields[2] == session:
                found.append(int(entry))
    return found


def _is_resource_tracker(pid: int) -> bool:
    """The interpreter's own shared-memory bookkeeper: it lives until this
    process exits and is neither a worker nor a server."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"multiprocessing.resource_tracker" in handle.read()
    except OSError:
        return False


def pin_workers() -> None:
    """Give each childless descendant (a pool worker) one CPU of its own,
    round-robin; processes with children (the server) keep them all.

    The sizing host's guest kernel flips, for minutes at a time, between
    spreading a pool's workers over both vCPUs and packing parent and
    workers onto one.  Within either regime ``scan_lowS`` repeats to 1 %;
    between them it moves by 40 % — on identical code.  Pinning removes
    the second regime.  It is the benchmark's ``taskset``: it changes
    where the program's processes run, not what they do.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tree = _process_tree()
    leaves = [
        pid for pid in descendants(tree)
        if not tree.get(pid) and not _is_resource_tracker(pid)
    ]
    for index, pid in enumerate(leaves):
        try:
            os.sched_setaffinity(pid, {cpus[index % len(cpus)]})
        except OSError:  # it exited between the scan and the call
            pass


def cpu_ticks() -> list[tuple[int, int]]:
    """(busy, total) clock ticks of each CPU since boot, from /proc/stat."""
    out = []
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith("cpu") and line[3].isdigit():
                ticks = [int(x) for x in line.split()[1:]]
                idle = ticks[3] + ticks[4]
                out.append((sum(ticks) - idle, sum(ticks)))
    return out


def cpu_busy_shares(before, after) -> list[float]:
    """Each CPU's busy share between two :func:`cpu_ticks` readings."""
    return [
        round((b1 - b0) / max(1, t1 - t0), 3)
        for (b0, t0), (b1, t1) in zip(before, after)
    ]


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib() -> float:
    """Peak RSS of this process plus every live descendant (pool workers,
    the server and its workers): the sum of their high-water marks."""
    pids = [os.getpid(), *descendants()]
    return sum(_vm_hwm_kib(pid) for pid in pids) / 1024.0


def leftovers(wait_seconds: float = 2.0) -> list[str]:
    """What a finished workload must not leave behind: surviving worker
    or server processes and ``repro_mp_*`` shared-memory segments.  A
    process that is exiting gets ``wait_seconds`` to finish doing so."""
    deadline = time.monotonic() + wait_seconds
    while True:
        found = [
            f"process {pid}" for pid in descendants()
            if not _is_resource_tracker(pid)
        ]
        found += [f"segment {p}" for p in sorted(glob.glob(SHM_PATTERN))]
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.05)


# -- spans ----------------------------------------------------------------


class Spans:
    """The benchmark's own spans around its calls into the system.

    Kept in memory and written as one Chrome-trace file when the workload
    ends.  Parentage is implicit per thread: a span opened inside another
    on the same thread is its child.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self.events: list[dict] = []
        self.foreign: list[dict] = []

    def now(self) -> float:
        return time.perf_counter() - self._t0

    @contextlib.contextmanager
    def span(self, name: str, op_id, **args):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            span_id = len(self.events)
            event = {
                "name": name,
                "op": op_id,
                "parent": stack[-1] if stack else None,
                "tid": tid,
                "start": self.now(),
                "end": None,
                "args": args,
            }
            self.events.append(event)
            stack.append(span_id)
        try:
            yield event
        finally:
            event["end"] = self.now()
            with self._lock:
                self._stacks[tid].pop()

    def adopt(self, chrome_trace: dict, at: float, op_id) -> None:
        """Place the program's own trace of one op (a Chrome trace whose
        clock starts at that op) beside the benchmark's spans."""
        for event in chrome_trace.get("traceEvents", ()):
            moved = dict(event, pid=1)
            if "ts" in moved:
                moved["ts"] += at * 1e6
            moved["args"] = dict(event.get("args", {}), op=op_id)
            self.foreign.append(moved)

    def write(self, path: str, workload: str) -> str:
        tids = {}
        out = [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {"name": f"benchmark:{workload}"}},
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "repro (program's own tracer)"}},
        ]
        for span_id, event in enumerate(self.events):
            tid = tids.setdefault(event["tid"], len(tids))
            end = event["end"] if event["end"] is not None else self.now()
            out.append({
                "ph": "X",
                "name": event["name"],
                "cat": "benchmark",
                "pid": 0,
                "tid": tid,
                "ts": event["start"] * 1e6,
                "dur": (end - event["start"]) * 1e6,
                "args": {
                    "span_id": span_id,
                    "parent_id": event["parent"],
                    "op": event["op"],
                    **event["args"],
                },
            })
        out.extend(self.foreign)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, handle)
            handle.write("\n")
        return path


def maybe_span(spans: Spans | None, name: str, op_id, **args):
    """A span when tracing, nothing at all when not."""
    if spans is None:
        return contextlib.nullcontext()
    return spans.span(name, op_id, **args)


# -- measured windows -----------------------------------------------------


class Window:
    """The ops of one measured stretch, each with the seconds-per-cu of
    its two adjacent calibration samples."""

    def __init__(self, labels) -> None:
        self.labels = tuple(labels)
        self.samples: list[tuple[dict, float]] = []
        self.extra: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, result, unit: float) -> None:
        for walls in result.primary:
            self.samples.append((walls, unit))
        for label, walls in result.extra.items():
            self.extra.setdefault(label, []).extend(walls)
        self.attempted += result.attempted
        self.failed += result.failed

    def cu(self, label: str) -> list[float]:
        return [walls[label] / unit for walls, unit in self.samples]

    def seconds(self, label: str) -> list[float]:
        return [walls[label] for walls, _ in self.samples]

    def totals_cu(self) -> list[float]:
        return [sum(walls.values()) / unit for walls, unit in self.samples]

    def totals_seconds(self) -> list[float]:
        return [sum(walls.values()) for walls, _ in self.samples]

    def p50_cu(self) -> float:
        """Sum of the per-label medians: percentiles never mix op kinds."""
        return sum(median(self.cu(label)) for label in self.labels)

    def p50_seconds(self) -> float:
        return sum(median(self.seconds(label)) for label in self.labels)


def run_ops(workload, cal, window: Window, *, count=None, seconds=None,
            spans=None, **op_kwargs) -> None:
    """Run ops back to back, a calibration sample between each pair, until
    ``count`` ops have run or ``seconds`` have passed."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    before = cal.sample()
    done = 0
    while (count is None or done < count) and (
        deadline is None or time.perf_counter() < deadline
    ):
        if spans is None:
            result = workload.op(**op_kwargs)
        else:
            result = workload.op(spans=spans, op_id=done, **op_kwargs)
        with maybe_span(spans, "calib", done):
            after = cal.sample()
        window.add(result, cal.unit(before, after))
        before = after
        done += 1
