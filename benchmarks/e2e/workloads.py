"""The four workloads.

Each drives the system only through public entry points:
``repro.sql.run_sql`` / ``parse_query``,
``repro.parallel.multiprocessing_aggregate`` (with its documented
``metrics=`` / ``profiles=`` / ``tracer=`` / ``ledger=`` arguments),
``reference_aggregate``, ``shutdown_worker_pool``,
``repro.workloads.generator`` and the ``python -m repro serve`` CLI with
its ``/query``, ``/metrics`` and ``/debug/queries`` endpoints.  No
``mp_executor._private`` name appears, so that module can be split
without breaking the benchmark it is judged by.

All four are closed loops (a caller sends its next request only after
the previous reply), use 4 round-robin fragments and ``processes=2``
(= ``nproc`` on the sizing host), and make their inputs from ``--seed``.

A workload's ``op()`` returns an :class:`OpResult`.  ``primary`` holds
the samples the end-to-end metrics are computed from, one dict
``label -> wall seconds`` per sample (a ``shape_cliffs`` cycle is one
sample of six labels; a ``svc_mix`` block yields one single-label sample
per client).  ``extra`` holds op kinds that are reported separately and
never pooled with the primary ones (``svc_mix`` cache hits).
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from repro.obs import DecisionLedger, MetricsRegistry, Tracer, to_chrome_trace
from repro.parallel import (
    multiprocessing_aggregate,
    reference_aggregate,
    shutdown_worker_pool,
)
from repro.sql import parse_query, run_sql
from repro.workloads.generator import generate_uniform

from harness import maybe_span, pin_workers, rows_match

FRAGMENTS = 4
PROCESSES = 2
STRATEGY = "auto"
STR_KEY_FORMAT = "g{:08d}"


class OpResult(NamedTuple):
    primary: list
    extra: dict
    attempted: int
    failed: int


class Statement(NamedTuple):
    label: str
    sql: str
    table: str


def reference_problems(first: dict, checks, table_of, corrupt: bool) -> list[str]:
    """Hold the first rows of each ``(key, sql)`` in ``checks`` to
    ``reference_aggregate``; ``corrupt`` spoils one expected row per
    statement (the checker's self-test)."""
    problems = []
    for key, sql in checks:
        expected = reference_aggregate(table_of(key), parse_query(sql)[1])
        if corrupt and expected:
            expected[0] = expected[0][:-1] + (-1,)
        if key not in first:
            problems.append(f"{key}: never ran")
        elif not rows_match(first[key], expected):
            problems.append(f"{key}: rows differ from reference")
    return problems


def worker_busy_seconds(profiles) -> float:
    """Wall time of the busiest worker: fragments that ran on one pid ran
    one after the other, so their walls add."""
    per_pid: dict[int, float] = {}
    for profile in profiles:
        per_pid[profile.pid] = per_pid.get(profile.pid, 0.0) + profile.wall_seconds
    return max(per_pid.values(), default=0.0)


class SqlWorkload:
    """Statements sent through ``run_sql(substrate="mp")`` by one client."""

    def __init__(self, name, tables, statements, tail_q=None, warm_ops=0,
                 trace_ops=0, probe_ops=3) -> None:
        self.name = name
        self.table_specs = tables
        self.statements = [Statement(*s) for s in statements]
        self.labels = tuple(s.label for s in self.statements)
        self.tail_q = tail_q
        self.warm_ops = warm_ops      # counted inside setup_s
        self.trace_ops = trace_ops    # fixed, so traced counts repeat
        self.probe_ops = probe_ops
        self.tables: dict = {}
        self.first: dict[str, list] = {}
        self.trace_records: list[list[dict]] = []

    # -- lifecycle ------------------------------------------------------

    def generate(self, seed: int) -> dict:
        return {
            key: generate_uniform(num_nodes=FRAGMENTS, seed=seed, **spec)
            for key, spec in self.table_specs.items()
        }

    def start(self, seed: int) -> None:
        self.tables = self.generate(seed)

    def warm(self) -> None:
        for done in range(self.warm_ops):
            self.op()
            if done == 0:
                pin_workers()  # the first op started the pool

    def stop(self) -> None:
        shutdown_worker_pool()
        self.tables = {}

    @property
    def tuples_per_sample(self) -> int:
        return sum(
            self.table_specs[s.table]["num_tuples"] for s in self.statements
        )

    # -- one op ---------------------------------------------------------

    def _check(self, label: str, rows) -> bool:
        """Every later op must equal the first op's rows bit for bit; the
        first op's rows meet the reference once, in :meth:`verify`."""
        return self.first.setdefault(label, rows) == rows

    def op(self, spans=None, op_id=None, **run_kwargs) -> OpResult:
        if spans is not None:
            return self._traced_op(spans, op_id)
        run_kwargs.setdefault("strategy", STRATEGY)
        run_kwargs.setdefault("processes", PROCESSES)
        walls: dict[str, float] = {}
        failed = 0
        for stmt in self.statements:
            start = time.perf_counter()
            try:
                rows = run_sql(
                    stmt.sql, self.tables[stmt.table], substrate="mp",
                    **run_kwargs,
                )
            except Exception as exc:  # a failed op is counted, not fatal
                print(f"# {self.name}/{stmt.label}: {exc!r}", file=sys.stderr)
                rows = None
            walls[stmt.label] = time.perf_counter() - start
            if rows is None or not self._check(stmt.label, rows):
                failed += 1
        return OpResult([walls], {}, len(self.statements), failed)

    def _traced_op(self, spans, op_id) -> OpResult:
        """The same op as parse + execute + check, with the program's own
        metrics, profiles, tracer and ledger switched on."""
        walls: dict[str, float] = {}
        records: list[dict] = []
        failed = 0
        with spans.span("op", op_id):
            for stmt in self.statements:
                registry = MetricsRegistry()
                profiles: list = []
                tracer = Tracer()
                rows = None
                start = time.perf_counter()
                with spans.span("parse", op_id, label=stmt.label):
                    _table, query = parse_query(stmt.sql)
                parsed = time.perf_counter()
                with spans.span("execute", op_id, label=stmt.label) as span:
                    try:
                        rows = multiprocessing_aggregate(
                            self.tables[stmt.table], query,
                            processes=PROCESSES, strategy=STRATEGY,
                            metrics=registry, profiles=profiles,
                            tracer=tracer, ledger=DecisionLedger(),
                        )
                    except Exception as exc:
                        print(f"# {self.name}/{stmt.label}: {exc!r}",
                              file=sys.stderr)
                walls[stmt.label] = time.perf_counter() - start
                with spans.span("check", op_id, label=stmt.label):
                    if rows is None or not self._check(stmt.label, rows):
                        failed += 1
                if op_id == 0:
                    spans.adopt(to_chrome_trace(tracer), span["start"], op_id)
                records.append({
                    "label": stmt.label,
                    "parse_s": parsed - start,
                    "wall_s": walls[stmt.label],
                    "metrics": registry.snapshot(),
                    "busy_s": worker_busy_seconds(profiles),
                    "cpu_s": sum(p.cpu_seconds for p in profiles),
                    "rss_bytes": max(
                        (p.max_rss_bytes for p in profiles), default=0
                    ),
                })
        self.trace_records.append(records)
        return OpResult([walls], {}, len(self.statements), failed)

    # -- the reference check --------------------------------------------

    def verify(self, seed: int, corrupt: bool = False,
               tables: dict | None = None) -> list[str]:
        """Compare the first op's rows of every statement with
        ``reference_aggregate`` over freshly generated tables (the timed
        ones never had their rows decoded by the checker)."""
        if tables is None:
            tables = self.generate(seed)
        table_key = {s.label: s.table for s in self.statements}
        return reference_problems(
            self.first,
            [(s.label, s.sql) for s in self.statements],
            lambda label: tables[table_key[label]],
            corrupt,
        )


def scan_low_s() -> SqlWorkload:
    return SqlWorkload(
        "scan_lowS",
        {"t": dict(num_tuples=1_000_000, num_groups=500)},
        [("op", "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey", "t")],
        tail_q=0.90, warm_ops=4, trace_ops=60, probe_ops=5,
    )


def merge_high_s() -> SqlWorkload:
    return SqlWorkload(
        "merge_highS",
        {"t": dict(num_tuples=200_000, num_groups=50_000)},
        [("op", "SELECT gkey, SUM(val), COUNT(*), MIN(val) FROM r "
                "GROUP BY gkey", "t")],
        tail_q=0.80, warm_ops=4, trace_ops=25, probe_ops=3,
    )


def shape_cliffs() -> SqlWorkload:
    size = dict(num_tuples=50_000, num_groups=1_000)
    return SqlWorkload(
        "shape_cliffs",
        {"int": size, "str": dict(size, key_format=STR_KEY_FORMAT)},
        [
            ("where", "SELECT gkey, SUM(val), COUNT(*) FROM r "
                      "WHERE val >= 50 GROUP BY gkey", "int"),
            ("scalar", "SELECT SUM(val), COUNT(*), MIN(val), MAX(val) "
                       "FROM r", "int"),
            ("multikey", "SELECT gkey, pad, SUM(val), COUNT(*) FROM r "
                         "GROUP BY gkey, pad", "int"),
            ("distinct", "SELECT gkey, COUNT(DISTINCT val) FROM r "
                         "GROUP BY gkey", "int"),
            ("strkey", "SELECT gkey, MIN(val), MAX(val), AVG(val) FROM r "
                       "GROUP BY gkey", "str"),
            ("havingvar", "SELECT gkey, VAR(val), STDDEV(val), COUNT(*) "
                          "FROM r GROUP BY gkey HAVING COUNT(*) > 10", "int"),
        ],
        tail_q=0.75, warm_ops=1, trace_ops=10, probe_ops=3,
    )


# -- svc_mix --------------------------------------------------------------

SVC_TUPLES = 200_000
SVC_GROUPS = 200
SVC_TABLE = "r"
SVC_CLIENTS = 2
SVC_HITS_PER_MISS = 5
SVC_ZIPF_EXPONENT = 1.5
SVC_BASE = "SELECT gkey, SUM(val), COUNT(*) FROM r GROUP BY gkey"
SVC_HIT_STATEMENTS = (
    SVC_BASE,
    "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
    "SELECT gkey, AVG(val) FROM r GROUP BY gkey",
    "SELECT gkey, MIN(val), MAX(val) FROM r GROUP BY gkey",
    "SELECT gkey, SUM(val) FROM r WHERE val >= 25.0 GROUP BY gkey",
    "SELECT gkey, COUNT(*) FROM r WHERE val >= 75.0 GROUP BY gkey",
    "SELECT SUM(val), COUNT(*) FROM r",
    "SELECT gkey, VAR(val), COUNT(*) FROM r GROUP BY gkey "
    "HAVING COUNT(*) > 10",
)
_BARRIER_TIMEOUT = 120.0


def svc_miss_sql(serial: int) -> str:
    """A statement the result cache has never seen: every group's SUM is
    in the tens of thousands, so the literal changes the text, not the
    answer."""
    return f"{SVC_BASE} HAVING SUM(val) > 0.{serial:07d}"


class ServiceWorkload:
    """Two keep-alive HTTP clients against ``python -m repro serve``.

    Each client loops *1 miss + 5 hits*, the second half a period out of
    phase, so a miss always runs against the other client's hits.  The
    clients meet the main thread at a barrier between blocks, so
    calibration runs while the server is idle.  The client is plain
    ``http.client`` with no socket tuning.
    """

    name = "svc_mix"
    labels = ("miss",)
    tail_q = 0.80
    tuples_per_sample = SVC_TUPLES
    trace_ops = 20

    def __init__(self) -> None:
        self.first: dict[str, list] = {}
        self.trace_records: list[dict] = []
        self.bad_exits: list[int] = []
        self._serial = 0
        self._proc = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------

    def start(self, seed: int) -> None:
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--tuples", str(SVC_TUPLES), "--groups", str(SVC_GROUPS),
                "--nodes", str(FRAGMENTS), "--seed", str(seed),
                "--processes", str(PROCESSES),
            ],
            stdout=subprocess.PIPE, text=True,
        )
        banner = self._proc.stdout.readline()
        found = re.search(r"http://[^:]+:(\d+)", banner)
        if found is None:
            raise RuntimeError(f"server did not start: {banner!r}")
        self._port = int(found.group(1))
        self._control = self._connect()
        self._conns = [self._connect() for _ in range(SVC_CLIENTS)]
        self._rngs = [
            random.Random(seed * SVC_CLIENTS + i) for i in range(SVC_CLIENTS)
        ]
        self._weights = [
            1.0 / (rank ** SVC_ZIPF_EXPONENT)
            for rank in range(1, len(SVC_HIT_STATEMENTS) + 1)
        ]
        self._barrier = threading.Barrier(SVC_CLIENTS + 1)
        self._miss_done = threading.Event()
        self._stopping = False
        self._results: list = [None] * SVC_CLIENTS
        self._spans = None
        self._op_id = None
        self._threads = [
            threading.Thread(target=self._client_loop, args=(i,), daemon=True)
            for i in range(SVC_CLIENTS)
        ]
        for thread in self._threads:
            thread.start()

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=60)
        conn.connect()
        return conn

    def warm(self) -> None:
        """Put the eight hit statements in the result cache."""
        for done, sql in enumerate(SVC_HIT_STATEMENTS):
            ok, _ = self._request(self._control, sql, want_hit=False)
            if not ok:
                raise RuntimeError(f"pre-warm failed for {sql!r}")
            if done == 0:
                pin_workers()  # the first miss started the server's pool

    def stop(self) -> None:
        self._stopping = True
        if self._threads:
            self._barrier.wait(_BARRIER_TIMEOUT)
            for thread in self._threads:
                thread.join(_BARRIER_TIMEOUT)
            self._threads = []
        for conn in (self._control, *self._conns):
            conn.close()
        self._proc.send_signal(signal.SIGTERM)
        try:
            self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
        if self._proc.returncode != 0:
            self.bad_exits.append(self._proc.returncode)

    # -- requests -------------------------------------------------------

    def _get_json(self, path: str):
        self._control.request("GET", path)
        reply = self._control.getresponse()
        body = reply.read()
        if reply.status != 200:
            return None
        return json.loads(body)

    def _request(self, conn, sql: str, want_hit: bool, key: str | None = None):
        """POST one statement; returns (ok, query_id).  A reply is wrong on
        a non-200, a wrong ``cache_hit`` flag, or rows that differ from
        the first reply to the same statement."""
        payload = json.dumps({"sql": sql})
        try:
            conn.request(
                "POST", "/query", body=payload,
                headers={"Content-Type": "application/json"},
            )
            reply = conn.getresponse()
            body = json.loads(reply.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            print(f"# svc_mix: {exc!r}", file=sys.stderr)
            conn.close()  # reconnects on the next request
            return False, None
        if reply.status != 200 or body.get("cache_hit") is not want_hit:
            return False, body.get("query_id")
        rows = body.get("rows")
        first = self.first.setdefault(key or sql, rows)
        return rows == first, body.get("query_id")

    def _client_loop(self, index: int) -> None:
        while True:
            self._barrier.wait(_BARRIER_TIMEOUT)
            if self._stopping:
                return
            self._results[index] = self._block(index)
            self._barrier.wait(_BARRIER_TIMEOUT)

    def _block(self, index: int) -> list:
        """One client's block: 1 miss and 5 Zipf-drawn hits."""
        spans, op_id = self._spans, self._op_id
        conn = self._conns[index]
        miss = ("miss", svc_miss_sql(self._serials[index]), "miss")
        hits = [
            ("hit", sql, None)
            for sql in self._rngs[index].choices(
                SVC_HIT_STATEMENTS, self._weights, k=SVC_HITS_PER_MISS
            )
        ]
        # The same loop, out of phase: each client's miss runs against
        # the other's hits.  Two misses at once would share the two pool
        # workers, and how their eight fragments interleave would decide
        # each one's latency (150-300 ms, at random).  Every miss follows
        # a hit on its connection: the first reply after an idle spell
        # escapes the delayed-ACK stall, which would make a second class
        # of miss 40 ms faster than the first.
        if index % 2 == 0:
            plan = [hits[0], miss, *hits[1:]]
        else:
            plan = [*hits, miss]
        done = []
        with maybe_span(spans, "op", op_id, client=index):
            for kind, sql, key in plan:
                if kind == "miss" and index % 2:
                    self._miss_done.wait(_BARRIER_TIMEOUT)
                start = time.perf_counter()
                with maybe_span(spans, "http.request", op_id, kind=kind):
                    ok, query_id = self._request(
                        conn, sql, want_hit=(kind == "hit"), key=key
                    )
                done.append(
                    (kind, time.perf_counter() - start, ok, query_id)
                )
                if kind == "miss" and index % 2 == 0:
                    self._miss_done.set()
        return done

    def op(self, spans=None, op_id=None) -> OpResult:
        """One block: both clients run 1 miss + 5 hits, then meet here."""
        self._spans, self._op_id = spans, op_id
        self._serials = [self._serial + i + 1 for i in range(SVC_CLIENTS)]
        self._serial += SVC_CLIENTS
        self._miss_done.clear()
        self._barrier.wait(_BARRIER_TIMEOUT)
        self._barrier.wait(_BARRIER_TIMEOUT)
        done = [item for result in self._results for item in result]
        misses = [d for d in done if d[0] == "miss"]
        hits = [d for d in done if d[0] == "hit"]
        if spans is not None:
            self._note_server_side(misses, op_id, spans)
        return OpResult(
            [{"miss": wall} for _, wall, _, _ in misses],
            {"hit": [wall for _, wall, _, _ in hits]},
            len(done),
            sum(1 for d in done if not d[2]),
        )

    def _note_server_side(self, misses, op_id, spans) -> None:
        """Join each traced miss with the server's own record of it."""
        with spans.span("debug.queries", op_id):
            body = self._get_json("/debug/queries?n=64") or {}
        by_id = {r.get("query_id"): r for r in body.get("queries", ())}
        for _, wall, _, query_id in misses:
            record = by_id.get(query_id)
            if record is not None:
                self.trace_records.append({
                    "client_s": wall,
                    "queue_wait_s": record.get("queue_wait_seconds"),
                    "exec_s": record.get("exec_seconds"),
                })

    def server_metrics(self) -> dict:
        return self._get_json("/metrics") or {}

    # -- the reference check --------------------------------------------

    def generate(self, seed: int) -> dict:
        return {
            SVC_TABLE: generate_uniform(
                SVC_TUPLES, SVC_GROUPS, FRAGMENTS, seed=seed
            )
        }

    def verify(self, seed: int, corrupt: bool = False,
               tables: dict | None = None) -> list[str]:
        """The server generated its table from the same flags; regenerate
        it here and hold every statement's first reply to the reference."""
        if tables is None:
            tables = self.generate(seed)
        checks = [(sql, sql) for sql in SVC_HIT_STATEMENTS]
        checks.append(("miss", svc_miss_sql(1)))
        problems = reference_problems(
            self.first, checks, lambda _key: tables[SVC_TABLE], corrupt
        )
        problems += [f"server exited with {code}" for code in self.bad_exits]
        return problems


WORKLOADS = {
    "scan_lowS": scan_low_s,
    "merge_highS": merge_high_s,
    "shape_cliffs": shape_cliffs,
    "svc_mix": ServiceWorkload,
}
