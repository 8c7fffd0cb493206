"""The traced pass: per-layer numbers, measured from outside.

Runs after (and apart from) the timed window, on the same inputs, for a
*fixed op count* per workload so its counters repeat exactly.  A layer
number comes from timing a public call, or from what the program already
reports through ``metrics=`` / ``profiles=`` / ``/metrics`` /
``/debug/queries``.  A number whose source is absent is ``None`` (printed
``n/a``); it never crashes the run.

Layer = module name.  ``README.md`` maps each layer metric to the
end-to-end metric, and the workload, it is expected to move.
"""

from __future__ import annotations

import time

from repro.obs import MetricsRegistry
from repro.service import QueryService, ServiceConfig
from repro.sql import parse_query
from repro.storage.columnblock import ColumnBlock

from harness import Window, median, pin_workers, quantile, run_ops
from workloads import (
    PROCESSES,
    SVC_BASE,
    SVC_GROUPS,
    SVC_HIT_STATEMENTS,
    SVC_TABLE,
    SVC_TUPLES,
    SqlWorkload,
    svc_miss_sql,
    worker_busy_seconds,
)

FIXED_STRATEGIES = ("pool", "global", "rep")
PROBE_REPS = 5
SUBMIT_HITS = 200
HIT_TAIL_Q = 0.95


# -- the alternating pass --------------------------------------------------


def traced_pass(workload, cal, spans) -> tuple[Window, Window]:
    """``trace_ops`` pairs of (untraced op, traced op), a calibration
    sample between every two ops.  Alternating keeps the host's drift out
    of the tracing-overhead ratio."""
    base = Window(workload.labels)
    traced = Window(workload.labels)
    before = cal.sample()
    for op_id in range(workload.trace_ops):
        result = workload.op()
        middle = cal.sample()
        base.add(result, cal.unit(before, middle))
        result = workload.op(spans=spans, op_id=op_id)
        with spans.span("calib", op_id):
            before_next = cal.sample()
        traced.add(result, cal.unit(middle, before_next))
        before = before_next
    return base, traced


# -- direct layer calls ------------------------------------------------------


def _timed(fn, reps: int = PROBE_REPS) -> float:
    """Median seconds of ``fn()`` over ``reps`` calls."""
    taken = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        taken.append(time.perf_counter() - start)
    return median(taken)


def probe_parse(statements, spans) -> dict:
    taken = []
    with spans.span("sql.parse_query", None):
        for sql in statements:
            taken.append(_timed(lambda: parse_query(sql)))
    return {"sql.parse_us": median(taken) * 1e6}


def probe_generate_and_storage(workload, seed: int, spans) -> tuple[dict, dict]:
    """Generate the inputs afresh (timed), then take one fragment's
    ``ColumnBlock`` through a byte round trip and a row decode."""
    holder = {}

    def generate():
        holder["tables"] = workload.generate(seed)

    with spans.span("workloads.generate", None):
        generate_s = _timed(generate, reps=3)
    tables = holder["tables"]
    relation = next(iter(tables.values())).fragments[0].relation
    block, schema = relation.block, relation.schema
    with spans.span("storage.to_bytes", None):
        to_bytes_s = _timed(block.to_bytes)
    data = block.to_bytes()
    with spans.span("storage.from_bytes", None):
        from_bytes_s = _timed(lambda: ColumnBlock.from_bytes(schema, data))
    with spans.span("storage.rows_decode", None):
        start = time.perf_counter()
        relation.rows  # noqa: B018 - the first access decodes the block
        decode_s = time.perf_counter() - start
    return tables, {
        "workloads.generate_s": generate_s,
        "storage.block_bytes": len(data),
        "storage.to_bytes_ms": to_bytes_s * 1e3,
        "storage.from_bytes_ms": from_bytes_s * 1e3,
        "storage.rows_decode_ms": decode_s * 1e3,
    }


def probe_reference(workload, cal, seed, tables, corrupt, spans):
    """``reference_aggregate`` over every statement: the correctness check
    of the traced run, and what a pure per-row pass costs."""
    for table in tables.values():
        for fragment in table.fragments:
            fragment.relation.rows  # noqa: B018 - decode outside the timing
    before = cal.sample()
    with spans.span("core.reference_aggregate", None):
        start = time.perf_counter()
        problems = workload.verify(seed, corrupt=corrupt, tables=tables)
        taken = time.perf_counter() - start
    unit = cal.unit(before, cal.sample())
    return problems, {"core.reference_cu": taken / unit}


def probe_strategies(sql_workload, cal, auto_cu: float, spans, window) -> dict:
    """A few ops under each fixed strategy; ``auto`` against the best."""
    out = {}
    for strategy in FIXED_STRATEGIES:
        probe = Window(sql_workload.labels)
        with spans.span(f"costmodel.strategy.{strategy}", None):
            run_ops(sql_workload, cal, probe,
                    count=sql_workload.probe_ops, strategy=strategy)
        window.attempted += probe.attempted
        window.failed += probe.failed
        out[f"costmodel.strategy.{strategy}_cu"] = probe.p50_cu()
    out["costmodel.auto_regret"] = auto_cu / min(out.values())
    return out


# -- what the program reported during the traced ops --------------------------


def _reported(snapshot: dict, name: str):
    entry = snapshot.get(name)
    return None if entry is None else entry.get("value")


def _per_op_sum(records, pick) -> float | None:
    """Median over traced ops of the per-op sum of ``pick(statement)``;
    ``None`` when the program reported it for no statement at all."""
    sums = []
    for statements in records:
        values = [pick(s) for s in statements]
        if all(v is None for v in values):
            return None
        sums.append(sum(v for v in values if v is not None))
    return median(sums)


def _total(records, name: str, always: bool) -> float | None:
    """Sum of a program counter over every traced statement.  ``always``
    counters are written by every run, so their absence means the source
    is gone; the others are only written when the event happens."""
    values = [
        _reported(s["metrics"], name) for ops in records for s in ops
    ]
    if all(v is None for v in values):
        return None if always else 0
    return sum(v for v in values if v is not None)


def executor_metrics(records) -> dict:
    """``parallel.*`` and ``costmodel.auto_*`` from the traced ops'
    registries and worker profiles."""
    def ms(pick):
        value = _per_op_sum(records, pick)
        return None if value is None else value * 1e3

    local = ms(lambda s: _reported(s["metrics"], "mp.phase_seconds.local"))
    busy = ms(lambda s: s["busy_s"])
    rss = max((s["rss_bytes"] for ops in records for s in ops), default=0)
    return {
        "parallel.op_wall_ms": ms(lambda s: s["wall_s"]),
        "parallel.local_phase_ms": local,
        "parallel.merge_phase_ms": ms(
            lambda s: _reported(s["metrics"], "mp.phase_seconds.merge")
        ),
        "parallel.worker_wall_ms_max": busy,
        "parallel.worker_cpu_ms_sum": ms(lambda s: s["cpu_s"]),
        "parallel.dispatch_gap_ms": (
            None if local is None or busy is None else local - busy
        ),
        "parallel.attempts": _total(records, "mp.attempts", True),
        "parallel.retries": _total(records, "mp.retries", False),
        "parallel.fragments": _total(records, "mp.fragments", True),
        "parallel.groups_output": _total(records, "mp.groups_output", True),
        "parallel.worker_rss_mb": rss / (1024.0 * 1024.0) if rss else None,
        "costmodel.auto_global": _total(
            records, "mp.auto_strategy.global", False),
        "costmodel.auto_pool": _total(records, "mp.auto_strategy.pool", False),
        "costmodel.resampled": _total(
            records, "mp.auto_strategy.resampled", False),
        "costmodel.switched": sum(
            _total(records, f"mp.auto_strategy.switched_to.{s}", False)
            for s in ("pool", "global")
        ),
    }


# -- one collector per kind of workload ---------------------------------------


def collect_sql(workload, cal, seed, spans, corrupt=False):
    """Traced pass and probes for a ``run_sql`` workload.  Returns
    (layer metrics, window of every op attempted, problems)."""
    base, traced = traced_pass(workload, cal, spans)
    layer = executor_metrics(workload.trace_records)
    layer["sql.parse_us"] = median(
        [s["parse_s"] for ops in workload.trace_records for s in ops]
    ) * 1e6
    if len(workload.labels) > 1:
        for label in workload.labels:
            layer[f"parallel.shape.{label}_cu"] = median(base.cu(label))
    layer["obs.trace_overhead_ratio"] = traced.p50_cu() / base.p50_cu()

    inproc = Window(workload.labels)
    with spans.span("parallel.inproc", None):
        run_ops(workload, cal, inproc, count=workload.probe_ops, processes=1)
    layer["parallel.inproc_cu"] = inproc.p50_cu()
    layer["parallel.pool_speedup"] = inproc.p50_cu() / base.p50_cu()
    layer.update(probe_strategies(workload, cal, base.p50_cu(), spans, inproc))
    workload.stop()

    tables, stored = probe_generate_and_storage(workload, seed, spans)
    layer.update(stored)
    problems, reference = probe_reference(
        workload, cal, seed, tables, corrupt, spans)
    layer.update(reference)
    for window in (traced, inproc):
        base.attempted += window.attempted
        base.failed += window.failed
    return layer, base, problems


def _records_ms(records, key: str) -> float | None:
    values = [r[key] for r in records if r[key] is not None]
    return median(values) * 1e3 if values else None


def collect_svc(workload, cal, seed, spans, corrupt=False):
    """Traced pass against the server, then — once it has exited — the
    in-process probes of the layers a service miss passes through."""
    base, traced = traced_pass(workload, cal, spans)
    server = workload.server_metrics()
    workload.stop()

    def counted(name):
        return _reported(server, name)

    hits_ms = [w * 1e3 for w in base.extra["hit"] + traced.extra["hit"]]
    records = workload.trace_records
    miss_ms = _records_ms(records, "client_s")
    queue_ms = _records_ms(records, "queue_wait_s")
    exec_ms = _records_ms(records, "exec_s")
    layer = {
        "service.hit_p50_ms": median(hits_ms),
        "service.hit_tail_ms": quantile(hits_ms, HIT_TAIL_Q),
        "service.miss_p50_ms": miss_ms,
        "service.queue_wait_ms": queue_ms,
        "service.exec_ms": exec_ms,
        # Defined as the remainder, so the three add up to the client's
        # median miss latency exactly.
        "service.miss_overhead_ms": (
            None if None in (miss_ms, queue_ms, exec_ms)
            else miss_ms - queue_ms - exec_ms
        ),
        "service.cache_hits": counted("svc.cache.hits"),
        "service.cache_misses": counted("svc.cache.misses"),
        "service.shed": counted("svc.shed") or 0,
        "parallel.attempts": counted("mp.attempts"),
        "parallel.retries": counted("mp.retries") or 0,
        "parallel.fragments": counted("mp.fragments"),
        "parallel.groups_output": counted("mp.groups_output"),
        "obs.trace_overhead_ratio": traced.p50_cu() / base.p50_cu(),
    }
    rss = counted("mp.worker_max_rss_bytes")
    layer["parallel.worker_rss_mb"] = (
        rss / (1024.0 * 1024.0) if rss else None
    )

    layer.update(probe_parse((*SVC_HIT_STATEMENTS, svc_miss_sql(1)), spans))
    tables, stored = probe_generate_and_storage(workload, seed, spans)
    layer.update(stored)

    # QueryService.submit on a cached statement, no HTTP in the way.
    service = QueryService(ServiceConfig(processes=PROCESSES))
    service.register_table(SVC_TABLE, tables[SVC_TABLE])
    with spans.span("service.submit", None):
        service.submit(SVC_BASE)
        submit_s = _timed(lambda: service.submit(SVC_BASE), reps=SUBMIT_HITS)
    service.drain()
    layer["service.submit_hit_us"] = submit_s * 1e6
    layer["service.http_overhead_ms"] = (
        layer["service.hit_p50_ms"] - submit_s * 1e3
    )

    # The executor as a service miss drives it (strategy "pool", under the
    # service's per-query budget slice), against the same call ungoverned.
    probe = SqlWorkload(
        "svc_probe",
        {"t": dict(num_tuples=SVC_TUPLES, num_groups=SVC_GROUPS)},
        [("miss", svc_miss_sql(1), "t")],
    )
    probe.tables = {"t": tables[SVC_TABLE]}
    governed = Window(probe.labels)
    free = Window(probe.labels)
    budget = ServiceConfig().slice_bytes
    probe.op(strategy="pool")
    pin_workers()  # a new pool: the server's went with the server
    governed_records = []
    with spans.span("service.governed", None):
        for _ in range(PROBE_REPS):
            registry, profiles = MetricsRegistry(), []
            run_ops(probe, cal, governed, count=1, strategy="pool",
                    memory_budget_bytes=budget, metrics=registry,
                    profiles=profiles)
            governed_records.append([{
                "wall_s": governed.samples[-1][0]["miss"],
                "metrics": registry.snapshot(),
                "busy_s": worker_busy_seconds(profiles),
                "cpu_s": sum(p.cpu_seconds for p in profiles),
                "rss_bytes": 0,
            }])
            run_ops(probe, cal, free, count=1, strategy="pool",
                    metrics=MetricsRegistry(), profiles=[])
    layer["service.governed_ratio"] = governed.p50_cu() / free.p50_cu()
    split = executor_metrics(governed_records)
    for name in ("op_wall_ms", "local_phase_ms", "merge_phase_ms",
                 "worker_wall_ms_max", "worker_cpu_ms_sum",
                 "dispatch_gap_ms"):
        layer[f"parallel.{name}"] = split[f"parallel.{name}"]
    auto = Window(probe.labels)
    run_ops(probe, cal, auto, count=probe.probe_ops)
    layer.update(probe_strategies(probe, cal, auto.p50_cu(), spans, auto))
    probe.stop()

    problems, reference = probe_reference(
        workload, cal, seed, tables, corrupt, spans)
    problems += probe.verify(seed, tables={"t": tables[SVC_TABLE]})
    layer.update(reference)
    for window in (traced, governed, free, auto):
        base.attempted += window.attempted
        base.failed += window.failed
    return layer, base, problems
