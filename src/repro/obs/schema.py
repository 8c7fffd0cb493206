"""Dependency-free schema validation for exported artifacts.

Seven artifact families leave the repo: Chrome trace JSON (``repro
trace``), ``BENCH_<name>.json`` (the benchmark harness), ``repro-run/1``
run artifacts with the decision ledger (``repro explain``),
``repro-drift/1`` predicted-vs-observed reports, the committed
``results/baseline/INDEX.json`` bench baseline, the appendable
``TRAJECTORY.jsonl`` entries, and the query service's ``repro-qlog/1``
structured query log.  CI and the tests validate all of them
with the checkers here — hand-rolled on purpose, so validation works in
any environment the code itself runs in.

Each validator returns a list of human-readable problems; an empty list
means the document conforms.  ``validate_or_raise`` wraps that in a
:class:`SchemaError` for script use (``python -m repro.obs.validate``).
"""

from __future__ import annotations

BENCH_SCHEMA = "repro-bench/1"
RUN_SCHEMA = "repro-run/1"
DRIFT_SCHEMA = "repro-drift/1"
BASELINE_SCHEMA = "repro-baseline/1"
TRAJECTORY_SCHEMA = "repro-trajectory/1"
QLOG_SCHEMA = "repro-qlog/1"

QLOG_OUTCOMES = ("served", "shed", "deadline_miss", "failed", "draining")

_CHROME_PHASES = {"X", "i", "M", "B", "E"}


class SchemaError(ValueError):
    """An artifact failed schema validation; ``problems`` lists why."""

    def __init__(self, label: str, problems: list[str]) -> None:
        super().__init__(
            f"{label}: {len(problems)} schema problem(s): "
            + "; ".join(problems[:5])
            + ("; ..." if len(problems) > 5 else "")
        )
        self.problems = problems


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate_chrome_trace(doc) -> list[str]:
    """Problems in a Chrome trace_event JSON document ([] = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["top level must be an object with a traceEvents array"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in _CHROME_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: name must be a string")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        if ph in ("X", "i", "B", "E"):
            if not _number(ev.get("ts")):
                problems.append(f"{where}: ts must be a number")
            elif ev["ts"] < 0:
                problems.append(f"{where}: ts must be non-negative")
        if ph == "X":
            if not _number(ev.get("dur")):
                problems.append(f"{where}: dur must be a number")
            elif ev["dur"] < 0:
                problems.append(f"{where}: dur must be non-negative")
        if ph == "M" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: metadata event needs args")
    return problems


def validate_bench_json(doc) -> list[str]:
    """Problems in a BENCH_<name>.json document ([] = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema must be {BENCH_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        problems.append("name must be a non-empty string")
    tests = doc.get("tests")
    if not isinstance(tests, list):
        problems.append("tests must be a list")
        tests = []
    for i, t in enumerate(tests):
        where = f"tests[{i}]"
        if not isinstance(t, dict):
            problems.append(f"{where} is not an object")
            continue
        if not isinstance(t.get("nodeid"), str):
            problems.append(f"{where}: nodeid must be a string")
        if not isinstance(t.get("outcome"), str):
            problems.append(f"{where}: outcome must be a string")
        if not _number(t.get("wall_seconds")) or t["wall_seconds"] < 0:
            problems.append(
                f"{where}: wall_seconds must be a non-negative number"
            )
    figures = doc.get("figures")
    if not isinstance(figures, list):
        problems.append("figures must be a list")
        figures = []
    for i, fig in enumerate(figures):
        where = f"figures[{i}]"
        if not isinstance(fig, dict):
            problems.append(f"{where} is not an object")
            continue
        columns = fig.get("columns")
        if not (
            isinstance(columns, list)
            and all(isinstance(c, str) for c in columns)
        ):
            problems.append(f"{where}: columns must be a list of strings")
            continue
        if not isinstance(fig.get("figure"), str):
            problems.append(f"{where}: figure must be a string")
        rows = fig.get("rows")
        if not isinstance(rows, list):
            problems.append(f"{where}: rows must be a list")
            continue
        for j, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                problems.append(f"{where}.rows[{j}] is not a list")
            elif len(row) != len(columns):
                problems.append(
                    f"{where}.rows[{j}] arity {len(row)} != "
                    f"{len(columns)} columns"
                )
    if not isinstance(doc.get("metrics"), dict):
        problems.append("metrics must be an object")
    return problems


# What crossing the process boundary cost an mp run, as its registry
# snapshot carries it: metric name -> the snapshot field with the figure.
_MP_BOUNDARY_METRICS = {
    "mp.phase_seconds.encode": "value",
    "mp.phase_seconds.return": "value",
    "mp.return_bytes": "value",
    "mp.worker_load_seconds": "total",
}


def validate_run_json(doc) -> list[str]:
    """Problems in a ``repro-run/1`` decision-ledger artifact ([] = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    if doc.get("schema") != RUN_SCHEMA:
        problems.append(
            f"schema must be {RUN_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("algorithm"), str) or not doc.get("algorithm"):
        problems.append("algorithm must be a non-empty string")
    if not _number(doc.get("elapsed_seconds")) or doc["elapsed_seconds"] < 0:
        problems.append("elapsed_seconds must be a non-negative number")
    num_groups = doc.get("num_groups")
    if not isinstance(num_groups, int) or isinstance(num_groups, bool):
        problems.append("num_groups must be an integer")
    elif num_groups < 0:
        problems.append("num_groups must be non-negative")
    if not isinstance(doc.get("params"), dict):
        problems.append("params must be an object")
    if not isinstance(doc.get("metrics"), dict):
        problems.append("metrics must be an object")
    else:
        for name, field in _MP_BOUNDARY_METRICS.items():
            metric = doc["metrics"].get(name)
            if metric is None:
                continue
            figure = metric.get(field) if isinstance(metric, dict) else None
            if not _number(figure) or figure < 0:
                problems.append(
                    f"metrics[{name!r}].{field} must be a non-negative "
                    "number"
                )
    decisions = doc.get("decisions")
    if not isinstance(decisions, list):
        problems.append("decisions must be a list")
        decisions = []
    for i, event in enumerate(decisions):
        where = f"decisions[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where} is not an object")
            continue
        if not isinstance(event.get("kind"), str) or not event.get("kind"):
            problems.append(f"{where}: kind must be a non-empty string")
        node = event.get("node")
        if not isinstance(node, int) or isinstance(node, bool):
            problems.append(f"{where}: node must be an integer")
        if not _number(event.get("time")) or event["time"] < 0:
            problems.append(f"{where}: time must be a non-negative number")
        for key in ("data", "truth"):
            if not isinstance(event.get(key), dict):
                problems.append(f"{where}: {key} must be an object")
        span_id = event.get("span_id")
        if span_id is not None and (
            not isinstance(span_id, int) or isinstance(span_id, bool)
        ):
            problems.append(f"{where}: span_id must be an integer or null")
    return problems


def validate_drift_json(doc) -> list[str]:
    """Problems in a ``repro-drift/1`` report ([] = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    if doc.get("schema") != DRIFT_SCHEMA:
        problems.append(
            f"schema must be {DRIFT_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("algorithm"), str) or not doc.get("algorithm"):
        problems.append("algorithm must be a non-empty string")
    if doc.get("substrate") not in ("sim", "mp"):
        problems.append(
            f"substrate must be 'sim' or 'mp', got {doc.get('substrate')!r}"
        )
    if not _number(doc.get("selectivity")):
        problems.append("selectivity must be a number")
    for key in ("predicted_total_seconds", "observed_total_seconds"):
        if not _number(doc.get(key)) or doc[key] < 0:
            problems.append(f"{key} must be a non-negative number")
    records = doc.get("predicted_vs_observed")
    if not isinstance(records, list):
        problems.append("predicted_vs_observed must be a list")
        records = []
    for i, record in enumerate(records):
        where = f"predicted_vs_observed[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where} is not an object")
            continue
        if not isinstance(record.get("family"), str):
            problems.append(f"{where}: family must be a string")
        for key in ("predicted_seconds", "observed_seconds"):
            if not _number(record.get(key)) or record[key] < 0:
                problems.append(
                    f"{where}: {key} must be a non-negative number"
                )
        rel = record.get("rel_error")
        if rel is not None and not _number(rel):
            problems.append(f"{where}: rel_error must be a number or null")
    if not isinstance(doc.get("phase_seconds"), dict):
        problems.append("phase_seconds must be an object")
    return problems


def validate_baseline_index(doc) -> list[str]:
    """Problems in a ``results/baseline/INDEX.json`` document ([] = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    if doc.get("schema") != BASELINE_SCHEMA:
        problems.append(
            f"schema must be {BASELINE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        problems.append("benches must be a non-empty object")
        benches = {}
    for name, filename in benches.items():
        if not isinstance(filename, str) or not filename.endswith(".json"):
            problems.append(
                f"benches[{name!r}] must be a .json filename, "
                f"got {filename!r}"
            )
    threshold = doc.get("threshold")
    if threshold is not None and (
        not _number(threshold) or threshold <= 0
    ):
        problems.append("threshold must be a positive number or absent")
    return problems


def validate_trajectory_entry(doc) -> list[str]:
    """Problems in one ``TRAJECTORY.jsonl`` line ([] = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["entry must be an object"]
    if doc.get("schema") != TRAJECTORY_SCHEMA:
        problems.append(
            f"schema must be {TRAJECTORY_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("label"), str) or not doc.get("label"):
        problems.append("label must be a non-empty string")
    benches = doc.get("benches")
    if not isinstance(benches, dict) or not benches:
        problems.append("benches must be a non-empty object")
        benches = {}
    for name, summary in benches.items():
        where = f"benches[{name!r}]"
        if not isinstance(summary, dict):
            problems.append(f"{where} is not an object")
            continue
        for key in ("tests", "failed"):
            value = summary.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{where}: {key} must be an integer")
        if not _number(summary.get("wall_seconds_total")):
            problems.append(f"{where}: wall_seconds_total must be a number")
    return problems


def validate_qlog_record(doc) -> list[str]:
    """Problems in one ``repro-qlog/1`` query-log line ([] = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["record must be an object"]
    if doc.get("schema") != QLOG_SCHEMA:
        problems.append(
            f"schema must be {QLOG_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    query_id = doc.get("query_id")
    if not isinstance(query_id, int) or isinstance(query_id, bool):
        problems.append("query_id must be an integer")
    elif query_id < 0:
        problems.append("query_id must be non-negative")
    fingerprint = doc.get("sql_fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        problems.append("sql_fingerprint must be a non-empty string")
    if doc.get("outcome") not in QLOG_OUTCOMES:
        problems.append(
            f"outcome must be one of {QLOG_OUTCOMES}, "
            f"got {doc.get('outcome')!r}"
        )
    for key in ("queue_wait_seconds", "elapsed_seconds"):
        if not _number(doc.get(key)) or doc[key] < 0:
            problems.append(f"{key} must be a non-negative number")
    exec_seconds = doc.get("exec_seconds")
    if exec_seconds is not None and (
        not _number(exec_seconds) or exec_seconds < 0
    ):
        problems.append(
            "exec_seconds must be a non-negative number or null"
        )
    for key in ("rung", "strategy"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            problems.append(f"{key} must be a non-empty string")
    if not isinstance(doc.get("cache_hit"), bool):
        problems.append("cache_hit must be a boolean")
    retries = doc.get("retries")
    if not isinstance(retries, int) or isinstance(retries, bool):
        problems.append("retries must be an integer")
    elif retries < 0:
        problems.append("retries must be non-negative")
    for key in ("error", "reason"):
        value = doc.get(key)
        if value is not None and not isinstance(value, str):
            problems.append(f"{key} must be a string or null")
    return problems


def validate_or_raise(doc, kind: str, label: str = "document") -> None:
    """Raise :class:`SchemaError` if ``doc`` fails the ``kind`` check."""
    validators = {
        "chrome": validate_chrome_trace,
        "bench": validate_bench_json,
        "run": validate_run_json,
        "drift": validate_drift_json,
        "baseline": validate_baseline_index,
        "trajectory": validate_trajectory_entry,
        "qlog": validate_qlog_record,
    }
    problems = validators[kind](doc)
    if problems:
        raise SchemaError(label, problems)
