"""What every exported artifact must contain, declared once: the seven
families in :data:`SCHEMAS`, keyed by schema id, in rules one checker
walks.  Problems read ``<field> must be ...``.  A file artifact is written
and read through :func:`write_artifact` and :func:`read_artifact`."""

from __future__ import annotations

import json
import math

BENCH_SCHEMA = "repro-bench/1"
RUN_SCHEMA = "repro-run/1"
DRIFT_SCHEMA = "repro-drift/1"
BASELINE_SCHEMA = "repro-baseline/1"
TRAJECTORY_SCHEMA = "repro-trajectory/1"
QLOG_SCHEMA = "repro-qlog/1"
CHROME_TRACE = "traceEvents"  # a Chrome trace is known by its event list


class SchemaError(ValueError):
    """An artifact failed schema validation; ``problems`` lists why."""

    def __init__(self, label: str, problems: list[str]) -> None:
        super().__init__(f"{label}: {len(problems)} schema problem(s): "
                         + "; ".join(problems[:5]))
        self.problems = problems


# -- the vocabulary --------------------------------------------------------
# A rule is a dict (an object's fields; a ``str`` key: every value), a
# one-item list (a list of that shape), or a ``(value, where) -> problems``
# function: the leaves and wrappers below, and two checks not per-field.


def _rule(test, what):
    return lambda v, where: [] if test(v) else [f"{where} must be {what}"]


def _int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x) -> bool:
    return (_int(x) or isinstance(x, float)) and math.isfinite(x)


NUMBER = _rule(_finite, "a finite number")
NON_NEGATIVE = _rule(lambda x: _finite(x) and x >= 0, "a non-negative number")
POSITIVE = _rule(lambda x: _finite(x) and x > 0, "a positive number")
INT = _rule(_int, "an integer")
COUNT = _rule(lambda x: _int(x) and x >= 0, "a non-negative integer")
STRING = _rule(lambda x: isinstance(x, str), "a string")
TEXT = _rule(lambda x: isinstance(x, str) and x != "", "a non-empty string")
BOOL = _rule(lambda x: isinstance(x, bool), "a boolean")
OBJECT = _rule(lambda x: isinstance(x, dict), "an object")


def one_of(*choices):
    return _rule(lambda x: x in choices, f"one of {choices}")


def optional(rule):
    """``rule``, or the field is null or absent."""
    return lambda v, where: [] if v is None else _check(rule, v, where)


def non_empty(rule):
    return lambda v, where: _check(rule, v, where) or (
        [] if v else [f"{where} must be non-empty"])


def _check(rule, value, where: str) -> list[str]:
    """The one checker: the problems in ``value`` under ``rule``."""
    if callable(rule):
        return rule(value, where)
    if isinstance(rule, list):
        if not isinstance(value, list):
            return [f"{where} must be a list"]
        items = [(f"{where}[{i}]", v, rule[0]) for i, v in enumerate(value)]
    elif not isinstance(value, dict):
        return [f"{where or 'top level'} must be an object"]
    elif str in rule:
        items = [(f"{where}[{k!r}]", v, rule[str]) for k, v in value.items()]
    else:
        prefix = f"{where}." if where else ""
        items = [(prefix + k, value.get(k), r) for k, r in rule.items()]
    return [p for at, v, r in items for p in _check(r, v, at)]


# -- the two checks that are not per-field ---------------------------------

_EVENT = {"name": STRING, "pid": INT, "tid": INT}
_TIMED = dict(_EVENT, ts=NON_NEGATIVE)
_EVENT_BY_PHASE = {
    "X": dict(_TIMED, dur=NON_NEGATIVE), "i": _TIMED, "B": _TIMED,
    "E": _TIMED, "M": dict(_EVENT, args=OBJECT),
}


def _trace_event(event, where):
    """What a Chrome trace event must carry depends on its ``ph``."""
    ph = event.get("ph") if isinstance(event, dict) else None
    shape = _EVENT_BY_PHASE.get(ph) if isinstance(ph, str) else None
    return _check(shape or {"ph": one_of(*_EVENT_BY_PHASE)}, event, where)


def _figure(fig, where):
    """A figure's fields, then every row as wide as its columns."""
    row = _rule(lambda r: isinstance(r, (list, tuple)), "a list")
    shape = {"figure": STRING, "columns": [STRING], "rows": [row]}
    return _check(shape, fig, where) or [
        f"{where}.rows[{j}] arity {len(r)} != {len(fig['columns'])} columns"
        for j, r in enumerate(fig["rows"]) if len(r) != len(fig["columns"])
    ]


# -- the table -------------------------------------------------------------

# A registry-snapshot metric, if present, by the field holding its figure.
_VALUE = optional({"value": NON_NEGATIVE})
_JSON_NAME = _rule(lambda f: isinstance(f, str) and f.endswith(".json"),
                   "a .json filename")

SCHEMAS = {
    CHROME_TRACE: {"traceEvents": non_empty([_trace_event])},
    BENCH_SCHEMA: {
        "name": TEXT, "figures": [_figure], "metrics": OBJECT,
        "tests": [{
            "nodeid": STRING, "outcome": STRING, "wall_seconds": NON_NEGATIVE,
        }],
    },
    RUN_SCHEMA: {
        "algorithm": TEXT, "elapsed_seconds": NON_NEGATIVE,
        "num_groups": COUNT, "params": OBJECT,
        # What crossing the process boundary cost a pooled mp run.
        "metrics": {
            "mp.phase_seconds.encode": _VALUE, "mp.return_bytes": _VALUE,
            "mp.phase_seconds.return": _VALUE, "mp.return.inband": _VALUE,
            "mp.worker_load_seconds": optional({"total": NON_NEGATIVE}),
        },
        "decisions": [{
            "kind": TEXT, "node": INT, "time": NON_NEGATIVE,
            "data": OBJECT, "truth": OBJECT, "span_id": optional(INT),
        }],
    },
    DRIFT_SCHEMA: {
        "algorithm": TEXT, "substrate": one_of("sim", "mp"),
        "selectivity": NUMBER, "phase_seconds": OBJECT,
        "predicted_total_seconds": NON_NEGATIVE,
        "observed_total_seconds": NON_NEGATIVE,
        "predicted_vs_observed": [{
            "family": STRING, "rel_error": optional(NUMBER),
            "predicted_seconds": NON_NEGATIVE,
            "observed_seconds": NON_NEGATIVE,
        }],
    },
    BASELINE_SCHEMA: {
        "benches": non_empty({str: _JSON_NAME}),
        "threshold": optional(POSITIVE),
    },
    TRAJECTORY_SCHEMA: {
        "label": TEXT,
        "benches": non_empty({str: {
            "tests": INT, "failed": INT, "wall_seconds_total": NUMBER,
        }}),
    },
    QLOG_SCHEMA: {
        "query_id": COUNT, "retries": COUNT, "cache_hit": BOOL,
        "sql_fingerprint": TEXT, "rung": TEXT, "strategy": TEXT,
        "outcome": one_of("served", "shed", "deadline_miss", "failed",
                          "draining"),
        "queue_wait_seconds": NON_NEGATIVE, "elapsed_seconds": NON_NEGATIVE,
        "exec_seconds": optional(NON_NEGATIVE),
        "error": optional(STRING), "reason": optional(STRING),
    },
}


def validate(doc, schema_id: str | None = None) -> list[str]:
    """Problems in ``doc`` as a ``schema_id`` artifact ([] = valid);
    without one, by its ``traceEvents`` key or its ``schema`` field."""
    if not isinstance(doc, dict):
        return ["top level must be an object"]
    declared = doc.get("schema")
    family = schema_id or (CHROME_TRACE if CHROME_TRACE in doc else declared)
    if not isinstance(family, str) or family not in SCHEMAS:
        return [f"schema must be one of {sorted(SCHEMAS)}, got {declared!r}"]
    problems = _check(SCHEMAS[family], doc, "")
    if family != CHROME_TRACE and declared != family:
        problems.insert(0, f"schema must be {family!r}, got {declared!r}")
    return problems


def validate_or_raise(doc, schema_id: str, label: str = "document") -> None:
    """Raise :class:`SchemaError` if ``doc`` is no ``schema_id`` artifact."""
    problems = validate(doc, schema_id)
    if problems:
        raise SchemaError(label, problems)


def write_artifact(doc, schema_id: str, path: str, append=False) -> str:
    """Check ``doc``, then write it to ``path`` (with ``append``, as one
    JSONL line).  NaN and infinities are refused: JSON has none."""
    validate_or_raise(doc, schema_id, label=path)
    text = json.dumps(doc, indent=None if append else 2, sort_keys=True,
                      default=str, allow_nan=False)
    with open(path, "a" if append else "w") as handle:
        handle.write(text + "\n")
    return path


def read_artifact(path: str, schema_id: str) -> dict:
    """Read, then check, a ``schema_id`` artifact."""
    with open(path) as handle:
        doc = json.load(handle)
    validate_or_raise(doc, schema_id, label=path)
    return doc


def validate_file(path: str) -> list[str]:
    """Problems in one artifact file of any family ([] = valid); each
    line of a ``.jsonl`` file is one document."""
    jsonl = path.endswith(".jsonl")
    try:
        with open(path) as handle:
            docs = ([json.loads(line) for line in handle if line.strip()]
                    if jsonl else [json.load(handle)])
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not docs:
        return ["no entries"]
    return [
        f"line {i}: {p}" if jsonl else p
        for i, doc in enumerate(docs, 1) for p in validate(doc)
    ]
