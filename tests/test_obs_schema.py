"""The artifact schema table: what it refuses, and that it agrees with
every artifact the repo has committed or produces."""

from __future__ import annotations

import ast
import copy
import json
import math
import pathlib
import re

import pytest

from repro.core.runner import ALGORITHMS, default_parameters, run_algorithm
from repro.obs import (
    MetricsRegistry,
    Tracer,
    compare_model_to_run,
    mp_run_artifact,
    query_record,
    run_artifact,
    to_chrome_trace,
)
from repro.obs import schema
from repro.obs.schema import (
    CHROME_TRACE,
    DRIFT_SCHEMA,
    QLOG_SCHEMA,
    RUN_SCHEMA,
    SCHEMAS,
    TRAJECTORY_SCHEMA,
    validate,
    write_artifact,
)
from repro.parallel import multiprocessing_aggregate, shutdown_worker_pool

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One small valid document per family.  Every number in them is a field
# the table checks, so walking them finds every numeric field.
_GOOD = {
    CHROME_TRACE: {"traceEvents": [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0, "args": {}},
        {"ph": "X", "name": "scan", "pid": 0, "tid": 1, "ts": 0.0,
         "dur": 2.5},
        {"ph": "i", "name": "switch", "pid": 0, "tid": 1, "ts": 1.0},
    ]},
    RUN_SCHEMA: {
        "schema": RUN_SCHEMA, "algorithm": "mp", "elapsed_seconds": 0.25,
        "num_groups": 3, "params": {},
        "metrics": {
            "mp.phase_seconds.encode": {"value": 0.01},
            "mp.phase_seconds.return": {"value": 0.02},
            "mp.return_bytes": {"value": 512},
            "mp.return.inband": {"value": 0},
            "mp.worker_load_seconds": {"total": 0.03},
        },
        "decisions": [{
            "kind": "sampling_decision", "node": 0, "time": 0.5,
            "data": {}, "truth": {}, "span_id": 4,
        }],
    },
    DRIFT_SCHEMA: {
        "schema": DRIFT_SCHEMA, "algorithm": "two_phase", "substrate": "sim",
        "selectivity": 0.01, "phase_seconds": {},
        "predicted_total_seconds": 1.0, "observed_total_seconds": 1.5,
        "predicted_vs_observed": [{
            "family": "cpu", "predicted_seconds": 1.0,
            "observed_seconds": 1.5, "rel_error": 0.5,
        }],
    },
    TRAJECTORY_SCHEMA: {
        "schema": TRAJECTORY_SCHEMA, "label": "seed",
        "benches": {
            "demo": {"tests": 1, "failed": 0, "wall_seconds_total": 2.0}
        },
    },
    QLOG_SCHEMA: {
        "schema": QLOG_SCHEMA, "query_id": 7, "sql_fingerprint": "abc",
        "outcome": "served", "queue_wait_seconds": 0.001,
        "elapsed_seconds": 0.01, "exec_seconds": 0.005, "rung": "full",
        "strategy": "pool", "cache_hit": False, "retries": 0,
        "error": None, "reason": None,
    },
}

# Keys whose absence is allowed: optional fields, and the one entry of a
# map (removing it leaves the map empty, which is reported as such).
_NOT_REQUIRED = {
    "exec_seconds", "error", "reason", "span_id", "rel_error",
    "mp.phase_seconds.encode", "mp.phase_seconds.return", "mp.return_bytes",
    "mp.return.inband",
    "mp.worker_load_seconds", "demo",
}


def _paths(doc, prefix=()):
    """Every (path, value) below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _numeric_fields():
    for family, doc in _GOOD.items():
        for path, value in _paths(doc):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield pytest.param(family, path, id=f"{family}:{path}")


def _required_fields():
    for family, doc in _GOOD.items():
        for path, _ in _paths(doc):
            if isinstance(path[-1], str) and path[-1] not in _NOT_REQUIRED:
                yield pytest.param(family, path, id=f"{family}:{path}")


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def test_the_good_documents_are_good():
    assert set(_GOOD) == set(SCHEMAS)
    for family, doc in _GOOD.items():
        assert validate(doc, family) == [], family
        assert validate(doc) == [], family  # the family sniffed, too


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
@pytest.mark.parametrize("family, path", list(_numeric_fields()))
def test_non_finite_and_boolean_numbers_are_refused(family, path, bad):
    doc = copy.deepcopy(_GOOD[family])
    _at(doc, path)[path[-1]] = bad
    problems = validate(doc, family)
    assert any(f"{path[-1]} must be" in p for p in problems), problems


@pytest.mark.parametrize("family, path", list(_required_fields()))
def test_a_missing_required_field_is_named(family, path):
    doc = copy.deepcopy(_GOOD[family])
    del _at(doc, path)[path[-1]]
    problems = validate(doc, family)
    assert any(f"{path[-1]} must be" in p for p in problems), problems


def test_the_writer_refuses_what_json_cannot_hold(tmp_path):
    doc = copy.deepcopy(_GOOD[RUN_SCHEMA])
    doc["params"] = {"free": math.nan}  # a field the table leaves free
    path = tmp_path / "run.json"
    with pytest.raises(ValueError):
        write_artifact(doc, RUN_SCHEMA, str(path))
    assert not path.exists()


# -- the table cannot drift from its producers ------------------------------


def _committed():
    trajectory = ROOT / "results" / "baseline" / "TRAJECTORY.jsonl"
    for n, line in enumerate(trajectory.read_text().splitlines(), 1):
        yield pytest.param(line, id=f"TRAJECTORY.jsonl:{n}")


@pytest.mark.parametrize("line", list(_committed()))
def test_every_committed_artifact_validates(line):
    assert validate(json.loads(line), TRAJECTORY_SCHEMA) == []


@pytest.fixture(scope="module")
def sim_dist():
    from repro.workloads.generator import generate_uniform

    return generate_uniform(
        num_tuples=4000, num_groups=400, num_nodes=4, seed=3
    )


@pytest.fixture(scope="module")
def sum_by_gkey():
    from repro.core.aggregates import AggregateSpec
    from repro.core.query import AggregateQuery

    return AggregateQuery(("gkey",), (AggregateSpec("sum", "val"),))


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fresh_sim_run_artifacts_validate(
    algorithm, sim_dist, sum_by_gkey, tmp_path
):
    outcome = run_algorithm(algorithm, sim_dist, sum_by_gkey)
    doc = run_artifact(algorithm, outcome, default_parameters(sim_dist))
    write_artifact(doc, RUN_SCHEMA, str(tmp_path / "run.json"))
    assert validate(doc, RUN_SCHEMA) == []


def test_fresh_trace_drift_and_qlog_validate(sim_dist, sum_by_gkey):
    tracer = Tracer()
    outcome = run_algorithm(
        "two_phase", sim_dist, sum_by_gkey, tracer=tracer
    )
    assert validate(to_chrome_trace(tracer), CHROME_TRACE) == []
    params = default_parameters(sim_dist)
    report = compare_model_to_run(
        "two_phase", params, outcome.num_groups / params.num_tuples,
        outcome.metrics, tracer=tracer,
    )
    assert validate(report.to_dict(), DRIFT_SCHEMA) == []
    record = query_record(
        query_id=1, sql="SELECT 1", outcome="shed",
        queue_wait_seconds=0.0, elapsed_seconds=0.001, reason="queue_full",
    )
    assert validate(record, QLOG_SCHEMA) == []


def test_fresh_pooled_mp_run_artifact_validates(sim_dist, sum_by_gkey):
    registry = MetricsRegistry()
    try:
        multiprocessing_aggregate(sim_dist, sum_by_gkey, 2, metrics=registry)
    finally:
        shutdown_worker_pool()
    doc = mp_run_artifact(registry)
    assert "mp.return_bytes" in doc["metrics"]
    assert validate(doc, RUN_SCHEMA) == []


# -- every artifact is declared once ------------------------------------------

_RETIRED = re.compile(
    r"validate_(chrome|bench|run|drift|baseline|trajectory|qlog)"
)


def test_artifacts_are_declared_once():
    """Each schema id is written once under ``src/``, in the table's
    module, and no per-family validator (or alias of one) is left."""
    ids = [value for name, value in vars(schema).items()
           if name.endswith("_SCHEMA")]
    assert len(ids) == 4
    seen = {schema_id: [] for schema_id in ids}
    retired = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in seen:
                seen[node.value].append(path.name)
            names = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name):
                names = [node.id] if isinstance(node.ctx, ast.Store) else []
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname or ""]
            retired += [n for n in names if _RETIRED.match(n)]
    assert seen == {schema_id: ["schema.py"] for schema_id in ids}
    assert retired == []
