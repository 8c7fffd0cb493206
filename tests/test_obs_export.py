"""Exporters and artifact validation: Chrome trace, CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.core.runner import run_algorithm
from repro.obs import Tracer
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.schema import (
    BENCH_SCHEMA,
    CHROME_TRACE,
    SchemaError,
    validate,
    validate_or_raise,
)
from repro.obs.validate import main as validate_main


@pytest.fixture
def traced_run(small_dist, sum_query):
    tracer = Tracer()
    outcome = run_algorithm("sampling", small_dist, sum_query, tracer=tracer)
    return tracer, outcome


class TestChromeTrace:
    def test_schema_valid(self, traced_run):
        tracer, _ = traced_run
        doc = to_chrome_trace(tracer)
        assert validate(doc, CHROME_TRACE) == []

    def test_thread_metadata_per_track(self, traced_run):
        tracer, _ = traced_run
        doc = to_chrome_trace(tracer, process_name="myproc")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e for e in meta}
        assert names["process_name"]["args"]["name"] == "myproc"
        labels = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert "cluster" in labels
        assert f"node {tracer.spans[1].track}" in labels or len(labels) > 1

    def test_tid_never_negative(self, traced_run):
        tracer, _ = traced_run
        doc = to_chrome_trace(tracer)
        assert all(e["tid"] >= 0 for e in doc["traceEvents"])

    def test_timestamps_are_microseconds(self, traced_run):
        tracer, outcome = traced_run
        doc = to_chrome_trace(tracer)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        horizon = max(e["ts"] + e["dur"] for e in spans)
        assert horizon == pytest.approx(outcome.elapsed_seconds * 1e6)

    def test_unfinished_spans_closed_at_horizon(self):
        tracer = Tracer()
        tracer.begin("never_ended", track=0, t=0.0)
        tracer.complete("done", 0, 0.0, 2.0)
        doc = to_chrome_trace(tracer)
        assert validate(doc, CHROME_TRACE) == []
        (open_ev,) = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "never_ended"
        ]
        assert open_ev["args"]["unfinished"] is True
        assert open_ev["dur"] == pytest.approx(2.0 * 1e6)

    def test_write_round_trips(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        assert validate(doc, CHROME_TRACE) == []


class TestValidators:
    def test_chrome_validator_flags_garbage(self):
        assert validate({"nope": 1}, CHROME_TRACE)
        assert validate({"traceEvents": [{"ph": "X"}]}, CHROME_TRACE)

    def test_bench_validator_flags_garbage(self):
        assert validate({"schema": "other/9"}, BENCH_SCHEMA)
        good = {
            "schema": "repro-bench/1",
            "name": "x",
            "tests": [
                {"nodeid": "a::b", "outcome": "passed", "wall_seconds": 0.1}
            ],
            "figures": [],
            "metrics": {"tests": 1},
        }
        assert validate(good, BENCH_SCHEMA) == []

    def test_validate_or_raise(self):
        with pytest.raises(SchemaError) as err:
            validate_or_raise({"bad": True}, CHROME_TRACE, label="t.json")
        assert "t.json" in str(err.value)

    def test_validate_cli(self, traced_run, tmp_path):
        tracer, _ = traced_run
        good = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(good))
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": "not a list"}')
        assert validate_main([str(good)]) == 0
        assert validate_main([str(good), str(bad)]) == 1
        assert validate_main([str(tmp_path / "missing.json")]) == 1
        assert validate_main([]) == 2


class TestTraceCli:
    def test_trace_subcommand_end_to_end(self, tmp_path):
        out = io.StringIO()
        trace_path = tmp_path / "t.json"
        code = main(
            [
                "trace",
                "--algorithm", "two_phase",
                "--tuples", "2000",
                "--groups", "16",
                "--nodes", "4",
                "--out", str(trace_path),
            ],
            out=out,
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert validate(doc, CHROME_TRACE) == []
        text = out.getvalue()
        assert "spans" in text
        # Per-phase summary names the Two Phase phases.
        assert "local_aggregation" in text

    def test_no_operator_spans_shrinks_trace(self, tmp_path):
        def span_count(extra):
            out = io.StringIO()
            path = tmp_path / f"t{len(extra)}.json"
            argv = [
                "trace", "--algorithm", "two_phase",
                "--tuples", "2000", "--groups", "16", "--nodes", "4",
                "--out", str(path),
            ] + extra
            assert main(argv, out=out) == 0
            return len(json.loads(path.read_text())["traceEvents"])

        assert span_count(["--no-operator-spans"]) < span_count([])
