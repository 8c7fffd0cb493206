"""Tests for predicted-vs-observed drift reports (sim and mp substrates)."""

from __future__ import annotations

import json

from repro.core.runner import default_parameters, run_algorithm
from repro.costmodel.report import FAMILIES
from repro.obs import (
    MetricsRegistry,
    Tracer,
    compare_model_to_mp,
    compare_model_to_run,
    format_drift_table,
)
from repro.obs.drift import DriftRecord
from repro.obs.schema import DRIFT_SCHEMA, validate_or_raise
from repro.parallel import multiprocessing_aggregate


def _sim_report(dist, query, algorithm="two_phase", tracer=None, **overrides):
    outcome = run_algorithm(
        algorithm, dist, query, tracer=tracer, **overrides
    )
    params = default_parameters(dist)
    selectivity = outcome.num_groups / max(
        1, sum(len(f.relation.rows) for f in dist.fragments)
    )
    report = compare_model_to_run(
        algorithm, params, selectivity, outcome.metrics, tracer=tracer
    )
    return report, outcome


class TestSimDrift:
    def test_covers_every_family(self, small_dist, full_query):
        report, outcome = _sim_report(small_dist, full_query)
        assert [r.family for r in report.records] == list(FAMILIES)
        assert report.substrate == "sim"
        assert report.observed_total == outcome.metrics.makespan
        assert report.predicted_total > 0

    def test_observed_io_is_attributed(self, small_dist, full_query):
        report, _ = _sim_report(small_dist, full_query)
        base_io = report.record_for("base_io")
        assert base_io.observed_seconds > 0
        cpu = report.record_for("cpu")
        assert cpu.observed_seconds > 0

    def test_phase_seconds_ride_along_with_tracer(
        self, small_dist, full_query
    ):
        report, _ = _sim_report(small_dist, full_query, tracer=Tracer())
        assert report.phase_seconds
        assert all(v >= 0 for v in report.phase_seconds.values())

    def test_into_registry_publishes_gauges(self, small_dist, full_query):
        report, _ = _sim_report(small_dist, full_query)
        registry = MetricsRegistry()
        report.into_registry(registry)
        assert "drift.two_phase.total.rel_error" in registry
        for family in FAMILIES:
            name = f"drift.two_phase.{family}.rel_error"
            if report.record_for(family).rel_error != float("inf"):
                assert name in registry

    def test_to_dict_validates_and_serializes(self, small_dist, full_query):
        report, _ = _sim_report(small_dist, full_query)
        doc = report.to_dict()
        assert validate_or_raise(doc, DRIFT_SCHEMA, label="test") is None
        json.dumps(doc)  # no NaN/inf leaks

    def test_rel_error_guards_zero_prediction(self):
        assert DriftRecord("cpu", 0.0, 0.0).rel_error == 0.0
        assert DriftRecord("cpu", 0.0, 1.0).rel_error == float("inf")
        assert DriftRecord("cpu", 0.0, 1.0).to_dict()["rel_error"] is None


class TestMpDrift:
    def test_mp_totals_and_phases(self, small_dist, full_query):
        registry = MetricsRegistry()
        rows = multiprocessing_aggregate(
            small_dist, full_query, processes=2, metrics=registry
        )
        params = default_parameters(small_dist)
        report = compare_model_to_mp(
            "two_phase", params, len(rows) / 2000, registry
        )
        assert report.substrate == "mp"
        assert report.observed_total > 0
        assert set(report.phase_seconds) == {"local", "merge"}
        assert report.phase_seconds["merge"] >= 0

    def test_mp_empty_registry_is_safe(self, small_dist):
        params = default_parameters(small_dist)
        report = compare_model_to_mp(
            "two_phase", params, 0.01, MetricsRegistry()
        )
        assert report.observed_total == 0.0
        assert report.phase_seconds == {}


class TestFormatting:
    def test_table_shape(self, small_dist, full_query):
        report, _ = _sim_report(small_dist, full_query)
        text = format_drift_table(report)
        assert "== drift: two_phase (sim" in text
        for family in FAMILIES:
            assert family in text
        assert "total" in text
        assert "rel_error" in text
