"""Tests for the bench regression gate (baseline, compare, trajectory)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.regression import (
    STATUS_IMPROVED,
    STATUS_OK,
    STATUS_REGRESSION,
    append_trajectory,
    compare_docs,
    compare_to_baseline,
    format_delta_table,
    has_regression,
    load_index,
    seed_baseline,
    trajectory_entry,
)
from repro.obs.schema import TRAJECTORY_SCHEMA, SchemaError, validate_or_raise


def make_bench_doc(name="demo", cell=10.0, failed=0, wall=5.0):
    return {
        "schema": "repro-bench/1",
        "name": name,
        "tests": [
            {
                "nodeid": f"benchmarks/bench_{name}.py::test_{name}",
                "outcome": "passed",
                "wall_seconds": wall,
            }
        ],
        "figures": [
            {
                "figure": "fig_demo",
                "columns": ["selectivity", "two_phase", "repartitioning"],
                "rows": [
                    [0.01, cell, cell * 2],
                    [0.5, cell * 3, cell * 4],
                ],
            }
        ],
        "metrics": {
            "tests": 1,
            "failed": failed,
            "figures": 1,
            "wall_seconds_total": wall,
        },
    }


def write_results(results_dir, docs):
    results_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(doc))


class TestCompareDocs:
    def test_identical_docs_are_clean(self):
        doc = make_bench_doc()
        deltas = compare_docs("demo", doc, copy.deepcopy(doc), 0.10)
        assert not has_regression(deltas)
        assert all(d.status == STATUS_OK for d in deltas)

    def test_cell_increase_beyond_threshold_regresses(self):
        base = make_bench_doc(cell=10.0)
        cur = make_bench_doc(cell=12.0)  # +20% on every figure cell
        deltas = compare_docs("demo", base, cur, 0.10)
        assert has_regression(deltas)
        bad = [d for d in deltas if d.status == STATUS_REGRESSION]
        assert all("fig_demo[" in d.where for d in bad)
        assert all(d.rel_change == pytest.approx(0.2) for d in bad)

    def test_cell_decrease_is_improvement_not_failure(self):
        base = make_bench_doc(cell=10.0)
        cur = make_bench_doc(cell=8.0)  # -20%
        deltas = compare_docs("demo", base, cur, 0.10)
        assert not has_regression(deltas)
        assert any(d.status == STATUS_IMPROVED for d in deltas)

    def test_within_threshold_is_ok(self):
        deltas = compare_docs(
            "demo", make_bench_doc(cell=10.0), make_bench_doc(cell=10.5),
            0.10,
        )
        assert not has_regression(deltas)

    def test_new_test_failure_gates_absolutely(self):
        deltas = compare_docs(
            "demo", make_bench_doc(failed=0), make_bench_doc(failed=1),
            0.10,
        )
        failed = [d for d in deltas if d.where == "metrics.failed"]
        assert failed[0].status == STATUS_REGRESSION

    def test_wall_seconds_gated_only_on_request(self):
        base = make_bench_doc(wall=5.0)
        cur = make_bench_doc(wall=50.0)  # 10x slower wall clock
        ungated = compare_docs("demo", base, cur, 0.10)
        assert not has_regression(ungated)
        gated = compare_docs(
            "demo", base, cur, 0.10, wall_threshold=0.5
        )
        wall = [d for d in gated if d.where == "metrics.wall_seconds_total"]
        assert wall[0].status == STATUS_REGRESSION

    def test_missing_row_and_cell_regress(self):
        base = make_bench_doc()
        cur = copy.deepcopy(base)
        del cur["figures"][0]["rows"][1]  # row vanished
        cur["figures"][0]["columns"] = cur["figures"][0]["columns"][:2]
        cur["figures"][0]["rows"] = [
            row[:2] for row in cur["figures"][0]["rows"]
        ]  # column vanished
        deltas = compare_docs("demo", base, cur, 0.10)
        assert has_regression(deltas)


class TestBaselineLifecycle:
    def test_seed_then_clean_compare(self, tmp_path):
        results = tmp_path / "results"
        baseline = tmp_path / "results" / "baseline"
        write_results(results, {"demo": make_bench_doc()})
        index = seed_baseline(str(results), str(baseline), ["demo"])
        assert index["benches"] == {"demo": "BENCH_demo.json"}
        assert load_index(str(baseline))["threshold"] == 0.10

        deltas, missing = compare_to_baseline(str(results), str(baseline))
        assert not missing
        assert not has_regression(deltas)

    def test_injected_regression_detected(self, tmp_path):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        write_results(results, {"demo": make_bench_doc(cell=10.0)})
        seed_baseline(str(results), str(baseline), ["demo"])
        write_results(results, {"demo": make_bench_doc(cell=15.0)})
        deltas, _ = compare_to_baseline(str(results), str(baseline))
        assert has_regression(deltas)

    def test_missing_artifact_reported(self, tmp_path):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        write_results(results, {"demo": make_bench_doc()})
        seed_baseline(str(results), str(baseline), ["demo"])
        (results / "BENCH_demo.json").unlink()
        deltas, missing = compare_to_baseline(str(results), str(baseline))
        assert missing == ["demo"]
        assert deltas == []

    def test_explicit_threshold_overrides_index(self, tmp_path):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        write_results(results, {"demo": make_bench_doc(cell=10.0)})
        seed_baseline(str(results), str(baseline), ["demo"], threshold=0.5)
        write_results(results, {"demo": make_bench_doc(cell=12.0)})
        lax, _ = compare_to_baseline(str(results), str(baseline))
        assert not has_regression(lax)  # index threshold 0.5 tolerates +20%
        strict, _ = compare_to_baseline(
            str(results), str(baseline), threshold=0.1
        )
        assert has_regression(strict)

    def test_corrupt_baseline_raises_schema_error(self, tmp_path):
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        (baseline / "INDEX.json").write_text('{"schema": "nope"}')
        with pytest.raises(SchemaError):
            load_index(str(baseline))


class TestTrajectory:
    def test_seed_writes_first_entry(self, tmp_path):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        write_results(results, {"demo": make_bench_doc()})
        seed_baseline(str(results), str(baseline), ["demo"], label="seed")
        lines = (
            (baseline / "TRAJECTORY.jsonl").read_text().splitlines()
        )
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["label"] == "seed"
        assert validate_or_raise(entry, TRAJECTORY_SCHEMA) is None

    def test_append_accumulates_history(self, tmp_path):
        results = tmp_path / "results"
        baseline = tmp_path / "baseline"
        write_results(results, {"demo": make_bench_doc()})
        seed_baseline(str(results), str(baseline), ["demo"])
        entry = trajectory_entry("after-pr", {"demo": make_bench_doc()})
        append_trajectory(str(baseline), entry)
        lines = (
            (baseline / "TRAJECTORY.jsonl").read_text().splitlines()
        )
        assert len(lines) == 2
        assert json.loads(lines[1])["label"] == "after-pr"

    def test_entry_summarizes_metrics(self):
        entry = trajectory_entry(
            "x", {"demo": make_bench_doc(failed=2, wall=7.5)}
        )
        summary = entry["benches"]["demo"]
        assert summary["failed"] == 2
        assert summary["wall_seconds_total"] == 7.5
        assert summary["tests"] == 1


class TestDeltaTable:
    def test_regressions_sort_first_and_summary_counts(self):
        deltas = compare_docs(
            "demo", make_bench_doc(cell=10.0), make_bench_doc(cell=15.0),
            0.10,
        )
        text = format_delta_table(deltas)
        first_data_line = text.splitlines()[1]
        assert first_data_line.startswith("regression")
        assert "4 regression(s)" in text
        assert text.splitlines()[-1].startswith("summary:")

    def test_only_interesting_hides_ok_rows(self):
        doc = make_bench_doc()
        deltas = compare_docs("demo", doc, copy.deepcopy(doc), 0.10)
        text = format_delta_table(deltas, only_interesting=True)
        # All deltas are ok: only the header and the summary remain.
        assert len(text.splitlines()) == 2
        assert "0 regression(s)" in text

    def test_missing_names_listed(self):
        text = format_delta_table([], missing=["fig9"])
        assert "missing current artifacts: fig9" in text
