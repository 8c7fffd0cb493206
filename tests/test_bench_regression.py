"""Tests for the bench trajectory (``results/baseline/TRAJECTORY.jsonl``)."""

from __future__ import annotations

import json

from repro.bench.regression import TRAJECTORY_FILE, append_trajectory
from repro.obs.schema import TRAJECTORY_SCHEMA


def make_entry(label, op_p50_cu=0.4):
    """One trajectory line as a change appends it: e2e medians."""
    return {
        "schema": TRAJECTORY_SCHEMA,
        "label": label,
        "benches": {
            "e2e.scan_lowS": {
                "tests": 256, "failed": 0, "wall_seconds_total": 20.0,
                "runs": 10, "op_p50_cu": op_p50_cu,
            },
        },
    }


class TestTrajectory:
    def test_append_accumulates_history(self, tmp_path):
        append_trajectory(str(tmp_path), make_entry("before"))
        append_trajectory(str(tmp_path), make_entry("after", 0.3))
        lines = (tmp_path / TRAJECTORY_FILE).read_text().splitlines()
        assert [json.loads(line)["label"] for line in lines] == [
            "before", "after",
        ]
        assert json.loads(lines[1])["benches"]["e2e.scan_lowS"][
            "op_p50_cu"] == 0.3

