"""The bench trajectory: ``results/baseline/TRAJECTORY.jsonl``.

An append-only history, one ``repro-trajectory/1`` line per entry: a
label and, per bench, its test counts and wall seconds.  Every merged
change appends the medians of its end-to-end runs
(``benchmarks/e2e/run.py``) as ``e2e.<workload>`` benches, so speed is
read as a series of absolute figures, not a verdict against a pinned
copy.
"""

from __future__ import annotations

import os

from repro.obs.schema import TRAJECTORY_SCHEMA, write_artifact

TRAJECTORY_FILE = "TRAJECTORY.jsonl"


def append_trajectory(baseline_dir: str, entry: dict) -> str:
    """Append one validated entry to the baseline's trajectory file."""
    path = os.path.join(baseline_dir, TRAJECTORY_FILE)
    return write_artifact(entry, TRAJECTORY_SCHEMA, path, append=True)
