"""The bench regression gate: compare BENCH artifacts against a baseline.

``results/BENCH_<name>.json`` artifacts (schema ``repro-bench/1``) have
been emitted since PR 3, but nothing consumed them — the bench
trajectory was empty and a perf regression would sail through CI.  This
module closes that loop:

``results/baseline/`` (committed)
    ``INDEX.json`` (schema ``repro-baseline/1``) naming the benches
    under gate and the regression threshold, one pinned copy of each
    ``BENCH_<name>.json``, and ``TRAJECTORY.jsonl`` — an append-only
    history of bench summaries (schema ``repro-trajectory/1`` per line).

``compare_to_baseline``
    Joins current artifacts against the pinned ones.  The reliable
    regression signal is the *figure cells*: simulated elapsed seconds
    are deterministic, so any relative increase beyond the threshold is
    a real algorithmic/model change, not noise.  Failed-test counts
    gate absolutely.  Wall-clock seconds are reported but only gated
    when an explicit ``wall_threshold`` is supplied (CI machines are
    noisy).  Decreases beyond the threshold are reported as
    improvements — visible, never fatal.

Exit semantics for the CLI (``repro bench compare``): 0 = within
threshold, 1 = regression, 2 = usage/IO error.
"""

from __future__ import annotations

import os

from repro.obs.schema import (
    BASELINE_SCHEMA,
    BENCH_SCHEMA,
    TRAJECTORY_SCHEMA,
    read_artifact,
    write_artifact,
)

DEFAULT_THRESHOLD = 0.10  # 10% relative increase in a figure cell
INDEX_FILE = "INDEX.json"
TRAJECTORY_FILE = "TRAJECTORY.jsonl"

STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVED = "improved"


class RegressionDelta:
    """One compared quantity: where it lives, both values, the verdict."""

    __slots__ = ("bench", "where", "baseline", "current", "status")

    def __init__(self, bench, where, baseline, current, status):
        self.bench = bench
        self.where = where
        self.baseline = baseline
        self.current = current
        self.status = status

    @property
    def rel_change(self) -> float:
        if self.baseline:
            return (self.current - self.baseline) / abs(self.baseline)
        return 0.0 if self.current == self.baseline else float("inf")

    def to_dict(self) -> dict:
        rel = self.rel_change
        return {
            "bench": self.bench,
            "where": self.where,
            "baseline": self.baseline,
            "current": self.current,
            "rel_change": None if rel == float("inf") else rel,
            "status": self.status,
        }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_index(baseline_dir: str) -> dict:
    """Read and validate ``results/baseline/INDEX.json``."""
    path = os.path.join(baseline_dir, INDEX_FILE)
    return read_artifact(path, BASELINE_SCHEMA)


def _figure_rows(doc: dict) -> dict:
    """{(figure, row_key): {column: numeric value}} for one bench doc."""
    cells: dict = {}
    for fig in doc.get("figures", []):
        columns = fig["columns"]
        for row in fig["rows"]:
            key = (fig["figure"], str(row[0]))
            values = {}
            for col, value in zip(columns[1:], row[1:]):
                if _is_number(value):
                    values[col] = float(value)
            cells[key] = values
    return cells


def compare_docs(
    name: str,
    baseline_doc: dict,
    current_doc: dict,
    threshold: float,
    wall_threshold: float | None = None,
) -> list[RegressionDelta]:
    """All deltas between one bench's baseline and current artifacts."""
    deltas: list[RegressionDelta] = []

    base_failed = int(baseline_doc["metrics"].get("failed", 0))
    cur_failed = int(current_doc["metrics"].get("failed", 0))
    deltas.append(
        RegressionDelta(
            name,
            "metrics.failed",
            base_failed,
            cur_failed,
            STATUS_REGRESSION if cur_failed > base_failed else STATUS_OK,
        )
    )

    base_wall = float(baseline_doc["metrics"].get("wall_seconds_total", 0.0))
    cur_wall = float(current_doc["metrics"].get("wall_seconds_total", 0.0))
    wall_status = STATUS_OK
    if wall_threshold is not None and base_wall > 0:
        if (cur_wall - base_wall) / base_wall > wall_threshold:
            wall_status = STATUS_REGRESSION
    deltas.append(
        RegressionDelta(
            name, "metrics.wall_seconds_total", base_wall, cur_wall,
            wall_status,
        )
    )

    base_cells = _figure_rows(baseline_doc)
    cur_cells = _figure_rows(current_doc)
    for key in sorted(base_cells):
        figure, row_key = key
        if key not in cur_cells:
            deltas.append(
                RegressionDelta(
                    name, f"{figure}[{row_key}]", 1.0, 0.0,
                    STATUS_REGRESSION,
                )
            )
            continue
        for col, base_value in sorted(base_cells[key].items()):
            cur_value = cur_cells[key].get(col)
            where = f"{figure}[{row_key}].{col}"
            if cur_value is None:
                deltas.append(
                    RegressionDelta(
                        name, where, base_value, 0.0, STATUS_REGRESSION
                    )
                )
                continue
            if base_value > 0:
                rel = (cur_value - base_value) / base_value
            else:
                rel = 0.0 if cur_value == base_value else float("inf")
            if rel > threshold:
                status = STATUS_REGRESSION
            elif rel < -threshold:
                status = STATUS_IMPROVED
            else:
                status = STATUS_OK
            deltas.append(
                RegressionDelta(name, where, base_value, cur_value, status)
            )
    return deltas


def compare_to_baseline(
    results_dir: str,
    baseline_dir: str,
    threshold: float | None = None,
    wall_threshold: float | None = None,
) -> tuple[list[RegressionDelta], list[str]]:
    """Compare every indexed bench; returns (deltas, missing-artifact names).

    A bench listed in the index but absent from ``results_dir`` counts
    as missing (the caller decides whether that fails the gate — CI
    does, since the benches just ran).
    """
    index = load_index(baseline_dir)
    if threshold is None:
        threshold = float(index.get("threshold", DEFAULT_THRESHOLD))
    deltas: list[RegressionDelta] = []
    missing: list[str] = []
    for name, filename in sorted(index["benches"].items()):
        baseline_doc = read_artifact(
            os.path.join(baseline_dir, filename), BENCH_SCHEMA
        )
        current_path = os.path.join(results_dir, f"BENCH_{name}.json")
        if not os.path.exists(current_path):
            missing.append(name)
            continue
        current_doc = read_artifact(current_path, BENCH_SCHEMA)
        deltas.extend(
            compare_docs(
                name, baseline_doc, current_doc, threshold, wall_threshold
            )
        )
    return deltas, missing


def has_regression(deltas: list[RegressionDelta]) -> bool:
    """True when any delta crossed the gate (improvements never do)."""
    return any(d.status == STATUS_REGRESSION for d in deltas)


def format_delta_table(
    deltas: list[RegressionDelta],
    missing: list[str] | None = None,
    only_interesting: bool = False,
) -> str:
    """A fixed-width delta table (regressions first, then improvements)."""
    order = {STATUS_REGRESSION: 0, STATUS_IMPROVED: 1, STATUS_OK: 2}
    rows = sorted(deltas, key=lambda d: (order[d.status], d.bench, d.where))
    if only_interesting:
        rows = [d for d in rows if d.status != STATUS_OK]
    lines = [
        f"{'status':<11} {'bench':<8} {'where':<44} "
        f"{'baseline':>12} {'current':>12} {'change':>8}"
    ]
    for d in rows:
        rel = d.rel_change
        rel_text = "inf" if rel == float("inf") else f"{rel:+.1%}"
        lines.append(
            f"{d.status:<11} {d.bench:<8} {d.where:<44} "
            f"{d.baseline:>12.6g} {d.current:>12.6g} {rel_text:>8}"
        )
    counts = {s: 0 for s in (STATUS_REGRESSION, STATUS_IMPROVED, STATUS_OK)}
    for d in deltas:
        counts[d.status] += 1
    lines.append(
        "summary: {} regression(s), {} improved, {} ok".format(
            counts[STATUS_REGRESSION],
            counts[STATUS_IMPROVED],
            counts[STATUS_OK],
        )
    )
    if missing:
        lines.append(
            "missing current artifacts: " + ", ".join(sorted(missing))
        )
    return "\n".join(lines)


# -- trajectory ------------------------------------------------------------


def _bench_summary(doc: dict) -> dict:
    return {
        "tests": int(doc["metrics"].get("tests", 0)),
        "failed": int(doc["metrics"].get("failed", 0)),
        "wall_seconds_total": float(
            doc["metrics"].get("wall_seconds_total", 0.0)
        ),
        "figures": int(doc["metrics"].get("figures", 0)),
    }


def trajectory_entry(label: str, bench_docs: dict[str, dict]) -> dict:
    """One ``repro-trajectory/1`` line summarizing a set of bench docs."""
    return {
        "schema": TRAJECTORY_SCHEMA,
        "label": label,
        "benches": {
            name: _bench_summary(doc)
            for name, doc in sorted(bench_docs.items())
        },
    }


def append_trajectory(baseline_dir: str, entry: dict) -> str:
    """Append one validated entry to the baseline's trajectory file."""
    path = os.path.join(baseline_dir, TRAJECTORY_FILE)
    return write_artifact(entry, TRAJECTORY_SCHEMA, path, append=True)


def seed_baseline(
    results_dir: str,
    baseline_dir: str,
    names: list[str],
    threshold: float = DEFAULT_THRESHOLD,
    label: str = "seed",
) -> dict:
    """Create/overwrite ``baseline_dir`` from current BENCH artifacts.

    Copies each ``BENCH_<name>.json`` into the baseline directory,
    writes the index, and appends a trajectory entry so the history
    starts with the seed point.
    """
    os.makedirs(baseline_dir, exist_ok=True)
    benches: dict[str, str] = {}
    docs: dict[str, dict] = {}
    for name in names:
        filename = f"BENCH_{name}.json"
        doc = read_artifact(os.path.join(results_dir, filename), BENCH_SCHEMA)
        write_artifact(doc, BENCH_SCHEMA, os.path.join(baseline_dir, filename))
        benches[name] = filename
        docs[name] = doc
    index = {
        "schema": BASELINE_SCHEMA,
        "benches": benches,
        "threshold": threshold,
    }
    write_artifact(
        index, BASELINE_SCHEMA, os.path.join(baseline_dir, INDEX_FILE)
    )
    append_trajectory(baseline_dir, trajectory_entry(label, docs))
    return index
