"""Predicted-vs-observed drift: where the 1995 cost model diverges.

The analytical models (Sections 2–4) predict per-node elapsed seconds in
four resource families (``repro.costmodel.report``); the simulator and
the real multiprocessing executor *measure* where time actually went.
This module joins the two sides and emits ``predicted_vs_observed``
records with relative-error figures — the quantitative answer to "does
the cost model still describe this system?".

Observed family seconds come from the simulator's per-node tagged time
breakdown (``NodeMetrics.tagged_seconds``): scan/store/sample I/O maps
to ``base_io``, spill I/O to ``overflow_io``, all per-tuple and protocol
CPU to ``cpu``.  The network family is the shared bus occupancy
(``network_busy_seconds``) — the same quantity the limited-bandwidth
model charges.  Because the models assume perfectly parallel nodes, the
observed per-node families are averaged across nodes.

Per-phase span durations from a tracer ride along in the report
(``phase_seconds``) so drift can be localized to the scan, merge or
sampling phase rather than just a family total.

``DriftReport.into_registry`` publishes one relative-error gauge per
family (``drift.<algorithm>.<family>.rel_error``) so drift is a
first-class metric, not just a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel import model_cost
from repro.costmodel.report import FAMILIES, family_breakdown
from repro.obs.schema import DRIFT_SCHEMA

# Simulator time tags -> resource families.
_TAG_FAMILY = {
    "scan_io": "base_io",
    "store_io": "base_io",
    "sample_io": "base_io",
    "io_read": "base_io",
    "io_write": "base_io",
    "spill_io": "overflow_io",
}


def observed_family_seconds(metrics) -> dict[str, float]:
    """Mean per-node seconds by resource family, from a ClusterMetrics.

    Every tagged second is assigned to exactly one family (CPU by
    default, matching :func:`repro.costmodel.report.classify_component`'s
    fall-through).
    """
    families = dict.fromkeys(FAMILIES, 0.0)
    num_nodes = max(1, metrics.num_nodes)
    for node in metrics.nodes:
        for tag, seconds in node.tagged_seconds.items():
            families[_TAG_FAMILY.get(tag, "cpu")] += seconds
    for family in families:
        families[family] /= num_nodes
    families["network"] = metrics.network_busy_seconds
    return families


def predicted_family_seconds(
    algorithm: str, params, selectivity: float
) -> dict[str, float]:
    """The model's per-family prediction for one algorithm/selectivity."""
    return family_breakdown(model_cost(algorithm, params, selectivity))


@dataclass
class DriftRecord:
    """One family's predicted-vs-observed comparison."""

    family: str
    predicted_seconds: float
    observed_seconds: float

    @property
    def abs_error(self) -> float:
        return self.observed_seconds - self.predicted_seconds

    @property
    def rel_error(self) -> float:
        """(observed - predicted) / predicted; observed/eps when pred=0."""
        if self.predicted_seconds > 0:
            return self.abs_error / self.predicted_seconds
        return 0.0 if self.observed_seconds == 0 else float("inf")

    def to_dict(self) -> dict:
        rel = self.rel_error
        return {
            "family": self.family,
            "predicted_seconds": self.predicted_seconds,
            "observed_seconds": self.observed_seconds,
            "abs_error": self.abs_error,
            "rel_error": None if rel == float("inf") else rel,
        }


@dataclass
class DriftReport:
    """The full predicted-vs-observed join for one run."""

    algorithm: str
    selectivity: float
    substrate: str  # "sim" or "mp"
    records: list[DriftRecord] = field(default_factory=list)
    predicted_total: float = 0.0
    observed_total: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_rel_error(self) -> float:
        if self.predicted_total > 0:
            return (
                self.observed_total - self.predicted_total
            ) / self.predicted_total
        return 0.0 if self.observed_total == 0 else float("inf")

    def record_for(self, family: str) -> DriftRecord:
        for record in self.records:
            if record.family == family:
                return record
        raise KeyError(f"no drift record for family {family!r}")

    def to_dict(self) -> dict:
        total_rel = self.total_rel_error
        return {
            "schema": DRIFT_SCHEMA,
            "algorithm": self.algorithm,
            "selectivity": self.selectivity,
            "substrate": self.substrate,
            "predicted_vs_observed": [r.to_dict() for r in self.records],
            "predicted_total_seconds": self.predicted_total,
            "observed_total_seconds": self.observed_total,
            "total_rel_error": (
                None if total_rel == float("inf") else total_rel
            ),
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
        }

    def into_registry(self, registry) -> None:
        """Publish per-family relative-error gauges into a registry."""
        prefix = f"drift.{self.algorithm}"
        for record in self.records:
            rel = record.rel_error
            if rel != float("inf"):
                registry.gauge(
                    f"{prefix}.{record.family}.rel_error", mode="last"
                ).set(rel)
        total = self.total_rel_error
        if total != float("inf"):
            registry.gauge(f"{prefix}.total.rel_error", mode="last").set(
                total
            )


def compare_model_to_run(
    algorithm: str,
    params,
    selectivity: float,
    metrics,
    tracer=None,
    substrate: str = "sim",
) -> DriftReport:
    """Join the model's prediction against a simulated run's accounting.

    ``selectivity`` should be the *observed* grouping selectivity
    (true groups / |R|) so the model is judged on its cost arithmetic,
    not on a group-count estimate it never made.
    """
    predicted = predicted_family_seconds(algorithm, params, selectivity)
    observed = observed_family_seconds(metrics)
    records = [
        DriftRecord(
            family=family,
            predicted_seconds=predicted.get(family, 0.0),
            observed_seconds=observed.get(family, 0.0),
        )
        for family in FAMILIES
    ]
    report = DriftReport(
        algorithm=algorithm,
        selectivity=selectivity,
        substrate=substrate,
        records=records,
        predicted_total=sum(predicted.values()),
        observed_total=metrics.makespan,
    )
    if tracer is not None:
        report.phase_seconds = dict(
            tracer.summary().get("phase_seconds", {})
        )
    return report


def compare_model_to_mp(
    algorithm: str,
    params,
    selectivity: float,
    registry,
) -> DriftReport:
    """Join the model against a real multiprocessing run's registry.

    The mp executor measures wall seconds on modern hardware, so the
    interesting output is the *shape* of the divergence (the 1995
    parameters price I/O and messages at 1995 rates), quantified as one
    total relative error plus the worker-phase split.
    """
    predicted = predicted_family_seconds(algorithm, params, selectivity)
    observed_total = (
        float(registry.value("mp.elapsed_seconds"))
        if "mp.elapsed_seconds" in registry
        else 0.0
    )
    records = [
        DriftRecord(
            family=family,
            predicted_seconds=predicted.get(family, 0.0),
            # The mp executor does not attribute wall time to resource
            # families; per-family observations stay at zero and only
            # the totals line is meaningful.
            observed_seconds=0.0,
        )
        for family in FAMILIES
    ]
    report = DriftReport(
        algorithm=algorithm,
        selectivity=selectivity,
        substrate="mp",
        records=records,
        predicted_total=sum(predicted.values()),
        observed_total=observed_total,
    )
    for phase in ("local", "merge"):
        name = f"mp.phase_seconds.{phase}"
        if name in registry:
            report.phase_seconds[phase] = float(registry.value(name))
    return report


def format_drift_table(report: DriftReport) -> str:
    """A fixed-width predicted-vs-observed table for terminals."""
    lines = [
        "== drift: {} ({}; selectivity {:.6g}) ==".format(
            report.algorithm, report.substrate, report.selectivity
        ),
        f"{'family':<12} {'predicted':>12} {'observed':>12} {'rel_error':>10}",
    ]
    rows = list(report.records) + [
        DriftRecord(
            "total", report.predicted_total, report.observed_total
        )
    ]
    for record in rows:
        rel = record.rel_error
        rel_text = "inf" if rel == float("inf") else f"{rel:+.1%}"
        lines.append(
            f"{record.family:<12} {record.predicted_seconds:>11.4f}s "
            f"{record.observed_seconds:>11.4f}s {rel_text:>10}"
        )
    if report.phase_seconds:
        lines.append("observed phase seconds:")
        for name, seconds in report.phase_seconds.items():
            lines.append(f"  {name:<24} {seconds:9.4f}s")
    return "\n".join(lines)
