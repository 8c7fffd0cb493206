"""The decision ledger: every adaptive choice, typed and auditable.

The paper's contribution is *decisions made at query evaluation time* —
Samp's estimate-vs-threshold choice, A-2P's per-node overflow switch,
A-Rep's end-of-phase broadcast.  PR 3's tracer shows *when* phases ran;
this module records *why* the run took the shape it did:

``DecisionLedger``
    The one record of a simulated run's decisions (every run fills one:
    ``AlgorithmOutcome.ledger``), collecting one :class:`DecisionEvent`
    per adaptive choice.  Each event carries the node, the simulated
    time, the decision's inputs (estimate, threshold, tuples seen, table
    fill, ``initSeg`` counts…) and, when a tracer is attached, the id of
    the span it was made inside.

``annotate_ground_truth``
    Post-hoc enrichment: once a run finishes, the *true* group count is
    known, so every decision can be judged — estimate error, which
    branch the truth would have picked, and the counterfactual cost of
    the branch not taken (via the Section 2–4 analytical models).  Each
    judged event gets a verdict: ``correct``, ``wrong_but_cheap`` (the
    decision disagreed with the truth but the chosen branch's model
    cost was no worse), or ``wrong_and_costly``.

``run_artifact`` / ``mp_run_artifact``
    A ``repro-run/1`` JSON artifact bundling the ledger with the run's
    metrics and parameters, so ``repro explain <run.json>`` can render
    the report long after the process that ran the query is gone.  For
    a real-process run the report names every reason a fragment left
    the columnar kernel and the parent left the vectorized merge.  It
    is written and read through ``repro.obs.schema.write_artifact`` /
    ``read_artifact``, which check it against the schema table.

See ``docs/decisions.md`` for the report format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.schema import RUN_SCHEMA

# Decision kinds with first-class annotation support.  Anything else a
# node records still lands in the ledger verbatim — the ledger is a log,
# not a whitelist.
SAMPLING_DECISION = "sampling_decision"
A2P_SWITCH = "switch_to_repartitioning"
AREP_SWITCH = "switch_to_two_phase"
AREP_ECHO = "end_of_phase_received"
OPT2P_FORWARD = "forwarded_on_overflow"
PREAGG_EVICTIONS = "evictions"

# Service-layer decision kinds (repro.service): admission-time choices,
# logged with the same machinery as the in-query adaptive decisions so
# one ledger tells the whole robustness story.
ADMISSION_SHED = "admission_shed"
QUERY_RETRY = "query_retry"
DEADLINE_MISS = "deadline_miss"
LADDER_TRANSITION = "ladder_transition"
CACHE_SERVE = "cache_serve"

VERDICT_CORRECT = "correct"
VERDICT_WRONG_CHEAP = "wrong_but_cheap"
VERDICT_WRONG_COSTLY = "wrong_and_costly"


@dataclass
class DecisionEvent:
    """One adaptive choice made during a run.

    ``data`` holds the decision's inputs as recorded at the site;
    ``truth`` is filled in by :func:`annotate_ground_truth` after the
    run, when the real group count is known.
    """

    kind: str
    node: int
    time: float
    data: dict = field(default_factory=dict)
    span_id: int | None = None
    truth: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node,
            "time": self.time,
            "data": dict(self.data),
            "span_id": self.span_id,
            "truth": dict(self.truth),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionEvent":
        return cls(
            kind=data["kind"],
            node=int(data["node"]),
            time=float(data["time"]),
            data=dict(data.get("data") or {}),
            span_id=data.get("span_id"),
            truth=dict(data.get("truth") or {}),
        )


class DecisionLedger:
    """Collects the adaptive decisions of one run."""

    def __init__(self) -> None:
        self.events: list[DecisionEvent] = []

    def record(
        self,
        kind: str,
        node: int,
        time: float,
        data: dict | None = None,
        span_id: int | None = None,
    ) -> DecisionEvent:
        """Append one decision event (returns it for further annotation)."""
        event = DecisionEvent(
            kind=kind,
            node=node,
            time=time,
            data=dict(data) if data else {},
            span_id=span_id,
        )
        self.events.append(event)
        return event

    def events_of(self, kind: str) -> list[DecisionEvent]:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, events: list[dict]) -> "DecisionLedger":
        ledger = cls()
        ledger.events = [DecisionEvent.from_dict(e) for e in events]
        return ledger


def _model_seconds(algorithm: str, params, selectivity: float) -> float | None:
    """Analytical cost of one branch at the observed selectivity."""
    from repro.costmodel import MODEL_FUNCTIONS, model_cost

    if algorithm not in MODEL_FUNCTIONS:
        return None
    return model_cost(algorithm, params, selectivity).total_seconds


def _true_selectivity(true_groups: int, params) -> float:
    sel = max(true_groups, 1) / max(params.num_tuples, 1)
    return min(max(sel, 1.0 / params.num_tuples), 1.0)


def annotate_ground_truth(
    ledger: DecisionLedger, true_groups: int, params
) -> DecisionLedger:
    """Judge every judgeable decision against the run's real group count.

    ``true_groups`` is the number of groups the query actually produced
    (``AlgorithmOutcome.num_groups``, or ``total_groups_output`` from a
    saved metrics snapshot).  Fills each event's ``truth`` dict in
    place and returns the ledger for chaining.
    """
    from repro.sampling.decision import choose_algorithm

    selectivity = _true_selectivity(true_groups, params)
    for event in ledger.events:
        truth: dict = {"true_groups": true_groups}
        if event.kind == SAMPLING_DECISION:
            estimated = float(event.data.get("estimated_groups", 0.0))
            threshold = int(event.data.get("threshold", 0))
            choice = event.data.get("choice", "")
            truth["estimate_abs_error"] = estimated - true_groups
            truth["estimate_rel_error"] = (
                (estimated - true_groups) / true_groups
                if true_groups
                else 0.0
            )
            if threshold > 0:
                truth_choice = choose_algorithm(true_groups, threshold)
                truth["truth_choice"] = truth_choice
                truth["decision_correct"] = truth_choice == choice
                alternative = (
                    "repartitioning"
                    if choice == "two_phase"
                    else "two_phase"
                )
                chosen_cost = _model_seconds(choice, params, selectivity)
                alt_cost = _model_seconds(alternative, params, selectivity)
                truth["counterfactual"] = {
                    "chosen": choice,
                    "chosen_model_seconds": chosen_cost,
                    "alternative": alternative,
                    "alternative_model_seconds": alt_cost,
                }
                if truth_choice == choice:
                    truth["verdict"] = VERDICT_CORRECT
                elif (
                    chosen_cost is not None
                    and alt_cost is not None
                    and chosen_cost <= alt_cost
                ):
                    truth["verdict"] = VERDICT_WRONG_CHEAP
                else:
                    truth["verdict"] = VERDICT_WRONG_COSTLY
        elif event.kind == A2P_SWITCH:
            capacity = event.data.get("table_entries")
            if capacity is None:
                capacity = params.hash_table_entries
            truth["table_entries"] = capacity
            # The switch is forced by a full table; it is *justified*
            # when the relation genuinely has more groups than one
            # node's table can hold.
            truth["groups_exceed_capacity"] = true_groups > capacity
            truth["verdict"] = (
                VERDICT_CORRECT
                if true_groups > capacity
                else VERDICT_WRONG_CHEAP
            )
        elif event.kind == AREP_SWITCH:
            switch_groups = event.data.get("switch_groups")
            if switch_groups is not None:
                correct = true_groups < int(switch_groups)
                truth["decision_correct"] = correct
                chosen_cost = _model_seconds(
                    "two_phase", params, selectivity
                )
                alt_cost = _model_seconds(
                    "repartitioning", params, selectivity
                )
                truth["counterfactual"] = {
                    "chosen": "two_phase",
                    "chosen_model_seconds": chosen_cost,
                    "alternative": "repartitioning",
                    "alternative_model_seconds": alt_cost,
                }
                if correct:
                    truth["verdict"] = VERDICT_CORRECT
                elif (
                    chosen_cost is not None
                    and alt_cost is not None
                    and chosen_cost <= alt_cost
                ):
                    truth["verdict"] = VERDICT_WRONG_CHEAP
                else:
                    truth["verdict"] = VERDICT_WRONG_COSTLY
        event.truth = truth
    return ledger


# -- run artifacts (``repro explain`` input) ------------------------------


def run_artifact(
    algorithm: str,
    outcome,
    params,
    workload: dict | None = None,
) -> dict:
    """Bundle a finished run into a ``repro-run/1`` document.

    ``outcome`` is an :class:`~repro.core.runner.AlgorithmOutcome`; its
    ledger is annotated with ground truth here (the outcome knows the
    real group count), so the artifact is self-contained.
    """
    ledger = annotate_ground_truth(
        outcome.ledger, outcome.num_groups, params
    )
    return {
        "schema": RUN_SCHEMA,
        "algorithm": algorithm,
        "elapsed_seconds": outcome.elapsed_seconds,
        "num_groups": outcome.num_groups,
        "params": params.to_dict(),
        "workload": dict(workload) if workload else {},
        "decisions": ledger.to_dicts(),
        "metrics": outcome.metrics.to_dict(),
    }


MP_ALGORITHM = "mp"


def mp_run_artifact(metrics, ledger: DecisionLedger | None = None) -> dict:
    """Bundle a finished ``multiprocessing_aggregate`` run into a
    ``repro-run/1`` document.

    ``metrics`` is the :class:`~repro.obs.MetricsRegistry` the run
    filled through ``metrics=`` (one run per registry); ``ledger`` the
    one it was handed, if any.  The snapshot carries every
    ``mp.kernel.declined.<reason>``, ``mp.merge.fallback.<reason>`` and
    ``mp.{kernel,merge}.grouping.<path>`` the run counted and, for a
    pooled run, what crossing the process boundary cost
    (``mp.phase_seconds.{encode,return}``, ``mp.worker_load_seconds``,
    ``mp.return_bytes``), which is what ``repro explain`` prints for it.
    """
    snapshot = metrics.snapshot()

    def value(name):
        return snapshot.get(name, {}).get("value", 0)

    return {
        "schema": RUN_SCHEMA,
        "algorithm": MP_ALGORITHM,
        "elapsed_seconds": float(value("mp.elapsed_seconds")),
        "num_groups": int(value("mp.groups_output")),
        "params": {"num_nodes": int(value("mp.fragments"))},
        "workload": {},
        "decisions": ledger.to_dicts() if ledger is not None else [],
        "metrics": snapshot,
    }


# -- the explain report ---------------------------------------------------


def _fmt_seconds(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4f}s"


def _describe_event(event: DecisionEvent) -> list[str]:
    lines = [
        f"[{event.time:.4f}s] node {event.node}: {event.kind}"
    ]
    for key in sorted(event.data):
        lines.append(f"    {key:<24} {event.data[key]}")
    truth = event.truth
    if not truth:
        return lines
    if "estimate_rel_error" in truth:
        lines.append(
            f"    {'true_groups':<24} {truth['true_groups']}"
        )
        lines.append(
            "    {:<24} {:+.1%}".format(
                "estimate_rel_error", truth["estimate_rel_error"]
            )
        )
    if "truth_choice" in truth:
        lines.append(
            f"    {'truth_would_pick':<24} {truth['truth_choice']}"
        )
    if "groups_exceed_capacity" in truth:
        lines.append(
            "    {:<24} {} (true groups {} vs table {})".format(
                "groups_exceed_capacity",
                truth["groups_exceed_capacity"],
                truth["true_groups"],
                truth.get("table_entries"),
            )
        )
    counterfactual = truth.get("counterfactual")
    if counterfactual:
        lines.append(
            "    model cost: chosen {} = {}, alternative {} = {}".format(
                counterfactual["chosen"],
                _fmt_seconds(counterfactual["chosen_model_seconds"]),
                counterfactual["alternative"],
                _fmt_seconds(counterfactual["alternative_model_seconds"]),
            )
        )
    if "verdict" in truth:
        lines.append(f"    {'verdict':<24} {truth['verdict']}")
    return lines


# Which path an mp run took, family by family: the two that answer "why
# was this query slow" (it left the kernel, or the vectorized merge),
# then how each grouping step numbered its keys.
_MP_PATH_COUNTERS = (
    ("mp.kernel.declined.",
     "fragment attempts that left the columnar kernel for the per-row "
     "phase"),
    ("mp.merge.fallback.",
     "runs whose parent left the vectorized merge for the per-key one"),
    ("mp.kernel.grouping.",
     "key columns the fragments numbered by direct addressing (dense) "
     "or by a sort"),
    ("mp.merge.grouping.",
     "key columns the parent's merge numbered the same two ways"),
)


def _describe_mp_paths(metrics: dict) -> list[str]:
    lines = []
    for prefix, meaning in _MP_PATH_COUNTERS:
        reasons = sorted(
            (name[len(prefix):], metric.get("value"))
            for name, metric in metrics.items()
            if name.startswith(prefix)
        )
        if not reasons:
            lines.append(f"{prefix}*: none")
            continue
        lines.append(f"{prefix}* ({meaning}):")
        for reason, count in reasons:
            lines.append(f"    {reason:<24} {count}")
    return lines


def _describe_mp_boundary(metrics: dict) -> list[str]:
    """What a pooled run paid to cross the process boundary, both ways;
    nothing for an in-process run, which never crossed it."""

    def field(name, key="value"):
        return metrics.get(name, {}).get(key)

    lines = []
    encode = field("mp.phase_seconds.encode")
    if encode is not None:
        lines.append(f"    {'encode (parent, ship)':<24} {_fmt_seconds(encode)}")
    load = field("mp.worker_load_seconds", "total")
    if load is not None:
        lines.append(
            "    {:<24} {} over {} attempt(s)".format(
                "load (workers, attach)", _fmt_seconds(load),
                field("mp.worker_load_seconds", "count"),
            )
        )
    back = field("mp.phase_seconds.return")
    if back is not None:
        lines.append(
            "    {:<24} {} for {} bytes".format(
                "return (parent, recv)", _fmt_seconds(back),
                field("mp.return_bytes"),
            )
        )
    if lines:
        lines.insert(0, "mp process boundary (seconds beside the kernel):")
    return lines


def render_explain(doc: dict, drift_table: str | None = None) -> str:
    """The human-readable ``repro explain`` report for a run artifact."""
    params = doc.get("params", {})
    mp_run = doc.get("algorithm") == MP_ALGORITHM
    lines = [
        "== explain: {} on {} nodes ==".format(
            doc.get("algorithm", "?"), params.get("num_nodes", "?")
        ),
        "elapsed {:.4f}s {}, {} groups".format(
            float(doc.get("elapsed_seconds", 0.0)),
            "wall" if mp_run else "simulated",
            doc.get("num_groups", "?"),
        ),
    ]
    decisions = [
        DecisionEvent.from_dict(e) for e in doc.get("decisions", [])
    ]
    if not decisions:
        lines.append(
            "no adaptive decisions recorded (the run never had to choose)"
        )
    else:
        lines.append(f"{len(decisions)} decision(s):")
        for event in decisions:
            lines.extend(_describe_event(event))
        verdicts: dict[str, int] = {}
        for event in decisions:
            verdict = event.truth.get("verdict")
            if verdict:
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if verdicts:
            summary = ", ".join(
                f"{count} {name}" for name, count in sorted(verdicts.items())
            )
            lines.append(f"verdicts: {summary}")
    if mp_run:
        lines.extend(_describe_mp_paths(doc.get("metrics", {})))
        lines.extend(_describe_mp_boundary(doc.get("metrics", {})))
    if drift_table:
        lines.append("")
        lines.append(drift_table)
    return "\n".join(lines)
