"""Tests for the decision ledger: recording, ground truth, artifacts.

The ledger is the audit trail of the paper's run-time choices; these
tests pin that every adaptive site records its inputs, that post-hoc
annotation judges decisions against the real group count (including the
case where sampling genuinely picks the wrong branch), and that the
``repro-run/1`` artifact roundtrips through disk.
"""

from __future__ import annotations

import pytest

from repro.core.runner import ALGORITHMS, default_parameters, run_algorithm
from repro.obs import (
    DecisionLedger,
    Tracer,
    annotate_ground_truth,
    render_explain,
    run_artifact,
)
from repro.obs.decisions import (
    A2P_SWITCH,
    AREP_ECHO,
    AREP_SWITCH,
    DecisionEvent,
    SAMPLING_DECISION,
    VERDICT_CORRECT,
    VERDICT_WRONG_CHEAP,
    VERDICT_WRONG_COSTLY,
)
from repro.obs.schema import RUN_SCHEMA, read_artifact, write_artifact
from repro.workloads.generator import generate_uniform, generate_zipf


@pytest.fixture
def many_groups_dist():
    """Enough groups to overflow every node's table and trip switches."""
    return generate_uniform(
        num_tuples=8000, num_groups=2000, num_nodes=4, seed=3
    )


class TestRecording:
    def test_sampling_records_decision_inputs(self, small_dist, sum_query):
        ledger = run_algorithm("sampling", small_dist, sum_query).ledger
        (event,) = ledger.events_of(SAMPLING_DECISION)
        assert event.node == 0  # the coordinator decides
        for key in (
            "estimated_groups",
            "threshold",
            "choice",
            "distinct_in_sample",
            "sample_size",
            "sample_per_node",
        ):
            assert key in event.data, key
        assert event.data["choice"] in ("two_phase", "repartitioning")

    def test_a2p_records_switches(self, many_groups_dist, sum_query):
        ledger = run_algorithm(
            "adaptive_two_phase", many_groups_dist, sum_query
        ).ledger
        switches = ledger.events_of(A2P_SWITCH)
        assert len(switches) == many_groups_dist.num_nodes
        for event in switches:
            assert event.data["tuples_seen"] >= 0
            assert event.data["table_capacity"] > 0
            assert event.data["groups_accumulated"] > 0

    def test_arep_records_echo_and_switch(self, small_dist, sum_query):
        # 16 groups on 4 nodes: A-Rep finishes its initSeg probe well
        # under the switch threshold and falls back to Two Phase.
        ledger = run_algorithm(
            "adaptive_repartitioning", small_dist, sum_query
        ).ledger
        switches = ledger.events_of(AREP_SWITCH)
        assert switches, "expected the low-group fallback to fire"
        for event in switches:
            assert event.data["switch_groups"] > 0
            assert event.data["init_seg"] > 0
        assert ledger.events_of(AREP_ECHO)

    def test_a_run_without_a_ledger_records_its_decisions(
        self, small_dist, sum_query
    ):
        """Every simulated run carries its decisions in its outcome; a
        ledger handed in is the one the outcome carries."""
        outcome = run_algorithm("sampling", small_dist, sum_query)
        (event,) = outcome.ledger.events_of(SAMPLING_DECISION)
        assert event.data["choice"] in ("two_phase", "repartitioning")
        mine = DecisionLedger()
        handed_in = run_algorithm(
            "sampling", small_dist, sum_query, ledger=mine
        )
        assert handed_in.ledger is mine
        assert mine.to_dicts() == outcome.ledger.to_dicts()

    def test_span_linkage(self, small_dist, sum_query):
        tracer = Tracer()
        outcome = run_algorithm(
            "sampling", small_dist, sum_query, tracer=tracer
        )
        (event,) = outcome.ledger.events_of(SAMPLING_DECISION)
        assert event.span_id is not None
        assert event.span_id in {
            span.span_id for span in tracer.spans
        }

class TestGroundTruthMetric:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_total_groups_output_matches_result(
        self, algorithm, small_dist, sum_query
    ):
        """The metrics' ground-truth group count equals the answer's."""
        outcome = run_algorithm(algorithm, small_dist, sum_query)
        assert outcome.metrics.total_groups_output == outcome.num_groups
        assert (
            outcome.metrics.to_dict()["total_groups_output"]
            == outcome.num_groups
        )


class TestAnnotation:
    def test_correct_sampling_decision(self, many_groups_dist, sum_query):
        outcome = run_algorithm("sampling", many_groups_dist, sum_query)
        params = default_parameters(many_groups_dist)
        ledger = annotate_ground_truth(
            outcome.ledger, outcome.num_groups, params
        )
        (event,) = ledger.events_of(SAMPLING_DECISION)
        truth = event.truth
        assert truth["true_groups"] == outcome.num_groups
        assert truth["truth_choice"] == "repartitioning"
        assert truth["decision_correct"] is True
        assert truth["verdict"] == VERDICT_CORRECT
        counterfactual = truth["counterfactual"]
        assert counterfactual["chosen"] == "repartitioning"
        assert counterfactual["alternative"] == "two_phase"
        assert counterfactual["chosen_model_seconds"] > 0
        assert counterfactual["alternative_model_seconds"] > 0

    def test_wrong_branch_under_skew(self, sum_query):
        """Heavy skew fools the estimator into the wrong branch.

        A Zipf(2.5) relation hides most of its 3000 groups in the tail:
        the pooled sample sees ~34 distinct keys, below the threshold of
        40, so Samp picks Two Phase even though the true group count is
        75x the threshold.  The annotation must call this out.
        """
        dist = generate_zipf(
            num_tuples=20000, num_groups=3000, num_nodes=4,
            alpha=2.5, seed=7,
        )
        outcome = run_algorithm(
            "sampling", dist, sum_query, sample_multiplier=0.25
        )
        (event,) = outcome.ledger.events_of(SAMPLING_DECISION)
        assert event.data["estimated_groups"] < event.data["threshold"]
        assert event.data["choice"] == "two_phase"
        assert outcome.num_groups == 3000

        annotate_ground_truth(
            outcome.ledger, outcome.num_groups, default_parameters(dist)
        )
        truth = event.truth
        assert truth["decision_correct"] is False
        assert truth["truth_choice"] == "repartitioning"
        assert truth["estimate_rel_error"] < -0.9
        assert truth["verdict"] in (
            VERDICT_WRONG_CHEAP, VERDICT_WRONG_COSTLY
        )

    def test_a2p_switch_judged_against_capacity(
        self, many_groups_dist, sum_query
    ):
        outcome = run_algorithm(
            "adaptive_two_phase", many_groups_dist, sum_query
        )
        ledger = annotate_ground_truth(
            outcome.ledger,
            outcome.num_groups,
            default_parameters(many_groups_dist),
        )
        for event in ledger.events_of(A2P_SWITCH):
            assert event.truth["groups_exceed_capacity"] is True
            assert event.truth["verdict"] == VERDICT_CORRECT


class TestRunArtifact:
    def test_roundtrip_through_disk(
        self, many_groups_dist, sum_query, tmp_path
    ):
        outcome = run_algorithm("sampling", many_groups_dist, sum_query)
        params = default_parameters(many_groups_dist)
        doc = run_artifact(
            "sampling", outcome, params,
            workload={"kind": "uniform", "num_tuples": 8000},
        )
        path = str(tmp_path / "run.json")
        write_artifact(doc, RUN_SCHEMA, path)
        loaded = read_artifact(path, RUN_SCHEMA)
        assert loaded["schema"] == "repro-run/1"
        assert loaded["algorithm"] == "sampling"
        assert loaded["num_groups"] == outcome.num_groups
        assert loaded["decisions"] == doc["decisions"]
        assert loaded["params"]["num_nodes"] == params.num_nodes

    def test_event_dict_roundtrip(self):
        event = DecisionEvent(
            kind=SAMPLING_DECISION, node=0, time=1.5,
            data={"estimated_groups": 12.0}, span_id=7,
            truth={"verdict": VERDICT_CORRECT},
        )
        assert DecisionEvent.from_dict(event.to_dict()) == event
        ledger = DecisionLedger.from_dicts([event.to_dict()])
        assert len(ledger) == 1
        assert ledger.events[0].span_id == 7

    def test_render_explain_shows_judgement(
        self, many_groups_dist, sum_query
    ):
        outcome = run_algorithm("sampling", many_groups_dist, sum_query)
        doc = run_artifact(
            "sampling", outcome, default_parameters(many_groups_dist)
        )
        text = render_explain(doc)
        assert "sampling_decision" in text
        assert "estimate_rel_error" in text
        assert "truth_would_pick" in text
        assert "model cost: chosen" in text
        assert "verdicts: 1 correct" in text

    def test_render_explain_without_decisions(self, small_dist, sum_query):
        outcome = run_algorithm("two_phase", small_dist, sum_query)
        doc = run_artifact(
            "two_phase", outcome, default_parameters(small_dist)
        )
        assert "no adaptive decisions" in render_explain(doc)
