"""Wrong-decision resilience: the adaptive safety nets must compose.

The paper's Section 3.3 argument: A-Rep falls back to *Adaptive* Two
Phase precisely so that a wrong "too few groups" judgement is not fatal
— the A-2P layer will switch back to repartitioning when its table
overflows.  These tests force each decision to be wrong and check both
correctness and the expected chain of switches.
"""

import pytest

from repro.core.runner import default_parameters, run_algorithm
from repro.parallel import reference_aggregate
from repro.workloads.generator import generate_uniform

from tests.conftest import assert_rows_close


class TestARepWrongFallback:
    """Force A-Rep to abandon Rep on a relation with MANY groups."""

    @pytest.fixture
    def many_groups(self):
        return generate_uniform(8000, 3000, 4, seed=0)

    def test_forced_fallback_recovers_via_a2p(
        self, many_groups, sum_query
    ):
        params = default_parameters(many_groups, hash_table_entries=50)
        out = run_algorithm(
            "adaptive_repartitioning",
            many_groups,
            sum_query,
            params=params,
            # Absurd threshold: every node judges "too few groups".
            arep_switch_groups=1_000_000,
            init_seg=200,
        )
        # The wrong fallback happened...
        assert out.ledger.events_of("switch_to_two_phase")
        # ...and the A-2P safety net fired on the overflowing tables.
        assert out.ledger.events_of("switch_to_repartitioning")
        # Correctness survives the double switch.
        assert_rows_close(
            out.rows, reference_aggregate(many_groups, sum_query)
        )

    def test_double_switch_costs_more_than_honest_rep(
        self, many_groups, sum_query
    ):
        params = default_parameters(many_groups, hash_table_entries=50)
        wrong = run_algorithm(
            "adaptive_repartitioning",
            many_groups,
            sum_query,
            params=params,
            arep_switch_groups=1_000_000,
            init_seg=200,
        )
        honest = run_algorithm(
            "repartitioning", many_groups, sum_query, params=params
        )
        assert wrong.elapsed_seconds > honest.elapsed_seconds


class TestARepNeverJudges:
    def test_init_seg_larger_than_fragment(self, sum_query):
        """A node that never sees init_seg tuples just stays with Rep."""
        dist = generate_uniform(2000, 10, 4, seed=1)
        out = run_algorithm(
            "adaptive_repartitioning",
            dist,
            sum_query,
            init_seg=10_000_000,
        )
        assert not out.ledger.events_of("switch_to_two_phase")
        assert_rows_close(out.rows, reference_aggregate(dist, sum_query))


class TestSamplingWrongChoice:
    def test_forced_wrong_choice_still_correct(self, sum_query):
        """A threshold of 1 forces Repartitioning on 2-group data —
        half the cluster idles and the whole relation crosses the bus —
        slow but exact (the decision is about speed, never answers)."""
        dist = generate_uniform(20_000, 2, 4, seed=2)
        forced_rep = run_algorithm(
            "sampling", dist, sum_query, sampling_threshold=1
        )
        assert (
            forced_rep.ledger.events_of("sampling_decision")[0]
            .data["choice"]
            == "repartitioning"
        )
        assert_rows_close(
            forced_rep.rows, reference_aggregate(dist, sum_query)
        )
        # The wrong choice costs real time: on this low-cardinality data
        # the algorithm it should have picked is clearly faster.
        tp = run_algorithm("two_phase", dist, sum_query)
        rep = run_algorithm("repartitioning", dist, sum_query)
        assert tp.elapsed_seconds < rep.elapsed_seconds


class TestA2pThrashResistance:
    def test_one_entry_table_switches_immediately_and_survives(
        self, sum_query
    ):
        """M=1 is the pathological floor: the switch happens on the
        second distinct key and everything streams raw."""
        dist = generate_uniform(3000, 500, 4, seed=3)
        params = default_parameters(dist, hash_table_entries=1)
        out = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        switches = out.ledger.events_of("switch_to_repartitioning")
        assert len(switches) == 4
        for event in switches:
            assert event.data["tuples_seen"] <= 5
        assert_rows_close(out.rows, reference_aggregate(dist, sum_query))
