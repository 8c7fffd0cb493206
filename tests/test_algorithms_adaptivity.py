"""Behavioral tests of the adaptive decisions themselves.

Correctness says the answers are right; these tests pin down *when* the
algorithms switch, which is the paper's actual contribution.
"""

import pytest

from repro.core.runner import default_parameters, run_algorithm
from repro.parallel import reference_aggregate
from repro.workloads.generator import generate_uniform
from repro.workloads.skew import generate_output_skew

from tests.conftest import assert_rows_close


class TestAdaptiveTwoPhase:
    def test_no_switch_when_groups_fit(self, sum_query):
        dist = generate_uniform(4000, 8, 4, seed=0)
        params = default_parameters(dist, hash_table_entries=100)
        out = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        assert not out.ledger.events_of("switch_to_repartitioning")

    def test_all_nodes_switch_when_groups_overflow(self, sum_query):
        dist = generate_uniform(4000, 500, 4, seed=0)
        params = default_parameters(dist, hash_table_entries=50)
        out = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        switches = out.ledger.events_of("switch_to_repartitioning")
        assert len(switches) == 4
        assert {e.node for e in switches} == {0, 1, 2, 3}

    def test_switch_happens_at_table_capacity(self, sum_query):
        dist = generate_uniform(4000, 500, 4, seed=0)
        params = default_parameters(dist, hash_table_entries=50)
        out = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        for event in out.ledger.events_of("switch_to_repartitioning"):
            assert event.data["groups_accumulated"] == 50

    def test_no_spill_io_in_local_phase_after_switch(self, sum_query):
        """The point of switching: A-2P never spools local overflow."""
        dist = generate_uniform(4000, 1000, 4, seed=1)
        params = default_parameters(dist, hash_table_entries=20)
        a2p = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        # The merge phase may still spill (its groups also exceed M),
        # but two_phase must spill strictly more overall.
        tp = run_algorithm("two_phase", dist, sum_query, params=params)
        assert (
            a2p.metrics.total_spill_pages < tp.metrics.total_spill_pages
        )

    def test_partial_and_raw_mix_is_exact(self, sum_query):
        """Pre-switch partials + post-switch raw merge to the truth."""
        dist = generate_uniform(4000, 300, 4, seed=2)
        params = default_parameters(dist, hash_table_entries=100)
        out = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        assert out.ledger.events_of("switch_to_repartitioning")
        assert_rows_close(out.rows, reference_aggregate(dist, sum_query))


class TestAdaptiveRepartitioning:
    def test_stays_with_rep_when_groups_many(self, sum_query):
        dist = generate_uniform(6000, 2000, 4, seed=3)
        out = run_algorithm(
            "adaptive_repartitioning",
            dist,
            sum_query,
            arep_switch_groups=40,
            init_seg=400,
        )
        assert not out.ledger.events_of("switch_to_two_phase")

    def test_falls_back_when_groups_few(self, sum_query):
        dist = generate_uniform(6000, 8, 4, seed=4)
        out = run_algorithm(
            "adaptive_repartitioning",
            dist,
            sum_query,
            arep_switch_groups=40,
            init_seg=400,
        )
        assert out.ledger.events_of("switch_to_two_phase")

    def test_end_of_phase_propagates(self, sum_query):
        """One node's decision drags every node out of Rep."""
        dist = generate_uniform(6000, 8, 4, seed=5)
        out = run_algorithm(
            "adaptive_repartitioning",
            dist,
            sum_query,
            arep_switch_groups=40,
            init_seg=400,
        )
        switched = {
            e.node for e in out.ledger.events_of("switch_to_two_phase")
        }
        notified = {
            e.node for e in out.ledger.events_of("end_of_phase_received")
        }
        assert switched | notified == {0, 1, 2, 3}

    def test_network_traffic_drops_after_fallback(self, sum_query):
        """Once in 2P mode, only partials travel — far fewer bytes than
        staying with Rep."""
        dist = generate_uniform(6000, 8, 4, seed=6)
        arep = run_algorithm(
            "adaptive_repartitioning",
            dist,
            sum_query,
            arep_switch_groups=40,
            init_seg=200,
        )
        rep = run_algorithm("repartitioning", dist, sum_query)
        assert (
            arep.metrics.total_bytes_sent < 0.5 * rep.metrics.total_bytes_sent
        )


class TestSampling:
    def test_decision_logged(self, sum_query):
        dist = generate_uniform(4000, 8, 4, seed=7)
        out = run_algorithm(
            "sampling", dist, sum_query, sampling_threshold=40
        )
        decisions = out.ledger.events_of("sampling_decision")
        assert len(decisions) == 1
        assert decisions[0].data["choice"] == "two_phase"

    def test_picks_repartitioning_for_many_groups(self, sum_query):
        dist = generate_uniform(4000, 1500, 4, seed=8)
        out = run_algorithm(
            "sampling", dist, sum_query, sampling_threshold=40
        )
        assert (
            out.ledger.events_of("sampling_decision")[0].data["choice"]
            == "repartitioning"
        )

    def test_sample_is_lower_bound(self, sum_query):
        dist = generate_uniform(4000, 100, 4, seed=9)
        out = run_algorithm(
            "sampling", dist, sum_query, sampling_threshold=40
        )
        seen = out.ledger.events_of("sampling_decision")[0].data[
            "distinct_in_sample"
        ]
        assert seen <= 100

    def test_sampling_charges_random_io(self, sum_query):
        dist = generate_uniform(4000, 8, 4, seed=10)
        out = run_algorithm(
            "sampling", dist, sum_query, sampling_threshold=40
        )
        tagged = out.metrics.node(0).tagged_seconds
        assert tagged.get("sample_io", 0.0) > 0


class TestOutputSkewBehavior:
    def test_only_group_rich_nodes_switch(self, sum_query):
        """The Section 6 story: under output skew only the nodes holding
        many groups abandon Two Phase."""
        dist = generate_output_skew(8000, 1000, num_nodes=8, seed=11)
        params = default_parameters(dist, hash_table_entries=60)
        out = run_algorithm(
            "adaptive_two_phase", dist, sum_query, params=params
        )
        switched = {
            e.node for e in out.ledger.events_of("switch_to_repartitioning")
        }
        assert switched == {4, 5, 6, 7}  # the group-rich half

    def test_adaptive_beats_both_traditional_under_output_skew(
        self, sum_query
    ):
        """Figure 9's headline: A-2P under output skew beats the best of
        2P and Rep."""
        dist = generate_output_skew(16000, 2000, num_nodes=8, seed=12)
        params = default_parameters(dist)
        times = {
            name: run_algorithm(name, dist, sum_query, params=params)
            .elapsed_seconds
            for name in (
                "two_phase",
                "repartitioning",
                "adaptive_two_phase",
            )
        }
        assert times["adaptive_two_phase"] < times["two_phase"]
        assert times["adaptive_two_phase"] < times["repartitioning"]


class TestOptimizedTwoPhase:
    def test_forwards_on_overflow(self, sum_query):
        dist = generate_uniform(4000, 500, 4, seed=13)
        params = default_parameters(dist, hash_table_entries=50)
        out = run_algorithm(
            "optimized_two_phase", dist, sum_query, params=params
        )
        assert out.ledger.events_of("forwarded_on_overflow")

    def test_no_forwarding_when_memory_suffices(self, sum_query):
        dist = generate_uniform(4000, 8, 4, seed=14)
        params = default_parameters(dist, hash_table_entries=100)
        out = run_algorithm(
            "optimized_two_phase", dist, sum_query, params=params
        )
        assert not out.ledger.events_of("forwarded_on_overflow")
