"""Observability must not change answers: parity guarantees.

The whole layer is opt-in; these tests pin the contract that a traced
run and an untraced run of the same workload are *bit-identical* (rows
and every metric), for every algorithm, and that the simulator and the real multiprocessing executor agree.
"""

from __future__ import annotations

import json

import pytest

from repro.core.runner import ALGORITHMS, run_algorithm
from repro.obs import DecisionLedger, MetricsRegistry, Tracer
from repro.parallel import multiprocessing_aggregate

from tests.conftest import assert_rows_close


def fingerprint(outcome):
    return (
        outcome.rows,
        outcome.elapsed_seconds,
        json.dumps(outcome.metrics.to_dict(), sort_keys=True),
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_tracing_off_vs_on_bit_identical(algorithm, small_dist, full_query):
    plain = run_algorithm(algorithm, small_dist, full_query)
    traced = run_algorithm(
        algorithm, small_dist, full_query, tracer=Tracer()
    )
    assert fingerprint(plain) == fingerprint(traced)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ledger_off_vs_on_bit_identical(algorithm, small_dist, full_query):
    """The decision ledger is observe-only: handing in one's own ledger
    changes nothing."""
    plain = run_algorithm(algorithm, small_dist, full_query)
    with_ledger = run_algorithm(
        algorithm, small_dist, full_query, ledger=DecisionLedger()
    )
    assert fingerprint(plain) == fingerprint(with_ledger)


def test_ledger_and_tracer_together_bit_identical(small_dist, full_query):
    plain = run_algorithm("sampling", small_dist, full_query)
    observed = run_algorithm(
        "sampling", small_dist, full_query,
        tracer=Tracer(), ledger=DecisionLedger(),
    )
    assert fingerprint(plain) == fingerprint(observed)


def test_mp_observability_does_not_change_rows(small_dist, sum_query):
    plain = multiprocessing_aggregate(small_dist, sum_query, processes=2)
    observed = multiprocessing_aggregate(
        small_dist, sum_query, processes=2,
        tracer=Tracer(), metrics=MetricsRegistry(), profiles=[],
    )
    assert plain == observed


def test_sim_vs_mp_metrics_parity(small_dist, full_query):
    """The two substrates agree on answers and on what they report."""
    sim = run_algorithm("two_phase", small_dist, full_query)
    reg = MetricsRegistry()
    profiles = []
    rows = multiprocessing_aggregate(
        small_dist, full_query, processes=2,
        metrics=reg, profiles=profiles,
    )
    assert_rows_close(rows, sim.rows)

    sim_reg = MetricsRegistry.from_cluster_metrics(sim.metrics)
    # Both registries use the same typed-handle namespace and report the
    # same work shape: one fragment/node per partition, every group out.
    assert reg.value("mp.fragments") == small_dist.num_nodes
    assert sim_reg.histogram("sim.node_busy_seconds").count == (
        small_dist.num_nodes
    )
    assert reg.value("mp.groups_output") == len(rows)
    assert reg.value("mp.attempts") == small_dist.num_nodes
    assert "mp.retries" not in reg  # clean run creates no retry handles
    assert len(profiles) == small_dist.num_nodes
    for profile in profiles:
        assert profile.wall_seconds >= 0.0
        assert profile.max_rss_bytes > 0
    # Snapshots of both registries serialize the same way.
    json.dumps(reg.snapshot())
    json.dumps(sim_reg.snapshot())
