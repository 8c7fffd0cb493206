"""Peak-memory accounting: the Section 2.2 memory argument, measured.

"Since a group value is being accumulated on potentially all the nodes
the overall memory requirement can be large" (Two Phase) vs
Repartitioning, where "each group value is stored in one place only".
"""

from repro.core.runner import default_parameters, run_algorithm
from repro.workloads.generator import generate_uniform

NODES = 4


def run(name, dist, sum_query, m=10_000):
    params = default_parameters(dist, hash_table_entries=m)
    return run_algorithm(name, dist, sum_query, params=params)


class TestMemoryClaim:
    def test_two_phase_uses_n_times_repartitioning_memory(self, sum_query):
        """With G groups spread on every node: 2P ≈ N·G entries total,
        Rep ≈ G."""
        groups = 200
        dist = generate_uniform(4000, groups, NODES, seed=0)
        tp = run("two_phase", dist, sum_query)
        rep = run("repartitioning", dist, sum_query)
        assert tp.metrics.total_peak_table_entries >= 0.9 * NODES * groups
        assert rep.metrics.total_peak_table_entries <= 1.1 * groups

    def test_repartitioning_spreads_groups_evenly(self, sum_query):
        groups = 400
        dist = generate_uniform(4000, groups, NODES, seed=1)
        rep = run("repartitioning", dist, sum_query)
        peaks = [n.peak_table_entries for n in rep.metrics.nodes]
        assert max(peaks) < 2 * (groups / NODES)

    def test_bounded_table_caps_local_peak(self, sum_query):
        """No node's table ever exceeds its M allocation in A-2P's local
        phase (the merge phase has its own allocation)."""
        m = 50
        dist = generate_uniform(4000, 1000, NODES, seed=2)
        out = run("adaptive_two_phase", dist, sum_query, m=m)
        for event in out.ledger.events_of("switch_to_repartitioning"):
            assert event.data["groups_accumulated"] <= m

    def test_a2p_total_memory_below_two_phase(self, sum_query):
        """Switching frees the local tables, so A-2P's cluster-wide peak
        stays below plain 2P's when groups overflow."""
        dist = generate_uniform(4000, 1000, NODES, seed=3)
        a2p = run("adaptive_two_phase", dist, sum_query, m=100)
        tp = run("two_phase", dist, sum_query, m=10_000)
        assert (
            a2p.metrics.total_peak_table_entries
            < tp.metrics.total_peak_table_entries
        )

    def test_scalar_query_tiny_memory(self, sum_query):
        dist = generate_uniform(1000, 1, NODES, seed=4)
        tp = run("two_phase", dist, sum_query)
        assert tp.metrics.total_peak_table_entries <= 2 * NODES
