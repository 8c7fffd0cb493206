"""The Sampling coordinator's group-count figure in its ledger entry."""

from repro.core.runner import run_algorithm
from repro.workloads.generator import generate_uniform


class TestEstimatorConfig:
    def test_estimated_groups_logged_as_float(self, sum_query):
        dist = generate_uniform(2000, 50, 4, seed=3)
        out = run_algorithm("sampling", dist, sum_query)
        data = out.ledger.events_of("sampling_decision")[0].data
        assert isinstance(data["estimated_groups"], float)
        assert data["estimated_groups"] == data["distinct_in_sample"]
        assert "estimator" not in data
