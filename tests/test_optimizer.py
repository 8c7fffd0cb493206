"""Unit tests for the plan-choice optimizer."""

import pytest

from repro.core.optimizer import PlanChoice, choose_plan, rank_algorithms
from repro.costmodel.params import SystemParameters


@pytest.fixture(scope="module")
def params():
    return SystemParameters.paper_default()


class TestRankAlgorithms:
    def test_sorted_cheapest_first(self, params):
        ranking = rank_algorithms(params, 1e-6)
        costs = [cost for _name, cost in ranking]
        assert costs == sorted(costs)

    def test_two_phase_leads_at_low_selectivity(self, params):
        names = [name for name, _ in rank_algorithms(params, 1e-6)]
        assert names.index("two_phase") < names.index("repartitioning")

    def test_repartitioning_family_leads_at_high(self, params):
        names = [name for name, _ in rank_algorithms(params, 0.5)]
        assert names[0] in ("repartitioning", "adaptive_repartitioning")
        assert names.index("repartitioning") < names.index("two_phase")


class TestChoosePlan:
    def test_no_estimate_prefers_a2p(self, params):
        choice = choose_plan(params)
        assert choice.algorithm == "adaptive_two_phase"
        assert "Section 7" in choice.rationale

    def test_duplicate_elimination_hint(self, params):
        choice = choose_plan(params, expect_duplicate_elimination=True)
        assert choice.algorithm == "adaptive_repartitioning"

    def test_small_estimate(self, params):
        choice = choose_plan(params, estimated_groups=50)
        assert choice.algorithm == "adaptive_two_phase"
        assert choice.estimated_seconds is not None

    def test_large_estimate(self, params):
        choice = choose_plan(params, estimated_groups=1_000_000)
        assert choice.algorithm == "adaptive_repartitioning"

    def test_threshold_boundary(self, params):
        below = choose_plan(params, estimated_groups=319)
        at = choose_plan(params, estimated_groups=320)
        assert below.algorithm == "adaptive_two_phase"
        assert at.algorithm == "adaptive_repartitioning"

    def test_restricted_support_falls_back(self, params):
        choice = choose_plan(
            params,
            estimated_groups=1_000_000,
            supported=["two_phase", "repartitioning"],
        )
        assert choice.algorithm == "repartitioning"

    def test_single_algorithm_engine(self, params):
        choice = choose_plan(params, supported=["two_phase"])
        assert choice.algorithm == "two_phase"

    def test_empty_support_rejected(self, params):
        with pytest.raises(ValueError):
            choose_plan(params, supported=[])

    def test_negative_estimate_rejected(self, params):
        with pytest.raises(ValueError):
            choose_plan(params, estimated_groups=-1)

    def test_plan_choice_frozen(self):
        choice = PlanChoice("two_phase", "why")
        with pytest.raises(AttributeError):
            choice.algorithm = "other"
