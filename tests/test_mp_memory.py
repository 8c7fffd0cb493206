"""Rung 4 of the ladder: the mp executor's budgeted retry path."""

import pytest

from tests.conftest import assert_rows_close, kernel_declines

from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.parallel import multiprocessing_aggregate, reference_aggregate
from repro.parallel.mp_executor import FragmentFailedError
from repro.parallel.mp_executor.kernel import _GovernedPhase
from repro.parallel.mp_executor.merge import _is_packed, _unpack_packed
from repro.resources import MemoryExceededError
from repro.workloads.generator import generate_uniform

TIGHT_BUDGET = 1500  # far below what 400 groups of partials need


@pytest.fixture
def dist():
    return generate_uniform(
        num_tuples=2000, num_groups=400, num_nodes=4, seed=3
    )


@pytest.fixture
def query():
    return AggregateQuery(
        group_by=["gkey"], aggregates=[AggregateSpec("sum", "val")]
    )


class TestWatchdog:
    def test_raises_with_high_water_mark(self, dist, query):
        job = (dist.fragments[0].relation.rows, query, dist.schema)
        phase = _GovernedPhase(TIGHT_BUDGET, spill=False)
        with pytest.raises(MemoryExceededError) as info:
            phase(job)
        err = info.value
        assert err.operator == "mp_local_phase"
        assert err.budget_bytes == TIGHT_BUDGET
        assert 0 < err.high_water_bytes <= TIGHT_BUDGET
        assert err.requested_bytes > 0

    def test_fits_when_budget_is_ample(self, dist, query):
        job = (dist.fragments[0].relation.rows, query, dist.schema)
        ample = _GovernedPhase(10**9, spill=False)(job)
        spilled = _GovernedPhase(TIGHT_BUDGET, spill=True)(job)
        assert sorted(k for k, _ in ample) == sorted(k for k, _ in spilled)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            _GovernedPhase(0, spill=False)


class TestKernelCeiling:
    """The first attempt on a block is the columnar kernel under a group
    ceiling: it must refuse exactly where, and exactly how, the per-row
    watchdog refuses the same tuples."""

    QUERIES = {
        "grouped": "SELECT gkey, SUM(val) FROM r GROUP BY gkey",
        "where": "SELECT gkey, COUNT(*) FROM r WHERE val >= 50 "
                 "GROUP BY gkey",
        "multikey": "SELECT gkey, pad, AVG(val) FROM r GROUP BY gkey, pad",
        "scalar": "SELECT SUM(val), COUNT(*) FROM r",
    }

    @staticmethod
    def _outcome(phase, job):
        try:
            partial = phase(job)
            if _is_packed(partial):  # a block: the kernel's one exit
                partial = _unpack_packed(partial, job[1])
            return sorted(key for key, _state in partial)
        except MemoryExceededError as exc:
            return (
                exc.operator, exc.budget_bytes, exc.high_water_bytes,
                exc.requested_bytes, str(exc),
            )

    @pytest.mark.parametrize("budget", [1, 16, 17, 24, TIGHT_BUDGET, 10**9])
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_same_error_or_same_groups_as_the_watchdog(
        self, dist, shape, budget
    ):
        from repro.parallel.mp_executor.kernel import _take_declines
        from repro.sql import parse_query

        _name, query = parse_query(self.QUERIES[shape])
        relation = dist.fragments[0].relation
        phase = _GovernedPhase(budget, spill=False)
        per_row = self._outcome(phase, (relation.rows, query, dist.schema))
        _take_declines()
        kernel = self._outcome(phase, (relation.block, query, dist.schema))
        assert _take_declines() == {}  # the block never left the kernel
        assert kernel == per_row
        if shape == "scalar":
            # One 16-byte entry (8 projected + 8 overhead) fits exactly.
            assert (kernel == [()]) is (budget >= 16)
        elif budget <= TIGHT_BUDGET:
            assert kernel[0] == "mp_local_phase"

    def test_spill_retry_is_a_counted_decline(self, dist, query):
        from repro.obs.metrics import MetricsRegistry

        for processes in (1, 2):
            registry = MetricsRegistry()
            got = multiprocessing_aggregate(
                dist, query, processes=processes, metrics=registry,
                memory_budget_bytes=TIGHT_BUDGET,
            )
            assert_rows_close(got, reference_aggregate(dist, query))
            retries = registry.snapshot()["mp.retries"]["value"]
            assert retries >= len(dist.fragments)
            assert kernel_declines(registry) == {"spill_retry": retries}


class TestRetryLadder:
    """An over-budget fragment must complete exactly via spill retries."""

    def test_survives_oom_with_processes(self, dist, query):
        expected = reference_aggregate(dist, query)
        got = multiprocessing_aggregate(
            dist, query, processes=2,
            memory_budget_bytes=TIGHT_BUDGET,
        )
        assert_rows_close(got, expected)

    def test_survives_oom_in_process(self, dist, query):
        expected = reference_aggregate(dist, query)
        got = multiprocessing_aggregate(
            dist, query, processes=1,
            memory_budget_bytes=TIGHT_BUDGET,
        )
        assert_rows_close(got, expected)

    def test_no_retries_means_oom_is_fatal(self, dist, query):
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, query, processes=1, max_retries=0,
                memory_budget_bytes=TIGHT_BUDGET,
            )
        assert "MemoryExceededError" in info.value.cause

    def test_generous_budget_never_trips(self, dist, query):
        expected = reference_aggregate(dist, query)
        got = multiprocessing_aggregate(
            dist, query, processes=1, max_retries=0,
            memory_budget_bytes=10**9,
        )
        assert_rows_close(got, expected)


class TestArgumentValidation:
    def test_budget_and_phase_fn_are_exclusive(self, dist, query):
        with pytest.raises(ValueError, match="not both"):
            multiprocessing_aggregate(
                dist, query, phase_fn=lambda job: [],
                memory_budget_bytes=100,
            )

    def test_budget_must_be_positive(self, dist, query):
        with pytest.raises(ValueError, match="positive"):
            multiprocessing_aggregate(
                dist, query, memory_budget_bytes=0
            )
