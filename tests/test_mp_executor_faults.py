"""Failure handling of the multiprocessing executor.

Covers the hardened dispatch loop: raising workers, workers that die
without reporting, wedged workers hitting the per-attempt timeout, the
bounded retry policy, the in-process fallback's retry path, the error
surface a caller branches on (``cause_type``, the ``raise … from
WorkerFailure`` chain, the ``mp.retries`` / ``mp.errors.<Type>``
metrics), and the result-merge aliasing regression (same
DistributedRelation run twice must give identical results).
"""

import functools
import os
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    FragmentFailedError,
    WorkerFailure,
    multiprocessing_aggregate,
    reference_aggregate,
    reset_pool_breaker,
)
from repro.parallel.mp_executor.kernel import _local_phase
from repro.workloads.generator import generate_uniform

from tests.conftest import assert_rows_close


# Worker functions must be module-level (picklable) to cross the
# process boundary; per-test state rides in functools.partial.

def _always_raise(job):
    raise RuntimeError("injected failure")


def _die_once_then_work(marker_path, job):
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        os._exit(17)  # hard death: no exception, no result on the pipe
    return _local_phase(job)


def _raise_once_then_work(marker_path, job):
    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        raise ValueError("transient failure")
    return _local_phase(job)


def _fail_on_marker_row(marker_row, job):
    rows, _query, _schema = job
    if rows and tuple(rows[0]) == tuple(marker_row):
        raise RuntimeError("poisoned fragment")
    return _local_phase(job)


def _wedge(job):
    time.sleep(60)


def _always_die(job):
    os._exit(31)


class TestMergeAliasing:
    def test_same_relation_twice_identical(self, sum_query):
        """Regression: merging must never mutate the pooled partials.

        Running the same DistributedRelation twice has to produce
        identical results — an aliasing merge would fold earlier
        answers into later ones.
        """
        dist = generate_uniform(1600, 24, 4, seed=9)
        first = multiprocessing_aggregate(dist, sum_query, processes=2)
        second = multiprocessing_aggregate(dist, sum_query, processes=2)
        assert first == second
        assert_rows_close(first, reference_aggregate(dist, sum_query))

    def test_same_relation_twice_inprocess(self, full_query):
        dist = generate_uniform(1200, 16, 4, seed=10)
        first = multiprocessing_aggregate(dist, full_query, processes=1)
        second = multiprocessing_aggregate(dist, full_query, processes=1)
        assert first == second
        assert_rows_close(first, reference_aggregate(dist, full_query))


class TestWorkerFailures:
    def test_raising_worker_exhausts_retries(self, sum_query):
        dist = generate_uniform(400, 8, 2, seed=0)
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, sum_query, processes=2, max_retries=1,
                phase_fn=_always_raise,
            )
        err = info.value
        assert err.attempts == 2  # first try + one retry
        assert "injected failure" in err.cause
        assert isinstance(err.partial_results, dict)

    def test_dead_worker_recovers_via_retry(self, sum_query, tmp_path):
        """A worker killed mid-job (no exception, no result) is retried."""
        dist = generate_uniform(800, 12, 2, seed=1)
        fn = functools.partial(
            _die_once_then_work, str(tmp_path / "died")
        )
        got = multiprocessing_aggregate(
            dist, sum_query, processes=2, max_retries=2, phase_fn=fn
        )
        assert_rows_close(got, reference_aggregate(dist, sum_query))

    def test_dead_worker_without_retries_raises(self, sum_query, tmp_path):
        dist = generate_uniform(400, 8, 2, seed=2)
        fn = functools.partial(
            _die_once_then_work, str(tmp_path / "died")
        )
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, sum_query, processes=2, max_retries=0, phase_fn=fn
            )
        assert "died without a result" in info.value.cause

    def test_wedged_worker_times_out_never_hangs(self, sum_query):
        dist = generate_uniform(400, 8, 2, seed=3)
        start = time.monotonic()
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, sum_query, processes=2, max_retries=0,
                timeout=0.5, phase_fn=_wedge,
            )
        assert time.monotonic() - start < 30
        assert "timed out" in info.value.cause

    def test_partial_results_carried_on_failure(self, sum_query):
        """The error carries every fragment that did complete."""
        dist = generate_uniform(900, 12, 3, seed=4)
        marker_row = dist.fragments[2].relation.rows[0]
        fn = functools.partial(_fail_on_marker_row, marker_row)
        # In-process execution is sequential, so fragments 0 and 1 are
        # guaranteed done by the time fragment 2 fails.
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, sum_query, processes=1, max_retries=0, phase_fn=fn
            )
        err = info.value
        assert err.fragment_index == 2
        assert sorted(err.partial_results) == [0, 1]

    def test_inprocess_retry_recovers(self, sum_query, tmp_path):
        dist = generate_uniform(600, 8, 2, seed=5)
        fn = functools.partial(
            _raise_once_then_work, str(tmp_path / "raised")
        )
        got = multiprocessing_aggregate(
            dist, sum_query, processes=1, max_retries=1, phase_fn=fn
        )
        assert_rows_close(got, reference_aggregate(dist, sum_query))


class TestFailureSurface:
    """What a caller sees when a pooled fragment fails for good: the
    typed ``cause_type``, the ``WorkerFailure`` cause chain and the
    retry metrics, per failure class."""

    @pytest.fixture(autouse=True)
    def fresh_breaker(self):
        reset_pool_breaker()
        yield
        reset_pool_breaker()

    @staticmethod
    def _fail(query, error_type, **kwargs):
        # One fragment: the retry metric counts are deterministic.
        dist = generate_uniform(400, 8, 1, seed=0)
        metrics = MetricsRegistry()
        with pytest.raises(FragmentFailedError) as info:
            multiprocessing_aggregate(
                dist, query, processes=2, max_retries=1, metrics=metrics,
                **kwargs,
            )
        err = info.value
        assert err.cause_type == error_type
        assert err.attempts == 2
        assert err.fragment_index == 0
        assert isinstance(err.__cause__, WorkerFailure)
        assert err.__cause__.error_type == error_type
        assert metrics.value("mp.retries") == 1
        assert metrics.value(f"mp.errors.{error_type}") == 1
        return err

    def test_worker_error(self, sum_query):
        err = self._fail(sum_query, "RuntimeError", phase_fn=_always_raise)
        assert err.cause == "RuntimeError: injected failure"
        assert str(err.__cause__) == err.cause

    def test_timeout(self, sum_query):
        err = self._fail(
            sum_query, "Timeout", timeout=0.5, phase_fn=_wedge
        )
        assert "timed out after 0.5s" in err.cause

    def test_worker_death(self, sum_query):
        err = self._fail(sum_query, "WorkerDied", phase_fn=_always_die)
        assert "died without a result" in err.cause

    def test_death_recovery_is_counted(self, sum_query, tmp_path):
        dist = generate_uniform(400, 8, 1, seed=0)
        fn = functools.partial(_die_once_then_work, str(tmp_path / "died"))
        metrics = MetricsRegistry()
        got = multiprocessing_aggregate(
            dist, sum_query, processes=2, max_retries=2, phase_fn=fn,
            metrics=metrics,
        )
        assert got == multiprocessing_aggregate(dist, sum_query, 1)
        assert metrics.value("mp.errors.WorkerDied") == 1


class TestArgumentValidation:
    def test_rejects_negative_retries(self, sum_query, small_dist):
        with pytest.raises(ValueError):
            multiprocessing_aggregate(
                small_dist, sum_query, max_retries=-1
            )

    def test_rejects_nonpositive_timeout(self, sum_query, small_dist):
        with pytest.raises(ValueError):
            multiprocessing_aggregate(small_dist, sum_query, timeout=0)
