"""Hardened error paths: no more swallowed or untyped failures."""

from __future__ import annotations

import functools

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.parallel import FragmentFailedError, multiprocessing_aggregate
from repro.parallel.mp_executor.kernel import _local_phase
from repro.resources import MemoryExceededError


# --- mp executor cause chains -------------------------------------------


def _raise_value_error(job):
    raise ValueError("bad fragment")


def _raise_once_then_work(marker_path, job):
    import os

    if not os.path.exists(marker_path):
        with open(marker_path, "w"):
            pass
        raise KeyError("transient")
    return _local_phase(job)


class TestMpCauseChains:
    def test_in_process_preserves_cause(self, small_dist, sum_query):
        with pytest.raises(FragmentFailedError) as err:
            multiprocessing_aggregate(
                small_dist, sum_query, processes=1, max_retries=0,
                phase_fn=_raise_value_error,
            )
        assert err.value.cause_type == "ValueError"
        assert "ValueError: bad fragment" in err.value.cause
        assert isinstance(err.value.__cause__, ValueError)

    def test_process_path_classifies_error(self, small_dist, sum_query):
        with pytest.raises(FragmentFailedError) as err:
            multiprocessing_aggregate(
                small_dist, sum_query, processes=2, max_retries=0,
                phase_fn=_raise_value_error,
            )
        assert err.value.cause_type == "ValueError"
        assert "ValueError: bad fragment" in err.value.cause

    def test_discarded_retry_errors_are_observable(
        self, small_dist, sum_query, tmp_path
    ):
        """A retried-away error must leave counters and trace instants."""
        marker = tmp_path / "marker"
        tracer = Tracer()
        reg = MetricsRegistry()
        rows = multiprocessing_aggregate(
            small_dist, sum_query, processes=1, max_retries=1,
            phase_fn=functools.partial(_raise_once_then_work, str(marker)),
            tracer=tracer, metrics=reg,
        )
        assert rows  # the retry succeeded
        assert reg.value("mp.retries") == 1
        assert reg.value("mp.errors.KeyError") == 1
        assert reg.value("mp.failed_attempts") == 1
        retries = [
            i for i in tracer.instants if i["name"] == "fragment_retry"
        ]
        assert len(retries) == 1
        assert retries[0]["args"]["error_type"] == "KeyError"
        # The failed attempt's span carries the error classification.
        failed = [
            s for s in tracer.spans
            if s.name.startswith("fragment") and not s.args.get("ok", True)
        ]
        assert len(failed) == 1

    def test_oom_retry_cause_chain(self, small_dist, sum_query):
        with pytest.raises(FragmentFailedError) as err:
            multiprocessing_aggregate(
                small_dist, sum_query, processes=1, max_retries=0,
                memory_budget_bytes=64,
            )
        assert err.value.cause_type == "MemoryExceededError"
        assert isinstance(err.value.__cause__, MemoryExceededError)
