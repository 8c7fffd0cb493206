"""The typed memory errors of the real executor and the spill path."""

import pytest

from repro.resources import MemoryExceededError, SpillDepthExceededError


class TestErrors:
    def test_memory_exceeded_carries_high_water(self):
        err = MemoryExceededError("local", 1000, 960, requested_bytes=64)
        assert err.operator == "local"
        assert err.budget_bytes == 1000
        assert err.high_water_bytes == 960
        assert err.requested_bytes == 64
        assert "960" in str(err)

    def test_spill_depth_reports_skew(self):
        err = SpillDepthExceededError(
            depth=32, largest_bucket_items=99, total_spilled_items=100,
            max_entries=4,
        )
        assert err.bucket_share == pytest.approx(0.99)
        assert "skew" in str(err)
