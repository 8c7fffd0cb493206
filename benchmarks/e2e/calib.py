"""The calibration unit (`cu`): the pinned kernels and the adjacent-sample rule.

The host this benchmark runs on is a small shared box whose speed drifts
by 10-30 % over minutes, so a raw millisecond is not a unit.  Every op is
therefore bracketed by two calibration samples taken while the system
under test is idle, and its calibrated time is

    op_wall / mean_np

where ``mean_np`` is the mean of the numpy kernel's time in the two
adjacent samples.  One `cu` is one pass of that kernel (≈25-30 ms here).

A second kernel, an interpreter loop, is timed once per run and reported
as part of the machine's fingerprint, but it is *not* part of the unit.
A Python loop over 150 000 heap objects is as fast as its objects'
addresses let it be: six lists built one after the other in one process
gave medians from 4.4 to 8.5 ms.  That luck is constant while the list
lives, so adjacent sampling cannot see it, and different in the next
process, so it lands in the run-to-run spread in full.  Measured over ten
15 s runs per workload (README, "The unit"), dividing by the interpreter
kernel was no steadier than not calibrating at all, and the geometric
mean of the two kernels was about twice as unsteady as the numpy kernel
alone, on the interpreter-bound workloads too.

Both kernels are pinned forever.  Changing a constant below, the seed or
either loop body defines a *new* benchmark whose numbers must not be
compared with the old one's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CALIB_SEED = 1995
NP_ELEMENTS = 500_000
NP_DISTINCT = 20_000
NP_REPS = 2
PY_PAIRS = 150_000
PY_SLOTS = 1_024
PY_REPS = 5

# A run whose own calibration samples spread wider than this (IQR over
# median) was measured on a host too unsteady to trust.
NOISY_IQR_OVER_MEDIAN = 0.15


def iqr_over_median(values) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Calibrator:
    """Owns the kernels' fixed inputs and every sample taken in this run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(CALIB_SEED)
        self._keys = rng.integers(0, NP_DISTINCT, NP_ELEMENTS)
        self._weights = rng.uniform(0.0, 100.0, NP_ELEMENTS)
        self._pairs = list(
            zip(
                rng.integers(0, PY_SLOTS, PY_PAIRS).tolist(),
                rng.integers(1, 100, PY_PAIRS).tolist(),
            )
        )
        self._acc = [0] * PY_SLOTS
        self.samples: list[float] = []

    def calib_np(self) -> float:
        """Sort-based grouping + weighted fold, as the columnar kernel does."""
        start = time.perf_counter()
        _, inverse = np.unique(self._keys, return_inverse=True)
        np.bincount(inverse, weights=self._weights)
        return time.perf_counter() - start

    def calib_py(self) -> float:
        """A per-row accumulate loop that allocates no container."""
        acc = self._acc
        for slot in range(PY_SLOTS):
            acc[slot] = 0
        pairs = self._pairs
        start = time.perf_counter()
        for k, v in pairs:
            acc[k] += v
        return time.perf_counter() - start

    def sample(self) -> float:
        """Seconds per pass of the numpy kernel, now; call only while the
        system under test is idle."""
        taken = sum(self.calib_np() for _ in range(NP_REPS)) / NP_REPS
        self.samples.append(taken)
        return taken

    @staticmethod
    def unit(before: float, after: float) -> float:
        """Seconds per `cu` for an op that ran between two samples."""
        return (before + after) / 2.0

    def fingerprint(self) -> dict:
        """The machine's speed, and its steadiness over this run's
        samples.  Times the interpreter kernel, so call it once, idle."""
        spread = iqr_over_median(self.samples)
        return {
            "np_ms": statistics.median(self.samples) * 1e3,
            "py_ms": statistics.median(
                self.calib_py() for _ in range(PY_REPS)) * 1e3,
            "cv": spread,
            "samples": len(self.samples),
            "noisy": spread > NOISY_IQR_OVER_MEDIAN,
        }
