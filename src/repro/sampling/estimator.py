"""Group-count estimation from a sample.

The distinct count observed in any sample is a *lower bound* on the
relation's group count — exactly what the crossover decision needs: if even
the sample shows more groups than the threshold, Repartitioning is safe.

``erdos_renyi_sample_size`` is the coupon-collector bound the paper cites
[ER61]: to observe ~k distinct groups of a relation that has at least k,
Θ(k log k) draws suffice; ``paper_sample_size`` is the paper's engineering
rule of thumb ("about 10 times the crossover threshold", e.g. 2563 samples
for a threshold of 320).
"""

from __future__ import annotations

import math


def distinct_lower_bound(keys) -> int:
    """Distinct values observed in the sample — a lower bound on |groups|."""
    return len(set(keys))


def erdos_renyi_sample_size(threshold: int, safety: float = 1.0) -> int:
    """Coupon-collector draws to expect all of ``threshold`` coupons.

    E[draws] = k (ln k + γ) + 1/2; ``safety`` scales the estimate for
    confidence beyond the expectation.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    if threshold == 1:
        return max(1, math.ceil(safety))
    gamma = 0.5772156649015329
    expected = threshold * (math.log(threshold) + gamma) + 0.5
    return math.ceil(expected * safety)


def paper_sample_size(threshold: int, multiplier: float = 10.0) -> int:
    """The paper's rule of thumb: ~10× the crossover threshold."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    return math.ceil(threshold * multiplier)

