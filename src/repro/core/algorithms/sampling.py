"""The Sampling algorithm (Section 3.1).

Before running anything, every node random-samples pages of its fragment
(priced at the random-I/O rate), aggregates the sample, and ships the
distinct group keys it saw to a coordinator — a miniature Centralized Two
Phase.  The coordinator compares the pooled distinct count (a lower bound
on the true group count) against the crossover threshold and broadcasts
the verdict; all nodes then run Two Phase or Repartitioning on the full
relation.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.algorithms.base import (
    SimConfig,
    partial_item_bytes,
)
from repro.core.algorithms.repartitioning import repartitioning_body
from repro.core.algorithms.two_phase import two_phase_body
from repro.core.query import BoundQuery
from repro.sampling.decision import (
    TWO_PHASE,
    choose_algorithm,
    crossover_threshold,
)
from repro.sampling.estimator import distinct_lower_bound, paper_sample_size
from repro.sampling.page_sampler import sample_rows
from repro.sim.node import NodeContext
from repro.storage.relation import Fragment

SAMPLE = "sample"
DECISION = "decision"
COORDINATOR = 0


def _threshold(ctx: NodeContext, cfg: SimConfig) -> int:
    if cfg.sampling_threshold is not None:
        return cfg.sampling_threshold
    return crossover_threshold(ctx.num_nodes, groups_per_node=10)


def sampling_body(
    ctx: NodeContext, fragment: Fragment, bq: BoundQuery, cfg: SimConfig
):
    """One node's Sampling run; returns its result rows."""
    threshold = _threshold(ctx, cfg)
    total_sample = paper_sample_size(threshold, cfg.sample_multiplier)
    per_node = max(1, -(-total_sample // ctx.num_nodes))
    rng = np.random.default_rng((cfg.seed, ctx.node_id))

    with ctx.phase("sampling"):
        rows, pages_read = sample_rows(
            fragment.relation, per_node, ctx.params.page_bytes, rng
        )
        if pages_read:
            yield ctx.read_pages(pages_read, random=True, tag="sample_io")
        yield ctx.select_cpu(len(rows))
        matched = [row for row in rows if bq.matches(row)]
        yield ctx.local_agg_cpu(len(matched))
        # Ship (key, sample frequency) pairs: the frequencies cost nothing
        # extra (the sample was aggregated anyway) and tell the ledger how
        # many sample tuples the decision saw.
        local_counts = Counter(bq.key_of(row) for row in matched)
        yield ctx.result_cpu(len(local_counts))
        yield ctx.send(
            COORDINATOR,
            SAMPLE,
            payload=sorted(local_counts.items()),
            nbytes=len(local_counts) * partial_item_bytes(bq),
        )

        if ctx.node_id == COORDINATOR:
            pooled: Counter = Counter()
            for _ in range(ctx.num_nodes):
                msg = yield ctx.recv(SAMPLE)
                yield ctx.compute(
                    len(msg.payload) * ctx.params.t_r, "merge_cpu"
                )
                for key, count in msg.payload:
                    pooled[key] += count
            estimated = float(distinct_lower_bound(pooled))
            choice = choose_algorithm(round(estimated), threshold)
            ctx.decision(
                "sampling_decision",
                ledger_only={
                    "sample_size": total_sample,
                    "sample_per_node": per_node,
                    "sample_tuples_pooled": sum(pooled.values()),
                },
                distinct_in_sample=len(pooled),
                estimated_groups=estimated,
                threshold=threshold,
                choice=choice,
            )
            for dst in range(ctx.num_nodes):
                yield ctx.send(dst, DECISION, payload=choice)

        decision = yield ctx.recv(DECISION)
    if decision.payload == TWO_PHASE:
        results = yield from two_phase_body(ctx, fragment, bq, cfg)
    else:
        results = yield from repartitioning_body(ctx, fragment, bq, cfg)
    return results
