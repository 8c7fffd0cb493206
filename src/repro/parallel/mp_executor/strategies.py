"""The strategies beyond plain two-phase: the two Rep rounds, and
``auto``'s pre-run sample and mid-run controller."""

from __future__ import annotations

from repro.core.aggregates import GroupState
from repro.obs.decisions import (
    MP_STRATEGY_CHOICE,
    MP_STRATEGY_RESAMPLE,
    VERDICT_CORRECT,
    VERDICT_WRONG_CHEAP,
    VERDICT_WRONG_COSTLY,
)
from repro.parallel.mp_executor.kernel import (
    _columnar_group_keys,
    _decline,
    _filter_block,
    _global_phase,
    _local_phase,
)
from repro.parallel.mp_executor.merge import _is_packed, _key_tuples
from repro.parallel.mp_executor.pool import (
    _get_shared_pool,
    _run_jobs_in_pool,
    _run_jobs_in_process,
)
from repro.parallel.mp_executor.wire import _projection_for, _Shipment
from repro.storage.columnblock import ColumnBlock
from repro.storage.hashing import stable_hash


class _RepPartitionPhase:
    """Round 1 of ``strategy="rep"``: hash-partition a fragment's rows
    into ``num_buckets`` disjoint key ranges (the paper's Repartitioning
    redistribution step, minus the network).  Picklable, so the pool can
    ship it like any substituted phase function.
    """

    __slots__ = ("num_buckets",)

    def __init__(self, num_buckets: int) -> None:
        self.num_buckets = num_buckets

    def __call__(self, job):
        rows, query, schema = job
        # Every chunk leaves in the projected rep schema — whether the
        # fragment arrived as a block that shipped projected, a full
        # block in-process, or full-width rows (row-born in-process, or
        # an inline fallback) — so round 2 decodes one shape.
        if isinstance(rows, ColumnBlock):
            block = rows
            proj = _projection_for(query, block.schema)
            if proj is not None:
                schema, idx = proj
                block = block.project(idx, schema)
            out = self._partition_block(block, query, schema)
            if out is not None:
                return out
            rows = block.to_rows()
            idx = None
        else:
            _decline("row_source")
            proj = _projection_for(query, schema)
            idx = proj[1] if proj is not None else None
        bq = query.bind(schema)
        buckets: list[list] = [[] for _ in range(self.num_buckets)]
        memo: dict[tuple, int] = {}
        for row in rows:
            if not bq.matches(row):
                continue
            key = bq.key_of(row)
            b = memo.get(key)
            if b is None:
                b = stable_hash(key) % self.num_buckets
                memo[key] = b
            if idx is not None:
                row = tuple(row[i] for i in idx)
            buckets[b].append(row)
        return ("rep_rows", [chunk or None for chunk in buckets])

    def _partition_block(self, block, query, schema):
        """Vectorized partition of a ColumnBlock; None (the kernel's
        guards recorded why) to go per-row.

        Keeps the rows that pass WHERE, computes each one's bucket
        through the same ``stable_hash(key)`` the per-row path uses (so
        a retried fragment that falls back per-row lands every group in
        the same bucket) and slices the block columns by bucket mask —
        each chunk re-serializes with the parent dictionary, codes
        untouched.
        """
        import numpy as np

        block = _filter_block(block, query)
        if block is None:
            return None
        comp = _columnar_group_keys(block, query)
        if comp is None:
            return None
        decoded_cols, inv, n_groups = comp
        lut = np.empty(max(n_groups, 1), dtype=np.int64)
        for g, key in enumerate(_key_tuples(decoded_cols, n_groups)):
            lut[g] = stable_hash(key) % self.num_buckets
        row_buckets = lut[inv]
        chunks = []
        for b in range(self.num_buckets):
            mask = row_buckets == b
            n = int(mask.sum())
            if not n:
                chunks.append(None)
                continue
            sub = ColumnBlock(
                schema, n, [arr[mask] for arr in block.columns],
                block.dictionaries,
            )
            chunks.append(sub.to_bytes())
        return ("rep_blocks", chunks)


def _rep_bucket_phase(job):
    """Round 2 of ``strategy="rep"``: aggregate one bucket's chunks.

    ``job`` is ``(chunks, query, schema)`` with one chunk per source
    fragment, in fragment order: ``("block", bytes)`` for a columnar
    slice or ``("rows", rows)`` for a per-row slice.  Each chunk is
    aggregated exactly like a 2P fragment (:func:`_local_phase`: kernel
    first, per-row on a decline) and the per-chunk partials merged in
    fragment order — reproducing the 2P merge's operation order bit for bit,
    just sharded by key range.
    """
    chunks, query, schema = job
    merged: dict[tuple, GroupState] = {}
    for kind, payload in chunks:
        if kind == "block":
            payload = ColumnBlock.from_bytes(schema, payload)
        for key, state in _local_phase((payload, query, schema)):
            mine = merged.get(key)
            if mine is None:
                mine = GroupState(query.aggregates)
                merged[key] = mine
            mine.merge(state)
    return list(merged.items())


def _run_rep_strategy(
    jobs, query, schema, processes, max_retries, timeout, obs,
    deadline=None,
):
    """Dispatch both Rep rounds; returns per-bucket partial lists.

    Round 1 hash-partitions each fragment into ``len(jobs)`` disjoint
    key buckets (:class:`_RepPartitionPhase` — vectorized for columnar
    segments, per-row otherwise).  Round 2 aggregates each bucket's
    chunks in fragment order (:func:`_rep_bucket_phase`), so the final
    parent merge sees one partial per key and the result is
    bit-identical to the 2P strategies.  Both rounds reuse the shared
    worker pool; in-process when ``processes <= 1``.
    """
    num_buckets = len(jobs)
    part_fn = _RepPartitionPhase(num_buckets)

    def part_for(_attempt):
        return part_fn

    if processes <= 1:
        round1 = _run_jobs_in_process(
            part_for, jobs, max_retries, obs, run_deadline=deadline
        )
    else:
        with _Shipment(jobs, obs) as shipment:
            round1 = _run_jobs_in_pool(
                part_for, shipment.ship(), processes, max_retries, timeout,
                obs, _get_shared_pool(), reencode=shipment.reencode,
                run_deadline=deadline,
            )

    proj = _projection_for(query, schema)
    rep_schema = proj[0] if proj is not None else schema
    bucket_jobs = []
    for b in range(num_buckets):
        chunks = []
        for f in range(len(jobs)):
            tag, parts = round1[f]
            payload = parts[b]
            if payload is None:
                continue
            chunks.append(
                ("block" if tag == "rep_blocks" else "rows", payload)
            )
        bucket_jobs.append((chunks, query, rep_schema))

    def bucket_for(_attempt):
        return _rep_bucket_phase

    if processes <= 1:
        return _run_jobs_in_process(
            bucket_for, bucket_jobs, max_retries, obs,
            run_deadline=deadline,
        )
    descriptors2 = [("inline", job) for job in bucket_jobs]
    return _run_jobs_in_pool(
        bucket_for, descriptors2, processes, max_retries, timeout, obs,
        _get_shared_pool(), run_deadline=deadline,
    )


_AUTO_SAMPLE_ROWS = 1024


def _auto_params(dist):
    """The cost-model parameters both auto decisions (pre-run and
    mid-run) are evaluated under."""
    from repro.costmodel.params import SystemParameters

    total = sum(len(f.relation) for f in dist.fragments)
    tuple_bytes = max(1, dist.schema.tuple_bytes)
    return SystemParameters.implementation().with_(
        num_nodes=max(1, len(dist.fragments)),
        num_tuples=max(1, total),
        tuple_bytes=tuple_bytes,
        page_bytes=max(4096, tuple_bytes),
    )


def _auto_sample(dist):
    """A stratified prefix sample: rows drawn from *every* fragment.

    Sampling only fragment 0 lets one skewed fragment (all tuples of
    one hot group, say) lock in the wrong strategy for the whole run;
    splitting the budget across fragments keeps the estimate honest
    under placement skew.  Block-born fragments decode only their
    sampled prefix.  Returns ``(sample_rows, fragments_sampled)``.
    """
    frags = dist.fragments
    if not frags:
        return [], 0
    per = max(1, _AUTO_SAMPLE_ROWS // len(frags))
    sample: list = []
    sampled = 0
    for frag in frags:
        head = frag.relation.head(per)
        if head:
            sampled += 1
        sample.extend(head)
    return sample, sampled


def _resolve_auto_strategy(dist, query, ledger):
    """Pick "pool" (2P) or "global" from the paper's cost terms.

    Estimates selectivity (groups per tuple) from a stratified prefix
    sample across all fragments, feeds it to
    :func:`repro.costmodel.globalhash.choose_mp_strategy`, and records
    the choice — with both modeled costs and the estimate — in
    ``ledger`` so the decision is auditable after the fact.  Returns
    ``(strategy, inputs, event)`` with the recorded ledger event (None
    without a ledger) so the run can attach a post-hoc verdict.
    """
    from repro.costmodel.globalhash import choose_mp_strategy

    total = sum(len(f.relation) for f in dist.fragments)
    sample, sampled_fragments = _auto_sample(dist)
    if sample and query.group_by:
        bq = query.bind(dist.schema)
        distinct = len({bq.key_of(row) for row in sample})
        selectivity = max(
            1.0 / max(total, 1), min(1.0, distinct / len(sample))
        )
    else:
        selectivity = 1.0 / max(total, 1)
    params = _auto_params(dist)
    strategy, inputs = choose_mp_strategy(params, selectivity)
    inputs["sampled_rows"] = len(sample)
    inputs["sampled_fragments"] = sampled_fragments
    event = None
    if ledger is not None:
        event = ledger.record(MP_STRATEGY_CHOICE, -1, 0.0, data=inputs)
    return strategy, inputs, event


# One mid-run re-estimate keeps the controller cheap and mirrors the
# paper's A-2P discipline (switch at most once, when the evidence is
# in); the default observation window is a quarter of the fragments.
_AUTO_VERDICT_MARGIN = 0.10


class _AutoStrategyController:
    """Mid-run re-sampling for ``strategy="auto"`` (the A-2P move).

    The pre-run choice comes from a prefix sample — cheap but blind to
    what execution actually sees.  The controller watches the first
    ``resample_after`` completed fragments, re-estimates the group
    cardinality from their *observed* per-fragment group counts (the
    max over fragments: under round-robin placement each fragment sees
    nearly every group, so the max is a tight lower bound on |G|),
    re-runs :func:`~repro.costmodel.globalhash.choose_mp_strategy`
    once, and — when the winner flips — switches the phase function
    handed to still-undispatched fragments: global ↔ pool, exactly the
    way A-2P abandons its first-phase plan when the table overflows.
    Both the pre-run choice and the re-decision are recorded in the
    ledger and judged post-hoc against the run's true group count.

    The parent merge accepts the resulting mix of packed and unpacked
    partials, so a switch in either direction stays bit-identical.
    """

    def __init__(self, initial, total_rows, params, ledger,
                 resample_after):
        self.current = initial
        self.total_rows = max(1, total_rows)
        self.params = params
        self.ledger = ledger
        self.resample_after = max(1, resample_after)
        self.observed: dict[int, int] = {}
        self.resampled = False
        self.switched_to = None
        self.initial_event = None
        self.event = None

    def phase_fn(self):
        return _global_phase if self.current == "global" else _local_phase

    def on_complete(self, index, payload) -> None:
        """Observe one fragment's first result; re-decide at the window."""
        if self.resampled or index in self.observed:
            return
        self.observed[index] = (
            payload[1] if _is_packed(payload) else len(payload)
        )
        if len(self.observed) < self.resample_after:
            return
        self.resampled = True
        from repro.costmodel.globalhash import choose_mp_strategy

        groups = max(self.observed.values())
        selectivity = max(
            1.0 / self.total_rows, min(1.0, groups / self.total_rows)
        )
        strategy, inputs = choose_mp_strategy(self.params, selectivity)
        inputs["observed_groups"] = groups
        inputs["observed_fragments"] = sorted(self.observed)
        inputs["previous"] = self.current
        inputs["switched"] = strategy != self.current
        if self.ledger is not None:
            self.event = self.ledger.record(
                MP_STRATEGY_RESAMPLE, -1, 0.0, data=inputs
            )
        if strategy != self.current:
            self.switched_to = strategy
            self.current = strategy

    def annotate(self, true_groups: int) -> None:
        """Judge both auto decisions against the run's real group count.

        Mirrors :func:`repro.obs.decisions.annotate_ground_truth`'s
        verdict scheme: ``correct`` when the decision matches what the
        model picks at the true selectivity, otherwise
        ``wrong_but_cheap``/``wrong_and_costly`` split on whether the
        chosen branch's modeled regret stays within 10%.
        """
        from repro.costmodel.globalhash import choose_mp_strategy

        selectivity = max(
            1.0 / self.total_rows,
            min(1.0, max(true_groups, 1) / self.total_rows),
        )
        best, inputs = choose_mp_strategy(self.params, selectivity)
        cost = {
            "pool": inputs["cost_two_phase_seconds"],
            "global": inputs["cost_global_seconds"],
        }
        for event in (self.initial_event, self.event):
            if event is None:
                continue
            chosen = event.data.get("chosen")
            truth = {
                "true_groups": true_groups,
                "truth_choice": best,
                "decision_correct": chosen == best,
                "cost_chosen_seconds": cost.get(chosen),
                "cost_best_seconds": cost[best],
            }
            if chosen == best:
                truth["verdict"] = VERDICT_CORRECT
            else:
                regret = (
                    (cost[chosen] - cost[best]) / cost[best]
                    if chosen in cost and cost[best] > 0 else 0.0
                )
                truth["regret"] = regret
                truth["verdict"] = (
                    VERDICT_WRONG_CHEAP
                    if regret <= _AUTO_VERDICT_MARGIN
                    else VERDICT_WRONG_COSTLY
                )
            event.truth = truth
