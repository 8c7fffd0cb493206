"""The strategy family on the columnar data path, head to head.

Two experiments on the Figure-2 evaluation tuple (100 bytes: group key,
float value, padding):

* ``test_strategy_head_to_head`` — two-phase under both of the names
  the tracked figure has rows for (``pool`` and ``global``: one path
  since the kernel always exits packed, so the two rows are each
  other's noise bound) vs Rep across grouping selectivities, the
  trade-off the paper's Figure 2 sweeps.  Results must be identical at
  every point; the figure records the throughput of each strategy.

* ``test_end_to_end_columnar_sweep`` — generation plus aggregation with
  a *string* group key under global / rep: blocks go generator ->
  shm -> kernel with zero row round-trips.  Results must be identical
  across strategies; the figure records absolute tuples per second.
  (The ratios against the retired row-block path stay as history in
  ``results/baseline/TRAJECTORY.jsonl``.)
"""

import time

from conftest import STR_KEY_FORMAT, best_run, fig2_workload, report

from repro.bench.harness import FigureResult
from repro.core.aggregates import AggregateSpec
from repro.core.query import AggregateQuery
from repro.parallel import mp_executor

NUM_TUPLES = 150_000
SELECTIVITY = 0.005
WORKERS = 8
REPEATS = 3

HEAD_TO_HEAD_TUPLES = 100_000
HEAD_TO_HEAD_SELECTIVITIES = (0.0005, 0.005, 0.05)
HEAD_TO_HEAD_STRATEGIES = ("pool", "global", "rep")

E2E_STRATEGIES = ("global", "rep")


def _strkey_fig2(num_tuples, selectivity, num_nodes, seed=7):
    """The Fig-2 shape with a string group key (16-byte key, 100-byte
    tuple), shipped as dictionary codes."""
    return fig2_workload(
        num_tuples, selectivity, num_nodes, seed=seed,
        key_format=STR_KEY_FORMAT,
    )


def _best_run(dist, query, strategy):
    return best_run(
        dist, query, strategy, processes=WORKERS, repeats=REPEATS
    )


def test_strategy_head_to_head():
    query = AggregateQuery(
        group_by=["gkey"],
        aggregates=[AggregateSpec("sum", "val"), AggregateSpec("count")],
    )
    result = FigureResult(
        "columnar_strategies",
        "Two-phase (pool = global, one path) vs Rep across grouping "
        "selectivities",
        ["selectivity", "strategy", "elapsed_seconds", "tuples_per_second"],
        notes=(
            f"{HEAD_TO_HEAD_TUPLES} tuples, {WORKERS} workers, best of "
            f"{REPEATS}; all strategies assert identical results at "
            f"every selectivity (wall-clock, machine-dependent)"
        ),
    )
    try:
        for selectivity in HEAD_TO_HEAD_SELECTIVITIES:
            dist = fig2_workload(
                HEAD_TO_HEAD_TUPLES, selectivity, WORKERS, seed=11
            )
            reference = None
            for strategy in HEAD_TO_HEAD_STRATEGIES:
                seconds, rows = _best_run(dist, query, strategy)
                if reference is None:
                    reference = rows
                else:
                    assert rows == reference, (
                        f"strategy {strategy!r} disagrees at "
                        f"S={selectivity}"
                    )
                result.add_row(
                    selectivity, strategy, seconds,
                    HEAD_TO_HEAD_TUPLES / seconds,
                )
    finally:
        mp_executor.shutdown_worker_pool()
    report(result)


def _timed_e2e(query, strategy):
    """Best-of-REPEATS wall seconds for *generation plus aggregation*.

    Unlike :func:`_best_run` the generator runs inside the timed
    region: blocks go generator -> shm -> kernel with zero row
    round-trips, and the figure charges all of it.
    """
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        dist = _strkey_fig2(NUM_TUPLES, SELECTIVITY, WORKERS)
        result = mp_executor.multiprocessing_aggregate(
            dist, query, processes=WORKERS, strategy=strategy
        )
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_end_to_end_columnar_sweep():
    """Generator -> ColumnBlock -> shm -> kernel, generation included:
    every strategy must return identical rows; the figure records
    absolute throughput."""
    query = AggregateQuery(
        group_by=["gkey"],
        aggregates=[AggregateSpec("sum", "val"), AggregateSpec("count")],
    )
    result = FigureResult(
        "columnar_e2e",
        "End-to-end columnar (block-born generation + columnar shipping), "
        "string group keys",
        ["strategy", "elapsed_seconds", "tuples_per_second"],
        notes=(
            f"{NUM_TUPLES} tuples, S={SELECTIVITY}, {WORKERS} workers, "
            f"str16 group key, best of {REPEATS}, generation included in "
            f"the timing; wall-clock (machine-dependent, not under the "
            f"baseline figure gate)"
        ),
    )
    try:
        mp_executor.multiprocessing_aggregate(  # warm up the pool forks
            _strkey_fig2(NUM_TUPLES, SELECTIVITY, WORKERS),
            query, processes=WORKERS, strategy="pool",
        )
        reference = None
        for strategy in E2E_STRATEGIES:
            seconds, rows = _timed_e2e(query, strategy)
            if reference is None:
                reference = rows
            else:
                assert rows == reference, (
                    f"columnar e2e strategy {strategy!r} disagrees"
                )
            result.add_row(strategy, seconds, NUM_TUPLES / seconds)
    finally:
        mp_executor.shutdown_worker_pool()
    report(result)
