"""Ablation studies for the design choices DESIGN.md calls out.

1. A-2P's switch point is "hash table full" — what if the table (M) were
   smaller or bigger?  (Equivalently: switch earlier/later.)
2. A-Rep's ``init_seg`` — how long to observe before judging.
3. Sampling's crossover threshold — the simulator-side version of Fig. 7.
4. Graefe's optimized 2P vs A-2P — the Section 3.2 argument, measured.

All of these run the event simulator on the Figure 8 configuration.
"""

from __future__ import annotations

from repro.bench.figures import SIM_NODES, SIM_QUERY, SIM_TUPLES
from repro.bench.harness import FigureResult
from repro.core.runner import default_parameters, run_algorithm
from repro.workloads.generator import generate_uniform


def a2p_switch_threshold(
    num_tuples: int = SIM_TUPLES, num_nodes: int = SIM_NODES, seed: int = 0
) -> FigureResult:
    """A-2P elapsed time vs hash-table allocation M, at mid selectivity."""
    groups = 3200
    dist = generate_uniform(num_tuples, groups, num_nodes, seed=seed)
    result = FigureResult(
        "ablation_a2p_m",
        "A-2P vs 2P across hash-table allocations "
        f"({groups} groups, {num_tuples} tuples)",
        ["table_entries", "adaptive_two_phase", "two_phase", "a2p_switched"],
        notes="A-2P switches exactly when M < groups/node; 2P spills "
        "instead",
    )
    for m in (50, 100, 200, 400, 800, 1600, 6400):
        params = default_parameters(dist, hash_table_entries=m)
        a2p = run_algorithm(
            "adaptive_two_phase", dist, SIM_QUERY, params=params
        )
        tp = run_algorithm("two_phase", dist, SIM_QUERY, params=params)
        switched = len(a2p.ledger.events_of("switch_to_repartitioning"))
        result.add_row(m, a2p.elapsed_seconds, tp.elapsed_seconds, switched)
    return result


def arep_init_seg(
    num_tuples: int = SIM_TUPLES, num_nodes: int = SIM_NODES, seed: int = 0
) -> FigureResult:
    """A-Rep elapsed vs init_seg, at low selectivity (switch expected)."""
    dist = generate_uniform(num_tuples, 8, num_nodes, seed=seed)
    params = default_parameters(dist)
    result = FigureResult(
        "ablation_arep_initseg",
        "A-Rep sensitivity to init_seg (8 groups: fallback is correct)",
        ["init_seg", "adaptive_repartitioning", "switched"],
        notes="larger init_seg = more tuples repartitioned before the "
        "fallback, approaching plain Repartitioning",
    )
    for init_seg in (100, 400, 1600, 6400, num_tuples // num_nodes):
        out = run_algorithm(
            "adaptive_repartitioning",
            dist,
            SIM_QUERY,
            params=params,
            init_seg=init_seg,
            arep_switch_groups=80,
        )
        switched = bool(out.ledger.events_of("switch_to_two_phase"))
        result.add_row(init_seg, out.elapsed_seconds, switched)
    return result


def sampling_threshold(
    num_tuples: int = SIM_TUPLES, num_nodes: int = SIM_NODES, seed: int = 0
) -> FigureResult:
    """Simulator-side Figure 7: decision quality vs crossover threshold."""
    result = FigureResult(
        "ablation_sampling_threshold",
        "Sampling algorithm vs crossover threshold (simulator)",
        ["num_groups", "threshold", "elapsed", "choice"],
    )
    for groups in (8, 3200, 40_000):
        dist = generate_uniform(num_tuples, groups, num_nodes, seed=seed)
        params = default_parameters(dist)
        for threshold in (20, 80, 320, 6400):
            out = run_algorithm(
                "sampling",
                dist,
                SIM_QUERY,
                params=params,
                sampling_threshold=threshold,
            )
            choice = out.ledger.events_of("sampling_decision")[0].data[
                "choice"
            ]
            result.add_row(groups, threshold, out.elapsed_seconds, choice)
    return result


def optimized_vs_adaptive(
    num_tuples: int = SIM_TUPLES, num_nodes: int = SIM_NODES, seed: int = 0
) -> FigureResult:
    """Graefe's optimized 2P against A-2P across the selectivity range."""
    result = FigureResult(
        "ablation_opt2p",
        "Graefe's optimized Two Phase vs Adaptive Two Phase (simulator)",
        [
            "num_groups",
            "two_phase",
            "optimized_two_phase",
            "adaptive_two_phase",
            "opt2p_spill_pages",
            "a2p_spill_pages",
        ],
        notes="the paper argues A-2P dominates: it frees memory on switch "
        "and avoids double-processing forwarded groups",
    )
    for groups in (8, 1600, 6400, 20_000, num_tuples // 2):
        dist = generate_uniform(num_tuples, groups, num_nodes, seed=seed)
        params = default_parameters(dist)
        outs = {
            name: run_algorithm(name, dist, SIM_QUERY, params=params)
            for name in (
                "two_phase",
                "optimized_two_phase",
                "adaptive_two_phase",
            )
        }
        result.add_row(
            groups,
            outs["two_phase"].elapsed_seconds,
            outs["optimized_two_phase"].elapsed_seconds,
            outs["adaptive_two_phase"].elapsed_seconds,
            outs["optimized_two_phase"].metrics.total_spill_pages,
            outs["adaptive_two_phase"].metrics.total_spill_pages,
        )
    return result
