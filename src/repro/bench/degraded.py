"""Degraded-mode benchmarks: makespan under stragglers and crashes.

The paper assumes a perfect cluster; these sweeps measure what the
fault-injection layer (``repro.sim.faults`` + ``repro.sim.recovery``)
adds on top: how the makespan of each algorithm degrades when one node
runs slow, and what a mid-query crash costs once detection and
re-execution on the survivors are included.  Two honest results fall out:
a straggler stretches every algorithm about linearly (the slow node's own
scan is the critical path — adaptivity rebalances *data*, not hardware),
and a crash costs roughly the work done so far plus a restart, so
crashing late is strictly worse than crashing early.
"""

from __future__ import annotations

from repro.bench.figures import SIM_QUERY
from repro.bench.harness import FigureResult
from repro.core.runner import default_parameters, run_algorithm
from repro.sim.faults import CrashFault, FaultPlan, Straggler
from repro.workloads.generator import generate_uniform

NODES = 8
TUPLES = 16_000
GROUPS = 512
CONTENDERS = (
    "two_phase",
    "repartitioning",
    "adaptive_two_phase",
    "adaptive_repartitioning",
)
SLOWDOWNS = (1.0, 2.0, 4.0, 8.0)
CRASH_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
CRASH_CONTENDERS = ("two_phase", "adaptive_two_phase")


def straggler_sweep() -> FigureResult:
    """Makespan vs slowdown of node 0 (everyone else at full speed)."""
    result = FigureResult(
        "degraded_straggler",
        f"Straggler: node 0 slowed k×(simulator, {NODES} nodes)",
        ["slowdown", *CONTENDERS],
        notes="slowdown=1 is the fault-free baseline",
    )
    dist = generate_uniform(TUPLES, GROUPS, NODES, seed=0)
    params = default_parameters(dist)
    for slowdown in SLOWDOWNS:
        plan = FaultPlan(stragglers=(Straggler(0, slowdown),))
        row: list = [slowdown]
        for name in CONTENDERS:
            out = run_algorithm(
                name, dist, SIM_QUERY, params=params, faults=plan
            )
            row.append(out.elapsed_seconds)
        result.add_row(*row)
    return result


def crash_sweep() -> FigureResult:
    """Makespan vs when node 1 crashes (fraction of fault-free makespan).

    Fraction 0 is the no-crash baseline; fractions > 0 kill node 1 at
    that point of the baseline run, after which the survivors detect the
    death, take over the fragment, and restart — all of which the
    degraded makespan includes.
    """
    result = FigureResult(
        "degraded_crash",
        f"Crash of node 1 at t = f × baseline (simulator, {NODES} nodes)",
        ["crash_fraction", *CRASH_CONTENDERS],
        notes="fraction 0 = no crash; later crashes waste more work",
    )
    dist = generate_uniform(TUPLES, GROUPS, NODES, seed=0)
    params = default_parameters(dist)
    baselines = {
        name: run_algorithm(
            name, dist, SIM_QUERY, params=params
        ).elapsed_seconds
        for name in CRASH_CONTENDERS
    }
    for fraction in CRASH_FRACTIONS:
        row: list = [fraction]
        for name in CRASH_CONTENDERS:
            if fraction == 0.0:
                plan = FaultPlan()
            else:
                plan = FaultPlan(
                    crashes=(
                        CrashFault(1, at_time=fraction * baselines[name]),
                    )
                )
            out = run_algorithm(
                name, dist, SIM_QUERY, params=params, faults=plan
            )
            row.append(out.elapsed_seconds)
        result.add_row(*row)
    return result
