"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run      simulate one algorithm on a generated workload
compare  simulate every algorithm on the same workload
figure   regenerate a paper table/figure (writes results/<name>.csv)
params   print a parameter preset (Table 1 or the Section 5 cluster)
plan     ask the optimizer which algorithm to use
trace    run one algorithm traced; write Chrome/Perfetto trace JSON
explain  render a run's adaptive decisions, judged against ground truth
scale    sweep node counts and print speedup/scaleup tables
sql      run one SQL query over a generated or saved workload
serve    long-lived HTTP/JSON query service over the worker pool
top      live one-screen view of a running service (polls /metrics)
"""

from __future__ import annotations

import argparse
import gc
import sys

from repro.bench import figures as figure_runners
from repro.bench.harness import format_table, write_results
from repro.core.aggregates import FUNCTIONS, AggregateSpec
from repro.core.optimizer import choose_plan
from repro.core.query import AggregateQuery
from repro.core.runner import ALGORITHMS, default_parameters, run_algorithm
from repro.costmodel.params import NetworkKind, SystemParameters
from repro.parallel import reference_aggregate
from repro.workloads.generator import generate_uniform, generate_zipf
from repro.workloads.skew import generate_input_skew, generate_output_skew

_NETWORKS = {
    "fast": NetworkKind.HIGH_BANDWIDTH,
    "ethernet": NetworkKind.LIMITED_BANDWIDTH,
}


class CliError(Exception):
    """A user-facing failure rendered as one actionable line, no traceback.

    ``exit_code`` defaults to 2 (usage/query errors); deadline misses
    use :data:`EXIT_DEADLINE_MISS` so scripts can tell "the query is
    wrong" from "the query ran out of time" without parsing text.
    """

    def __init__(self, message: str, exit_code: int = 2) -> None:
        super().__init__(message)
        self.exit_code = exit_code


EXIT_DEADLINE_MISS = 3


def _lazy_extensions():
    from repro.bench import scaling, validation

    return {
        "sim_scaleup": scaling.sim_scaleup,
        "sim_speedup": scaling.sim_speedup,
        "validation": validation.model_vs_simulator,
    }


FIGURES = {
    "table1": figure_runners.table1,
    "fig1": figure_runners.figure1,
    "fig2": figure_runners.figure2,
    "fig3": figure_runners.figure3,
    "fig4": figure_runners.figure4,
    "fig5": figure_runners.figure5,
    "fig6": figure_runners.figure6,
    "fig7": figure_runners.figure7,
    "fig8": figure_runners.figure8,
    "fig8_fast": figure_runners.figure8_fast_network,
    "fig9": figure_runners.figure9,
    "skew_input": figure_runners.input_skew_study,
    **_lazy_extensions(),
}


def _parse_agg(text: str) -> AggregateSpec:
    """"sum:val" -> AggregateSpec("sum", "val"); "count" -> COUNT(*)."""
    func, _, column = text.partition(":")
    if func not in FUNCTIONS:
        raise argparse.ArgumentTypeError(
            f"unknown aggregate {func!r}; choose from {sorted(FUNCTIONS)}"
        )
    return AggregateSpec(func, column or None)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tuples", type=int, default=40_000)
    parser.add_argument("--groups", type=int, default=2_000)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload",
        choices=["uniform", "zipf", "output-skew", "input-skew"],
        default="uniform",
    )
    parser.add_argument(
        "--network", choices=sorted(_NETWORKS), default="ethernet"
    )
    parser.add_argument("--table-entries", type=int, default=None)
    parser.add_argument("--pipeline", action="store_true")
    parser.add_argument(
        "--agg",
        type=_parse_agg,
        action="append",
        help='aggregate spec like "sum:val" or "count"; repeatable',
    )


def _build_workload(args):
    """The generated relation; a size it cannot build is a usage error."""
    try:
        if args.workload == "uniform":
            return generate_uniform(
                args.tuples, args.groups, args.nodes, seed=args.seed
            )
        if args.workload == "zipf":
            return generate_zipf(
                args.tuples, args.groups, args.nodes, seed=args.seed
            )
        if args.workload == "output-skew":
            return generate_output_skew(
                args.tuples, args.groups, num_nodes=args.nodes,
                seed=args.seed,
                num_single_group_nodes=min(4, args.nodes - 1),
            )
        return generate_input_skew(
            args.tuples, args.groups, args.nodes, seed=args.seed
        )
    except ValueError as exc:
        raise CliError(
            f"cannot build the {args.workload} workload "
            f"(--tuples {args.tuples} --groups {args.groups} "
            f"--nodes {args.nodes}): {exc}"
        ) from exc


def _build_query(args, dist) -> AggregateQuery:
    aggs = args.agg or [AggregateSpec("sum", "val")]
    query = AggregateQuery(group_by=["gkey"], aggregates=aggs)
    return _checked_columns(query, dist.schema, "bad --agg")


def _checked_columns(query, schema, what: str):
    """Resolve every column ``query`` names against ``schema`` before it
    runs: an unknown one is a usage error, not a simulator or worker
    traceback."""
    try:
        query.bind(schema)
        if query.where is not None:
            query.where.check_columns(schema.names())
    except KeyError as exc:
        raise CliError(f"{what}: {exc.args[0]}") from exc
    except ValueError as exc:  # ParseError: an unknown WHERE column
        raise CliError(f"{what}: {exc}") from exc
    return query


def _sim_params(dist, args):
    """The simulator's parameters; a bad ``--table-entries`` is a usage
    error."""
    try:
        return default_parameters(
            dist,
            network=_NETWORKS[args.network],
            hash_table_entries=args.table_entries,
        )
    except ValueError as exc:
        raise CliError(
            f"bad --table-entries {args.table_entries}: {exc}"
        ) from exc


def _run_one(name, dist, query, args, out, tracer=None):
    params = _sim_params(dist, args)
    outcome = run_algorithm(
        name,
        dist,
        query,
        params=params,
        pipeline=args.pipeline,
        tracer=tracer,
    )
    switches = [
        e for e in outcome.ledger.events if e.kind.startswith("switch")
    ]
    print(
        f"{name:<26} {outcome.elapsed_seconds:9.4f}s  "
        f"groups={outcome.num_groups:<7d} "
        f"sent={outcome.metrics.total_bytes_sent / 1e6:7.2f}MB  "
        f"spill={outcome.metrics.total_spill_pages:7.1f}pg  "
        f"switches={len(switches)}",
        file=out,
    )
    return outcome


def _workload_dict(args) -> dict:
    return {
        "workload": args.workload,
        "tuples": args.tuples,
        "groups": args.groups,
        "nodes": args.nodes,
        "seed": args.seed,
        "network": args.network,
    }


def _parse_fault_plan(text: str):
    """Parse the ``--faults`` mini-grammar into a :class:`FaultPlan`.

    ``seed=S,kill=N,slow=NxFACTOR,stall=NxSECONDS,loss=P,error-rate=P``
    — ``kill``/``slow``/``stall`` may repeat to target several
    fragments.  ``kill=N`` kills fragment N's worker at its first
    dispatch.
    """
    from repro.parallel import (
        CrashFault,
        FaultConfigError,
        FaultPlan,
        Straggler,
        WorkerStall,
    )

    seed = 0
    crashes: list = []
    stragglers: list = []
    stalls: list = []
    rates = {"loss": 0.0, "error-rate": 0.0}

    def _pair(value: str, sep: str, what: str) -> tuple[int, float]:
        node_text, _, amount_text = value.partition(sep)
        try:
            return int(node_text), float(amount_text)
        except ValueError:
            raise CliError(
                f"bad --faults entry {what}={value!r} "
                f"(expected NODE{sep}NUMBER)"
            ) from None

    for entry in filter(None, (e.strip() for e in text.split(","))):
        key, sep, value = entry.partition("=")
        if not sep:
            raise CliError(
                f"bad --faults entry {entry!r} (expected key=value)"
            )
        try:
            if key == "seed":
                seed = int(value)
            elif key == "kill" and "@" in value:
                raise CliError(
                    f"bad --faults entry {entry!r}: kill=N@T is gone "
                    "(the pool kills at dispatch; use kill=N)"
                )
            elif key == "kill":
                crashes.append(CrashFault(int(value)))
            elif key == "slow":
                node, factor = _pair(value, "x", "slow")
                stragglers.append(Straggler(node, factor))
            elif key == "stall":
                node, seconds = _pair(value, "x", "stall")
                stalls.append(WorkerStall(node, seconds))
            elif key in rates:
                rates[key] = float(value)
            elif key == "dup":
                raise CliError(
                    f"bad --faults entry {entry!r}: dup= (message "
                    "duplication) is gone; the pool has no transport "
                    "to duplicate on"
                )
            else:
                raise CliError(
                    f"unknown --faults key {key!r} (expected seed, kill, "
                    "slow, stall, loss, or error-rate)"
                )
        except (ValueError, FaultConfigError) as exc:
            raise CliError(f"bad --faults entry {entry!r}: {exc}") from exc
    try:
        return FaultPlan(
            seed=seed,
            crashes=tuple(crashes),
            stragglers=tuple(stragglers),
            worker_stalls=tuple(stalls),
            read_error_rate=rates["error-rate"],
            message_loss=rates["loss"],
        )
    except FaultConfigError as exc:
        raise CliError(f"bad --faults plan: {exc}") from exc


def _check_fault_targets(plan, num_nodes: int) -> None:
    """A plan naming a fragment the relation does not have would
    silently inject nothing there; refuse it."""
    targets = [
        f.node_id
        for f in (*plan.crashes, *plan.stragglers, *plan.worker_stalls)
    ]
    beyond = sorted({n for n in targets if n >= num_nodes})
    if beyond:
        raise CliError(
            f"--faults targets fragment(s) {beyond}, but the relation "
            f"has {num_nodes} (fragments 0..{num_nodes - 1})"
        )


def _verified(rows, dist, query, out) -> bool:
    """Compare ``rows`` with the sequential reference and say so: keys
    and non-floats exactly, floats within 1e-9 absolute plus 1e-9
    relative (both substrates add floats in another order)."""
    expected = reference_aggregate(dist, query)
    width = len(query.group_by)
    want = {tuple(r[:width]): r for r in expected}
    got = {tuple(r[:width]): r for r in rows}
    ok = len(rows) == len(expected) and want.keys() == got.keys() and all(
        len(got[key]) == len(row) and all(
            abs(a - b) <= 1e-9 + 1e-9 * abs(b)
            if isinstance(a, float)
            else a == b
            for a, b in zip(got[key], row)
        )
        for key, row in want.items()
    )
    print(f"verified against reference: {'OK' if ok else 'MISMATCH'}",
          file=out)
    return ok


def _cmd_run_mp(args, out, faults) -> int:
    """``repro run --substrate mp``: the real-process pool executor."""
    import time as _time

    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import (
        DeadlineExceededError,
        multiprocessing_aggregate,
        pool_breaker_state,
    )

    if args.timeline:
        raise CliError(
            "--timeline needs the simulator (use --substrate sim)"
        )
    if args.save_run:
        raise CliError(
            "--save-run records simulator decisions (use --substrate sim)"
        )
    if faults is not None:
        _check_fault_targets(faults, args.nodes)
    dist = _build_workload(args)
    query = _build_query(args, dist)
    metrics = MetricsRegistry()
    faults_log: list = []
    start = _time.monotonic()
    deadline = None
    if args.timeout is not None:
        deadline = start + args.timeout
    try:
        rows = multiprocessing_aggregate(
            dist,
            query,
            processes=args.processes,
            strategy=args.strategy,
            faults=faults,
            faults_log=faults_log,
            metrics=metrics,
            deadline=deadline,
        )
    except DeadlineExceededError as exc:
        raise CliError(
            f"deadline missed: {exc}; raise --timeout (was "
            f"{args.timeout}s) or shrink the workload",
            exit_code=EXIT_DEADLINE_MISS,
        ) from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    elapsed = _time.monotonic() - start

    def _metric(name: str) -> int:
        try:
            return int(metrics.value(name))
        except KeyError:
            return 0

    breaker = pool_breaker_state()
    print(
        f"mp[{args.strategy}]{'':<17} {elapsed:9.4f}s  "
        f"groups={len(rows):<7d} "
        f"retries={_metric('mp.retries'):<3d} "
        f"injected={len(faults_log)}",
        file=out,
    )
    if breaker.degraded or breaker.rebuilds:
        print(
            f"breaker: rebuilds={breaker.rebuilds} "
            f"degraded={breaker.degraded}",
            file=out,
        )
    if args.verify and not _verified(rows, dist, query, out):
        return 1
    if args.show_rows:
        for row in rows[: args.show_rows]:
            print("  ", row, file=out)
    return 0


def _cmd_run(args, out) -> int:
    faults = _parse_fault_plan(args.faults) if args.faults else None
    if args.substrate == "mp":
        return _cmd_run_mp(args, out, faults)
    if faults is not None:
        raise CliError(
            "--faults injects into real worker processes; it needs "
            "--substrate mp (the simulated cluster never fails)"
        )
    if args.timeout is not None:
        raise CliError(
            "--timeout is the real executor's deadline; it needs "
            "--substrate mp (the simulator reports simulated seconds)"
        )
    dist = _build_workload(args)
    query = _build_query(args, dist)
    tracer = None
    if args.timeline:
        from repro.obs import Tracer

        tracer = Tracer()
    outcome = _run_one(args.algorithm, dist, query, args, out, tracer=tracer)
    if args.save_run:
        from repro.obs.decisions import run_artifact
        from repro.obs.schema import RUN_SCHEMA, write_artifact

        params = _sim_params(dist, args)
        doc = run_artifact(
            args.algorithm, outcome, params, workload=_workload_dict(args)
        )
        try:
            write_artifact(doc, RUN_SCHEMA, args.save_run)
        except OSError as exc:
            raise CliError(
                f"cannot write run artifact to {args.save_run!r}: {exc}"
            ) from exc
        print(
            f"wrote {args.save_run} (inspect with `repro explain "
            f"{args.save_run}`)",
            file=out,
        )
    if args.timeline:
        from repro.sim.timeline import render_timeline

        print(render_timeline(tracer), file=out)
    if args.verify and not _verified(outcome.rows, dist, query, out):
        return 1
    if args.show_rows:
        for row in outcome.rows[: args.show_rows]:
            print("  ", row, file=out)
    return 0


def _cmd_trace(args, out) -> int:
    from repro.obs import Tracer
    from repro.obs.export import write_chrome_trace

    dist = _build_workload(args)
    query = _build_query(args, dist)
    params = _sim_params(dist, args)
    tracer = Tracer(operator_spans=not args.no_operator_spans)
    outcome = run_algorithm(
        args.algorithm,
        dist,
        query,
        params=params,
        pipeline=args.pipeline,
        tracer=tracer,
    )
    try:
        write_chrome_trace(tracer, args.out, f"repro:{args.algorithm}")
    except OSError as exc:
        raise CliError(
            f"cannot write trace to {args.out!r}: {exc}; "
            "check the output directory exists and is writable"
        ) from exc
    print(f"wrote {args.out} (load in ui.perfetto.dev)", file=out)
    summary = tracer.summary()
    print(
        f"{args.algorithm}: {outcome.elapsed_seconds:.4f}s simulated, "
        f"{summary['spans']} spans, {summary['instants']} instants",
        file=out,
    )
    for phase_name, seconds in summary["phase_seconds"].items():
        print(f"  {phase_name:<24} {seconds:9.4f}s", file=out)
    return 0


def _load_run_file(path: str) -> dict:
    """Load a ``repro-run/1`` artifact or raise a one-line CliError."""
    from repro.obs.schema import RUN_SCHEMA, read_artifact

    try:
        return read_artifact(path, RUN_SCHEMA)
    except FileNotFoundError:
        raise CliError(
            f"run file {path!r} not found; produce one with "
            f"`repro run --algorithm sampling --save-run {path}`"
        ) from None
    except IsADirectoryError:
        raise CliError(
            f"{path!r} is a directory, not a run artifact"
        ) from None
    except ValueError as exc:  # json decode errors and SchemaError
        raise CliError(
            f"run file {path!r} is not a valid repro-run/1 artifact: {exc}"
        ) from exc
    except OSError as exc:
        raise CliError(f"cannot read run file {path!r}: {exc}") from exc


def _cmd_explain(args, out) -> int:
    from repro.obs.decisions import render_explain, run_artifact

    if args.run_file is not None:
        doc = _load_run_file(args.run_file)
        print(render_explain(doc), file=out)
        return 0
    if args.algorithm is None:
        raise CliError(
            "pass a saved run file or --algorithm to simulate one "
            "(e.g. `repro explain --algorithm sampling`)"
        )
    from repro.costmodel import MODEL_FUNCTIONS

    dist = _build_workload(args)
    query = _build_query(args, dist)
    params = _sim_params(dist, args)
    tracer = None
    if args.drift:
        if args.algorithm not in MODEL_FUNCTIONS:
            raise CliError(
                f"no analytical cost model for {args.algorithm!r}; "
                f"--drift supports {sorted(MODEL_FUNCTIONS)}"
            )
        from repro.obs import Tracer

        tracer = Tracer(operator_spans=False)
    outcome = run_algorithm(
        args.algorithm,
        dist,
        query,
        params=params,
        pipeline=args.pipeline,
        tracer=tracer,
    )
    doc = run_artifact(
        args.algorithm, outcome, params, workload=_workload_dict(args)
    )
    drift_table = None
    if args.drift:
        from repro.obs.drift import compare_model_to_run, format_drift_table

        selectivity = max(outcome.num_groups, 1) / max(params.num_tuples, 1)
        report = compare_model_to_run(
            args.algorithm, params, selectivity, outcome.metrics,
            tracer=tracer,
        )
        drift_table = format_drift_table(report)
    print(render_explain(doc, drift_table=drift_table), file=out)
    if args.save_run:
        from repro.obs.schema import RUN_SCHEMA, write_artifact

        try:
            write_artifact(doc, RUN_SCHEMA, args.save_run)
        except OSError as exc:
            raise CliError(
                f"cannot write run artifact to {args.save_run!r}: {exc}"
            ) from exc
        print(f"wrote {args.save_run}", file=out)
    return 0


def _cmd_compare(args, out) -> int:
    dist = _build_workload(args)
    query = _build_query(args, dist)
    print(
        f"{len(dist)} tuples, {args.groups} groups, {dist.num_nodes} "
        f"nodes, {args.network} network",
        file=out,
    )
    for name in sorted(ALGORITHMS):
        _run_one(name, dist, query, args, out)
    return 0


def _cmd_figure(args, out) -> int:
    names = sorted(FIGURES) if args.name == "all" else [args.name]
    for name in names:
        result = FIGURES[name]()
        print(format_table(result), file=out)
        if args.plot and name != "table1":
            from repro.bench.plotting import render_chart

            print(render_chart(result, log_y=args.log_y), file=out)
        if args.results_dir:
            path = write_results(result, args.results_dir)
            print(f"wrote {path}", file=out)
    return 0


def _cmd_params(args, out) -> int:
    params = (
        SystemParameters.implementation()
        if args.preset == "implementation"
        else SystemParameters.paper_default()
    )
    for field_name, value in vars(params).items():
        print(f"{field_name:<22} {value}", file=out)
    for derived in ("t_r", "t_w", "t_h", "t_a", "t_d", "m_p", "m_l"):
        print(f"{derived:<22} {getattr(params, derived):.3e} s", file=out)
    return 0


def _cmd_plan(args, out) -> int:
    try:
        params = SystemParameters.paper_default().with_(
            num_nodes=args.nodes
        )
        choice = choose_plan(
            params,
            estimated_groups=args.groups_estimate,
            expect_duplicate_elimination=args.duplicate_elimination,
        )
    except ValueError as exc:
        raise CliError(
            f"bad plan request (--nodes {args.nodes} --groups-estimate "
            f"{args.groups_estimate}): {exc}"
        ) from exc
    print(f"algorithm: {choice.algorithm}", file=out)
    print(f"rationale: {choice.rationale}", file=out)
    if choice.estimated_seconds is not None:
        print(f"estimated: {choice.estimated_seconds:.2f} s", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive parallel aggregation (SIGMOD 1995) "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one algorithm (simulated or real processes)"
    )
    p_run.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS),
        default="adaptive_two_phase",
        help="simulator algorithm (ignored by --substrate mp, which "
        "always runs the real two-phase pool executor)",
    )
    _add_workload_args(p_run)
    p_run.add_argument(
        "--substrate", choices=("sim", "mp"), default="sim",
        help="sim = event simulator; mp = real multiprocessing executor",
    )
    p_run.add_argument(
        "--strategy",
        choices=("pool", "global", "rep", "auto"),
        default="pool",
        help="mp substrate strategy: pool = two-phase on the worker pool, "
        "packed partials merged vectorized in the parent (global and "
        "auto are synonyms for it); rep = two-round repartitioning",
    )
    p_run.add_argument(
        "--processes", type=int, default=0,
        help="mp substrate worker count (0 = one per fragment, capped "
        "at the CPU count)",
    )
    p_run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="mp substrate: seedable fault plan injected into the "
        "workers: seed=S,kill=N,slow=NxFACTOR,stall=NxSECONDS,"
        "loss=P,error-rate=P",
    )
    p_run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="mp substrate: wall-clock deadline for the whole run; a "
        f"miss cancels in-flight work and exits {EXIT_DEADLINE_MISS}",
    )
    p_run.add_argument("--verify", action="store_true")
    p_run.add_argument("--show-rows", type=int, default=0)
    p_run.add_argument(
        "--timeline", action="store_true",
        help="print a per-node activity Gantt chart",
    )
    p_run.add_argument(
        "--save-run", default=None, metavar="PATH",
        help="record the decision ledger and write a repro-run/1 "
        "artifact for `repro explain`",
    )
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="simulate one algorithm with tracing; write Chrome trace JSON",
    )
    p_trace.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), required=True
    )
    _add_workload_args(p_trace)
    p_trace.add_argument(
        "--out", default="trace.json",
        help="Chrome trace_event JSON output path (default trace.json)",
    )
    p_trace.add_argument(
        "--no-operator-spans", action="store_true",
        help="record only query/node/phase spans (smaller traces)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="render a run's adaptive decisions judged against truth",
    )
    p_explain.add_argument(
        "run_file", nargs="?", default=None,
        help="a saved repro-run/1 artifact (from --save-run); omit to "
        "simulate a fresh run instead",
    )
    p_explain.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default=None,
        help="simulate this algorithm and explain it (no run file)",
    )
    _add_workload_args(p_explain)
    p_explain.add_argument(
        "--drift", action="store_true",
        help="append the predicted-vs-observed cost-model drift table",
    )
    p_explain.add_argument(
        "--save-run", default=None, metavar="PATH",
        help="also write the run artifact to PATH",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_cmp = sub.add_parser("compare", help="simulate every algorithm")
    _add_workload_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument(
        "--name", choices=[*sorted(FIGURES), "all"], required=True
    )
    p_fig.add_argument("--results-dir", default=None)
    p_fig.add_argument("--plot", action="store_true",
                       help="render an ASCII chart under the table")
    p_fig.add_argument("--log-y", action="store_true")
    p_fig.set_defaults(func=_cmd_figure)

    p_par = sub.add_parser("params", help="print a parameter preset")
    p_par.add_argument(
        "--preset",
        choices=["paper", "implementation"],
        default="paper",
    )
    p_par.set_defaults(func=_cmd_params)

    p_plan = sub.add_parser("plan", help="ask the optimizer for a plan")
    p_plan.add_argument("--nodes", type=int, default=32)
    p_plan.add_argument("--groups-estimate", type=int, default=None)
    p_plan.add_argument(
        "--duplicate-elimination", action="store_true"
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_scale = sub.add_parser(
        "scale", help="simulator scaleup/speedup study"
    )
    p_scale.add_argument(
        "--mode", choices=["scaleup", "speedup"], default="scaleup"
    )
    p_scale.add_argument("--selectivity", type=float, default=0.25)
    p_scale.add_argument("--tuples-per-node", type=int, default=5_000)
    p_scale.add_argument("--tuples", type=int, default=40_000)
    p_scale.add_argument("--groups", type=int, default=10_000)
    p_scale.add_argument("--seed", type=int, default=0)
    p_scale.set_defaults(func=_cmd_scale)

    p_sql = sub.add_parser(
        "sql", help="run a SQL aggregate query on a generated workload"
    )
    p_sql.add_argument("query", help='e.g. "SELECT gkey, SUM(val) '
                       'FROM r GROUP BY gkey"')
    p_sql.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS),
        default="adaptive_two_phase",
    )
    p_sql.add_argument("--data-dir", default=None,
                       help="load a saved DistributedRelation instead "
                       "of generating one")
    _add_workload_args(p_sql)
    p_sql.add_argument("--show-rows", type=int, default=10)
    p_sql.add_argument(
        "--substrate", choices=("sim", "mp"), default="sim",
        help="sim = event simulator; mp = real multiprocessing executor",
    )
    p_sql.add_argument(
        "--processes", type=int, default=0,
        help="mp substrate worker count (0 = one per fragment, capped "
        "at the CPU count)",
    )
    p_sql.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="mp substrate: wall-clock deadline; a miss cancels "
        f"in-flight work and exits {EXIT_DEADLINE_MISS}",
    )
    p_sql.set_defaults(func=_cmd_sql)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived HTTP/JSON query service over the worker pool",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="0 = let the OS pick (printed at startup)")
    p_serve.add_argument(
        "--table", default="r",
        help="name queries use in FROM for the served workload",
    )
    p_serve.add_argument("--data-dir", default=None,
                         help="serve a saved DistributedRelation instead "
                         "of generating one")
    _add_workload_args(p_serve)
    p_serve.add_argument("--max-concurrency", type=int, default=4)
    p_serve.add_argument("--queue-depth", type=int, default=16)
    p_serve.add_argument(
        "--memory-pool-mb", type=int, default=64,
        help="service-wide budget pool queries lease slices from",
    )
    p_serve.add_argument(
        "--default-timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-query deadline when the request does not set one",
    )
    p_serve.add_argument(
        "--processes", type=int, default=2,
        help="pool workers per admitted query at full parallelism",
    )
    p_serve.add_argument(
        "--strategy", default="pool",
        choices=("pool", "global", "rep", "auto"),
        help="execution strategy for every admitted query: pool = "
        "two-phase with a packed vectorized merge (global and auto are "
        "synonyms for it); rep = two-round repartitioning",
    )
    p_serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject this fault plan into every query's pool run "
        "(chaos testing; same grammar as `repro run --faults`)",
    )
    p_serve.add_argument(
        "--query-log", default=None, metavar="PATH",
        help="append one repro-qlog/1 JSONL record per query outcome",
    )
    p_serve.add_argument(
        "--slow-trace-threshold", type=float, default=1.0,
        metavar="SECONDS",
        help="flight-recorder trace capture threshold; 0 traces every "
        "query (GET /debug/trace/<id>)",
    )
    p_serve.add_argument(
        "--no-live-observability", action="store_true",
        help="disable the query log, flight recorder, and latency "
        "histograms (PR-7-identical serving path)",
    )
    p_serve.add_argument(
        "--access-log", action="store_true",
        help="log every HTTP request to stderr (off by default)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live one-screen view of a running `repro serve` instance",
    )
    p_top.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="base URL of the service (default %(default)s)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between refreshes",
    )
    p_top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="frames to render before exiting (0 = until interrupted)",
    )
    p_top.add_argument(
        "--slow", type=int, default=5, metavar="N",
        help="slowest recent queries shown",
    )
    p_top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    p_top.set_defaults(func=_cmd_top)
    return parser


def _cmd_sql(args, out) -> int:
    from repro.sql import run_sql
    from repro.sql.parser import ParseError, parse_query
    from repro.storage.io import load_distributed

    if args.data_dir:
        dist = load_distributed(args.data_dir)
    else:
        dist = _build_workload(args)
    try:
        _table, query = parse_query(args.query)
    except ParseError as exc:
        raise CliError(f"bad SQL: {exc}") from exc
    _checked_columns(query, dist.schema, "bad SQL")
    if args.substrate == "mp":
        return _cmd_sql_mp(args, out, dist, run_sql)
    if args.timeout is not None:
        raise CliError(
            "--timeout is the real executor's deadline; it needs "
            "--substrate mp (the simulator reports simulated seconds)"
        )
    params = _sim_params(dist, args)
    outcome = run_sql(
        args.query, dist, algorithm=args.algorithm, params=params
    )
    print(
        f"{outcome.algorithm}: {outcome.num_groups} groups in "
        f"{outcome.elapsed_seconds:.4f}s simulated",
        file=out,
    )
    for row in outcome.rows[: args.show_rows]:
        print("  ", row, file=out)
    if outcome.num_groups > args.show_rows:
        print(f"   ... {outcome.num_groups - args.show_rows} more rows",
              file=out)
    return 0


def _cmd_sql_mp(args, out, dist, run_sql) -> int:
    """``repro sql --substrate mp``: real pool, optional deadline."""
    import time as _time

    from repro.parallel import DeadlineExceededError

    start = _time.monotonic()
    deadline = None
    if args.timeout is not None:
        deadline = start + args.timeout
    try:
        rows = run_sql(
            args.query, dist,
            substrate="mp",
            processes=args.processes,
            deadline=deadline,
        )
    except DeadlineExceededError as exc:
        raise CliError(
            f"deadline missed: {exc}; raise --timeout (was "
            f"{args.timeout}s) or shrink the workload",
            exit_code=EXIT_DEADLINE_MISS,
        ) from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    elapsed = _time.monotonic() - start
    print(
        f"mp: {len(rows)} groups in {elapsed:.4f}s wall",
        file=out,
    )
    for row in rows[: args.show_rows]:
        print("  ", row, file=out)
    if len(rows) > args.show_rows:
        print(f"   ... {len(rows) - args.show_rows} more rows", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    """``repro serve``: boot the HTTP query service until SIGTERM."""
    from repro.service import QueryService, ServiceConfig
    from repro.service.http import create_server, serve
    from repro.storage.io import load_distributed

    faults = _parse_fault_plan(args.faults) if args.faults else None
    if args.data_dir:
        dist = load_distributed(args.data_dir)
    else:
        dist = _build_workload(args)
    if faults is not None:
        _check_fault_targets(faults, dist.num_nodes)
    try:
        config = ServiceConfig(
            max_concurrency=args.max_concurrency,
            queue_depth=args.queue_depth,
            memory_pool_bytes=args.memory_pool_mb * 1024 * 1024,
            default_timeout_seconds=args.default_timeout,
            processes=args.processes,
            strategy=args.strategy,
            faults=faults,
            live_observability=not args.no_live_observability,
            query_log_path=args.query_log,
            slow_trace_threshold_seconds=args.slow_trace_threshold,
            access_log=args.access_log,
        )
    except ValueError as exc:
        raise CliError(f"bad service configuration: {exc}") from exc
    service = QueryService(config)
    service.register_table(args.table, dist)
    try:
        server = create_server(service, args.host, args.port)
    except OSError as exc:
        raise CliError(
            f"cannot bind {args.host}:{args.port}: {exc}; "
            "pick another --port (0 = OS-assigned)"
        ) from exc
    print(
        f"serving table {args.table!r} ({len(dist)} tuples, "
        f"{dist.num_nodes} fragments) on "
        f"http://{args.host}:{server.server_port} — POST /query, "
        "GET /healthz, GET /metrics[?format=prom], GET /debug/queries, "
        "GET /debug/trace/<id>; SIGTERM drains",
        file=out,
        flush=True,
    )
    # The tables, the imported modules and the server are permanent from
    # here on.  Frozen, the collector never walks them again: a full
    # collection otherwise costs 10-25 ms and lands on whichever request
    # happens to allocate past the threshold, once per ~20 misses.  Pool
    # workers fork from this process and inherit the frozen heap.
    gc.collect()
    gc.freeze()
    serve(service, server=server)
    print("drained clean; worker pool shut down", file=out)
    return 0


def _top_fetch(url: str, timeout: float = 2.0):
    import json as json_mod
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json_mod.loads(resp.read())
    except urllib.error.HTTPError as exc:
        # A draining /healthz answers 503 with a valid JSON body —
        # still worth rendering.
        try:
            return json_mod.loads(exc.read())
        except ValueError:
            raise CliError(
                f"{url} answered HTTP {exc.code} without JSON"
            ) from exc
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise CliError(
            f"cannot reach {url}: {exc} — is `repro serve` running there?"
        ) from exc


def _top_frame(base: str, slow_rows: int, previous: dict) -> str:
    """One rendered frame of ``repro top`` (pure text, no cursor moves)."""
    from repro.obs.metrics import quantile_from_buckets

    health = _top_fetch(f"{base}/healthz")
    snapshot = _top_fetch(f"{base}/metrics")
    try:
        debug = _top_fetch(f"{base}/debug/queries")
    except CliError:
        debug = None
    if debug is not None and "queries" not in debug:
        debug = None  # live observability disabled server-side (404 body)

    def counter(name):
        entry = snapshot.get(name) or {}
        return entry.get("value") or 0

    def gauge(name, default=0.0):
        entry = snapshot.get(name) or {}
        value = entry.get("value")
        return default if value is None else value

    uptime = gauge("svc.uptime_seconds")
    admitted = counter("svc.admitted")
    prev_uptime = previous.get("uptime", 0.0)
    prev_admitted = previous.get("admitted", 0)
    dt = uptime - prev_uptime
    if previous and dt > 0:
        qps = max(0, admitted - prev_admitted) / dt
    elif uptime > 0:
        qps = admitted / uptime  # first frame: lifetime average
    else:
        qps = 0.0
    previous["uptime"], previous["admitted"] = uptime, admitted

    lines = []
    lines.append(
        f"repro top — {base}  status={health.get('status', '?')}  "
        f"uptime={uptime:8.1f}s"
    )
    lines.append(
        f"load {health.get('load', 0):.2f}  "
        f"running {health.get('running', 0)}  "
        f"queued {health.get('queued', 0)}  "
        f"rung {health.get('ladder_rung', '?')}  "
        f"breaker {health.get('breaker', '?')}"
    )
    latency = snapshot.get("svc.latency_seconds")
    if isinstance(latency, dict) and latency.get("type") == "histogram":
        quantiles = {
            q: quantile_from_buckets(
                latency["buckets"], latency["counts"], q,
                overflow_value=latency["max"],
            )
            for q in (0.5, 0.95, 0.99)
        }
        lines.append(
            f"qps {qps:7.1f}   latency p50 {quantiles[0.5] * 1000:7.1f}ms"
            f"  p95 {quantiles[0.95] * 1000:7.1f}ms"
            f"  p99 {quantiles[0.99] * 1000:7.1f}ms"
        )
    else:
        lines.append(
            f"qps {qps:7.1f}   latency histogram not yet populated"
        )
    lines.append(
        f"admitted {admitted}  shed {counter('svc.shed')}  "
        f"failed {counter('svc.failed')}  "
        f"deadline_miss {counter('svc.deadline_misses')}  "
        f"retries {counter('svc.retries')}  "
        f"cache {counter('svc.cache.hits')}/"
        f"{counter('svc.cache.hits') + counter('svc.cache.misses')}  "
        f"qlog_dropped {counter('svc.qlog.dropped')}"
    )
    records = (debug or {}).get("queries") or []
    if records and slow_rows > 0:
        slow = sorted(
            records,
            key=lambda r: r.get("elapsed_seconds", 0.0),
            reverse=True,
        )[:slow_rows]
        lines.append("")
        lines.append(
            f"{'QID':>6} {'FINGERPRINT':12} {'OUTCOME':13} "
            f"{'RUNG':14} {'WAIT_MS':>8} {'ELAPSED_MS':>10} CACHE"
        )
        for r in slow:
            lines.append(
                f"{r.get('query_id', '?'):>6} "
                f"{str(r.get('sql_fingerprint', '?')):12} "
                f"{str(r.get('outcome', '?')):13} "
                f"{str(r.get('rung', '?')):14} "
                f"{r.get('queue_wait_seconds', 0.0) * 1000:8.1f} "
                f"{r.get('elapsed_seconds', 0.0) * 1000:10.1f} "
                f"{'yes' if r.get('cache_hit') else 'no'}"
            )
    elif debug is None:
        lines.append("(no /debug/queries — live observability disabled)")
    return "\n".join(lines)


def _cmd_top(args, out) -> int:
    """``repro top``: poll /metrics + /debug/queries, render a screen."""
    import time

    base = args.url.rstrip("/")
    previous: dict = {}
    frame_index = 0
    try:
        while True:
            frame = _top_frame(base, args.slow, previous)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="", file=out)
            print(frame, file=out, flush=True)
            frame_index += 1
            if args.iterations and frame_index >= args.iterations:
                return 0
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:
        return 0


def _cmd_scale(args, out) -> int:
    from repro.bench import scaling

    try:
        if args.mode == "scaleup":
            result = scaling.sim_scaleup(
                tuples_per_node=args.tuples_per_node,
                selectivity=args.selectivity,
                seed=args.seed,
            )
        else:
            result = scaling.sim_speedup(
                num_tuples=args.tuples,
                num_groups=args.groups,
                seed=args.seed,
            )
    except ValueError as exc:
        sizes = (
            f"--tuples-per-node {args.tuples_per_node} --selectivity "
            f"{args.selectivity}"
            if args.mode == "scaleup"
            else f"--tuples {args.tuples} --groups {args.groups}"
        )
        raise CliError(f"bad {args.mode} sizes ({sizes}): {exc}") from exc
    print(format_table(result), file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except CliError as exc:
        print(f"error: {exc}", file=out)
        return exc.exit_code
    except BrokenPipeError:
        # Piping into `head` and friends closes our stdout early; that
        # is the consumer's prerogative, not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
