"""End-to-end benchmark: four long workloads, times in calibration units.

    python3 benchmarks/e2e/run.py --seed 42
        every workload in its own child process: the timed window, then
        a separate traced pass for the per-layer numbers

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload (what a driver calls); the last line of
        standard output is one JSON object with the keys ``correct``,
        ``attempted``, ``failed`` and ``metrics``

    python3 benchmarks/e2e/run.py --repeat-check N [--workload NAME]
        N timed sets, each on another seed; per metric and workload the
        median, quartiles and spread against the bound in BENCHMARK.json

Metric names, units and bounds live in ``BENCHMARK.json`` at the root of
the checkout and nowhere else; see ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# The window is cut into this many equal segments, each with a set-up of
# its own (fresh tables, fresh pool or server).  How fast a process runs
# interpreter-bound code depends on where its allocator put things, by
# several per cent and for as long as it lives; one pool per run would
# put that luck into the run-to-run spread in full.  setup_s is the
# median of the segments' set-ups.
SEGMENTS = 4
SETTLE_OPS = 2  # uncounted ops between a set-up and its segment
DIAG_PREFIX = "diagnostics: "
EXIT_INCORRECT = 1
EXIT_NOISY = 3
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>
STRAGGLER_GRACE = 10.0  # seconds an exiting process gets before SIGKILL


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bootstrap() -> None:
    """Make the checkout's ``src/`` importable here and in every child
    (the served process, spawned pool workers)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"{SRC}/repro not found: run from a full checkout")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")


# -- one workload, one process ------------------------------------------------


def timed_run(name: str, seed: int, seconds: float, corrupt: bool):
    """``SEGMENTS`` times: set-up, warm-up, a share of the timed window,
    teardown and the leak check; then the reference check."""
    from calib import Calibrator
    from harness import (
        Window, cpu_busy_shares, cpu_ticks, leftovers, peak_rss_mib, quantile,
        run_ops,
    )
    from workloads import WORKLOADS

    run_began = time.perf_counter()
    workload = WORKLOADS[name]()
    cal = Calibrator()
    window = Window(workload.labels)
    setups = []
    problems = []
    rss = 0.0
    busy = []
    elapsed = 0.0
    for _ in range(SEGMENTS):
        before = cal.sample()
        start = time.perf_counter()
        workload.start(seed)
        workload.warm()
        taken = time.perf_counter() - start
        setups.append((taken, taken / cal.unit(before, cal.sample())))
        run_ops(workload, cal, Window(workload.labels), count=SETTLE_OPS)

        began = time.perf_counter()
        ticks = cpu_ticks()
        run_ops(workload, cal, window, seconds=seconds / SEGMENTS)
        busy.append(cpu_busy_shares(ticks, cpu_ticks()))
        elapsed += time.perf_counter() - began
        rss = max(rss, peak_rss_mib())
        workload.stop()
        problems += leftovers()
    problems += workload.verify(seed, corrupt=corrupt)

    totals_cu = window.totals_cu()
    tuples = workload.tuples_per_sample * len(window.samples)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "op_p50_cu": window.p50_cu(),
        "op_tail_cu": quantile(totals_cu, workload.tail_q),
        "tuples_per_cu": tuples / sum(totals_cu),
        "peak_rss_mb": rss,
    }
    diagnostics = {
        "samples": len(window.samples),
        "tail_quantile": workload.tail_q,
        "samples_beyond_tail": round(
            len(window.samples) * (1 - workload.tail_q), 1),
        "window_s": elapsed,
        "setup_cu": statistics.median(c for _, c in setups),
        "op_p50_ms": window.p50_seconds() * 1e3,
        "op_tail_ms": quantile(window.totals_seconds(), workload.tail_q) * 1e3,
        "tuples_per_s": tuples / sum(window.totals_seconds()),
        "ops_per_s": window.attempted / elapsed,
        "calib": cal.fingerprint(),
        "cpu_busy": busy,
        "run_s": time.perf_counter() - run_began,
    }
    if len(workload.labels) > 1:
        for label in workload.labels:
            diagnostics[f"{label}_p50_cu"] = statistics.median(window.cu(label))
    for label, walls in window.extra.items():
        diagnostics[f"{label}_samples"] = len(walls)
        diagnostics[f"{label}_p50_ms"] = statistics.median(walls) * 1e3
        diagnostics[f"{label}_p95_ms"] = quantile(walls, 0.95) * 1e3
    return metrics, diagnostics, window, problems


def traced_run(name: str, seed: int, corrupt: bool):
    """One set-up, then the fixed-count traced pass and the layer probes."""
    from calib import Calibrator
    from harness import Spans, Window, leftovers, run_ops
    from layers import collect_sql, collect_svc
    from workloads import WORKLOADS, ServiceWorkload

    workload = WORKLOADS[name]()
    cal = Calibrator()
    spans = Spans()
    with spans.span("setup", None):
        workload.start(seed)
        workload.warm()
        run_ops(workload, cal, Window(workload.labels), count=SETTLE_OPS)
    collect = collect_svc if isinstance(workload, ServiceWorkload) else collect_sql
    layer, window, problems = collect(workload, cal, seed, spans, corrupt)
    problems = leftovers() + problems
    fingerprint = cal.fingerprint()
    layer["calib.np_ms"] = fingerprint["np_ms"]
    layer["calib.py_ms"] = fingerprint["py_ms"]
    layer["calib.cv"] = fingerprint["cv"]
    trace_path = spans.write(os.path.join(OUT_DIR, f"{name}.trace.json"), name)
    diagnostics = {
        "calib": fingerprint,
        "trace": os.path.relpath(trace_path, ROOT),
        "absent": sorted(k for k, v in layer.items() if v is None),
    }
    return layer, diagnostics, window, problems


def one_run(args, spec) -> int:
    if args.trace:
        metrics, diagnostics, window, problems = traced_run(
            args.workload, args.seed, args.inject_wrong_row)
        wanted = spec["per_layer"]
    else:
        metrics, diagnostics, window, problems = timed_run(
            args.workload, args.seed, args.seconds, args.inject_wrong_row)
        wanted = spec["end_to_end"]
    for problem in problems:
        print(f"# INCORRECT {args.workload}: {problem}")
    correct = not problems and window.failed == 0
    noisy = diagnostics["calib"]["noisy"]

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{window.attempted} ops attempted, {window.failed} failed"
          + ("; calibration NOISY" if noisy else ""))
    reported = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:13s} {entry['name']:32s} {shown:>12s} "
              f"{entry['unit']}")
        # A layer this workload does not pass through reads 0.
        reported[entry["name"]] = {
            "value": 0 if value is None else value, "unit": entry["unit"],
        }
    print(DIAG_PREFIX + json.dumps(diagnostics, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": reported,
    }))
    if not correct:
        return EXIT_INCORRECT
    if noisy and args.strict:
        return EXIT_NOISY
    return 0


# -- nothing outlives a run -----------------------------------------------------


def empty_session(session: int, grace: float) -> list[int]:
    """Reap this process's children and wait until ``session`` has no
    member left.  Members still there after ``grace`` seconds are killed;
    returns their pids."""
    from harness import session_members

    deadline = time.monotonic() + grace
    killed: list[int] = []
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        members = session_members(session)
        if not members or time.monotonic() >= deadline + STRAGGLER_GRACE:
            return killed
        if time.monotonic() >= deadline:
            killed = killed or members
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def supervise(argv) -> int:
    """Run one workload in a session of its own and return only when every
    process of that session has ended and been reaped.

    The workload's process cannot see to this itself: the interpreter's
    shared-memory resource tracker outlives it by design (it exits on the
    end of file of a pipe its parent holds), and a crash would orphan the
    server.  Orphans of the session are adopted here
    (``PR_SET_CHILD_SUBREAPER``), so they can be waited for like children.
    The workload's output is printed once the session is empty, without
    its result line if something in it had to be killed.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans go to init; the session scan still waits for them
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(EXIT_INCORRECT))
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT_DIR) as captured:
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv, "--in-session"],
            stdout=captured, start_new_session=True,
        )
        try:
            code = proc.wait()
        except BaseException:
            # Told to stop: so is the session.  The resource trackers
            # ignore the signal and unlink their owners' segments.
            os.killpg(proc.pid, signal.SIGTERM)
            raise
        finally:
            killed = empty_session(proc.pid, STRAGGLER_GRACE)
        captured.seek(0)
        lines = captured.read().splitlines()
    if killed:
        if lines and lines[-1].startswith("{"):
            lines.pop()
        lines.append(f"# INCORRECT: processes {killed} outlived the run "
                     "and were killed")
        code = code or EXIT_INCORRECT
    for line in lines:
        print(line)
    return code


# -- every workload, each in a child -------------------------------------------


def child(workload: str, seed: int, seconds: float, trace: int,
          passthrough=(), echo: bool = True):
    """Run one workload in its own process; returns (exit code, result,
    diagnostics) parsed from the last two lines it printed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), *passthrough],
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    result = diagnostics = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    if lines and lines[-1].startswith(DIAG_PREFIX):
        diagnostics = json.loads(lines.pop()[len(DIAG_PREFIX):])
    if echo:
        for line in lines:
            print(line)
    return done.returncode, result, diagnostics


def full_run(args, spec) -> int:
    passthrough = ["--strict"] if args.strict else []
    if args.inject_wrong_row:
        passthrough.append("--inject-wrong-row")
    worst = 0
    for trace in (0, 1):
        print("== timed window ==" if trace == 0 else
              "== traced pass (per-layer) ==")
        for entry in spec["workloads"]:
            code, result, diagnostics = child(
                entry["name"], args.seed, args.seconds, trace, passthrough)
            worst = max(worst, code)
            if result is None:
                print(f"# {entry['name']}: no result (exit {code})")
                worst = max(worst, EXIT_INCORRECT)
                continue
            if trace == 0:
                for key in sorted(diagnostics):
                    if key != "calib":
                        value = diagnostics[key]
                        shown = (f"{value:.6g}" if isinstance(value, float)
                                 else str(value))
                        print(f"{entry['name']:13s} ~{key:31s} {shown:>12s}")
            else:
                print(f"{entry['name']:13s} trace file: {diagnostics['trace']}")
    print("every op correct" if worst == 0 else f"FAILED (exit {worst})")
    return worst


# -- repeatability ---------------------------------------------------------------

RAW_TWINS = {
    "setup_s": "setup_cu",
    "op_p50_cu": "op_p50_ms",
    "op_tail_cu": "op_tail_ms",
    "tuples_per_cu": "tuples_per_s",
}


def repeat_check(args, spec) -> int:
    """N timed sets on seeds ``seed .. seed+N-1``, read as the driver
    reads its runs: the sets are split into a first and a second half,
    each half's spread is the distance between its quartiles
    (``statistics.quantiles(values, n=4)``) as a share of its median, and
    the second half's median may not be worse than the first's by more
    than the bound."""
    from calib import iqr_over_median

    sets = args.repeat_check
    names = [w["name"] for w in spec["workloads"]
             if args.workload in (None, w["name"])]
    series: dict[tuple, list] = {}
    failed = 0
    for index in range(sets):
        for name in names:
            code, result, diagnostics = child(
                name, args.seed + index, args.seconds, 0, echo=False)
            if code != 0 or result is None or not result["correct"]:
                failed += 1
                print(f"# set {index} {name}: exit {code}", file=sys.stderr)
                continue
            for metric, body in result["metrics"].items():
                series.setdefault((name, metric), []).append(body["value"])
            for twin in RAW_TWINS.values():
                series.setdefault((name, twin), []).append(diagnostics[twin])
            print(f"# set {index} {name} done", file=sys.stderr)

    half = sets // 2
    print(f"# Repeatability: {sets} timed sets of {args.seconds:g} s, "
          f"seeds {args.seed}..{args.seed + sets - 1}\n")
    print(f"Output of `python3 benchmarks/e2e/run.py --repeat-check {sets}`."
          f"  The sets are read as two halves of {half} and {sets - half}, "
          "the way the driver reads its two rounds of runs: *spread* = "
          "(Q3 - Q1) / median of a half, with `statistics.quantiles(n=4)`; "
          "*shift* = median of the second half over median of the first, "
          "minus one (for `tuples_per_cu` a negative shift is the worse "
          "direction).  A pair is `ok` when both spreads (not `setup_s`'s) "
          "and the shift in the worse direction are within the bound.  The "
          "row under each gated metric is its twin in raw units (for "
          "`setup_s`: in cu), which gates nothing: it shows what "
          "calibration buys.\n")
    print("| workload | metric | unit | median | spread 1 | spread 2 | "
          "shift | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    over = 0
    for name in names:
        for entry in spec["end_to_end"]:
            for metric, bound in (
                (entry["name"], entry["bound"]),
                (RAW_TWINS.get(entry["name"]), None),
            ):
                values = series.get((name, metric), ())
                if metric is None or half < 2 or len(values) != sets:
                    continue
                first, second = values[:half], values[half:]
                spreads = (iqr_over_median(first), iqr_over_median(second))
                shift = (statistics.median(second)
                         / statistics.median(first) - 1)
                if bound is None:
                    unit, limit, verdict = "", "", "not gated"
                else:
                    unit, limit = entry["unit"], f"{bound:.0%}"
                    worse = shift if entry["better"] == "lower" else -shift
                    ok = worse <= bound and (
                        metric == "setup_s" or max(spreads) <= bound)
                    verdict = "ok" if ok else "OVER"
                    over += not ok
                print(f"| {name} | {metric} | {unit} | "
                      f"{statistics.median(values):.5g} | {spreads[0]:.1%} | "
                      f"{spreads[1]:.1%} | {shift:+.1%} | {limit} | "
                      f"{verdict} |")
    print(f"\n{failed} failed runs, {over} metric x workload pairs over "
          "their bound.")
    return EXIT_INCORRECT if failed or over else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=42,
                        help="every input is generated from it")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed window of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = timed window (end-to-end "
                        "metrics), 1 = traced pass (per-layer metrics)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when the run's own calibration "
                        "samples say the host was too noisy")
    parser.add_argument("--repeat-check", type=int, metavar="N",
                        help="run N timed sets and print the spread table")
    parser.add_argument("--inject-wrong-row", action="store_true",
                        help="self-test of the checker: corrupt one expected "
                        "row, so the run must fail")
    parser.add_argument("--in-session", action="store_true",
                        help=argparse.SUPPRESS)  # set by supervise()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    bootstrap()
    if args.repeat_check:
        return repeat_check(args, spec)
    if args.in_session:
        return one_run(args, spec)
    if args.workload:
        return supervise(argv)
    return full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
