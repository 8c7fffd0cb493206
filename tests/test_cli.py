"""Tests for the command-line interface (driven in-process)."""

import gc
import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRun:
    def test_run_with_verify(self):
        code, text = run_cli(
            "run",
            "--algorithm", "two_phase",
            "--tuples", "2000",
            "--groups", "50",
            "--nodes", "4",
            "--verify",
        )
        assert code == 0
        assert "two_phase" in text
        assert "verified against reference: OK" in text

    def test_show_rows(self):
        code, text = run_cli(
            "run",
            "--algorithm", "repartitioning",
            "--tuples", "1000",
            "--groups", "5",
            "--nodes", "2",
            "--show-rows", "3",
        )
        assert code == 0
        assert text.count("(") >= 3

    def test_custom_aggregates(self):
        code, text = run_cli(
            "run",
            "--algorithm", "two_phase",
            "--tuples", "1000",
            "--groups", "5",
            "--nodes", "2",
            "--agg", "avg:val",
            "--agg", "count",
            "--verify",
        )
        assert code == 0
        assert "OK" in text

    def test_bad_aggregate_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(
                "run", "--algorithm", "two_phase", "--agg", "median:val"
            )

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--algorithm", "quantum")

    def test_workload_variants(self):
        for workload in ("zipf", "output-skew", "input-skew"):
            code, _ = run_cli(
                "run",
                "--algorithm", "adaptive_two_phase",
                "--tuples", "2000",
                "--groups", "100",
                "--nodes", "8",
                "--workload", workload,
            )
            assert code == 0, workload

    def test_timeline_flag(self):
        code, text = run_cli(
            "run",
            "--algorithm", "two_phase",
            "--tuples", "1000",
            "--groups", "10",
            "--nodes", "2",
            "--timeline",
        )
        assert code == 0
        assert "node  0 |" in text
        assert ".=idle/wait" in text

    def test_pipeline_and_network_flags(self):
        code, _ = run_cli(
            "run",
            "--algorithm", "two_phase",
            "--tuples", "1000",
            "--groups", "10",
            "--nodes", "2",
            "--network", "fast",
            "--pipeline",
        )
        assert code == 0


class TestRunFaults:
    def test_sim_substrate_refuses_fault_plan(self):
        """The simulated cluster never fails: a valid plan is parsed,
        then refused by name rather than silently ignored."""
        code, text = run_cli(
            "run",
            "--algorithm", "two_phase",
            "--tuples", "2000", "--groups", "50", "--nodes", "4",
            "--faults", "seed=42,kill=2,slow=1x2.0,loss=0.1",
        )
        assert code == 2
        assert "needs --substrate mp" in text

    def test_algorithm_defaults_to_adaptive(self):
        code, text = run_cli(
            "run", "--tuples", "1000", "--groups", "20", "--nodes", "2"
        )
        assert code == 0
        assert "adaptive_two_phase" in text

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("seed=1,bogus=3", "unknown --faults key"),
            ("seed", "expected key=value"),
            ("stall=0xnope", "expected NODExNUMBER"),
            ("kill=1,kill=1", "bad --faults plan"),
            ("loss=2.0", "bad --faults plan"),
        ],
    )
    def test_bad_fault_specs_rejected(self, spec, fragment):
        code, text = run_cli(
            "run", "--tuples", "400", "--nodes", "2", "--faults", spec
        )
        assert code == 2
        assert fragment in text

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("seed=1,kill=1@50", "kill=N@T is gone"),
            ("seed=1,dup=0.1", "dup= (message duplication) is gone"),
            ("seed=1,kill=-1", "fragment index >= 0"),
            ("slow=-1x2.0", "fragment index >= 0"),
            ("stall=-2x0.5", "fragment index >= 0"),
        ],
    )
    @pytest.mark.parametrize("substrate", ["sim", "mp"])
    def test_retired_and_negative_targets_rejected(
        self, substrate, spec, fragment
    ):
        code, text = run_cli(
            "run", "--substrate", substrate, "--tuples", "400",
            "--nodes", "4", "--faults", spec,
        )
        assert code == 2
        assert fragment in text

    @pytest.mark.parametrize(
        "spec", ["seed=1,kill=9", "seed=1,kill=4", "slow=4x2.0",
                 "stall=7x0.5"],
    )
    def test_mp_plan_beyond_the_fragments_rejected(self, spec):
        """A plan naming no real fragment used to inject nothing and
        exit 0."""
        code, text = run_cli(
            "run", "--substrate", "mp", "--processes", "1",
            "--tuples", "400", "--nodes", "4", "--faults", spec,
            "--verify",
        )
        assert code == 2
        assert "but the relation has 4" in text
        assert "injected=" not in text


class TestWorkloadSizes:
    """Every size the generators cannot build is a usage error (exit 2,
    one line), never a traceback."""

    @pytest.mark.parametrize("substrate", ["sim", "mp"])
    @pytest.mark.parametrize("nodes", range(1, 9))
    @pytest.mark.parametrize(
        "workload", ["uniform", "zipf", "output-skew", "input-skew"]
    )
    def test_every_workload_and_node_count(self, workload, nodes,
                                           substrate):
        code, text = run_cli(
            "run", "--workload", workload, "--nodes", str(nodes),
            "--substrate", substrate, "--processes", "1",
            "--tuples", "400", "--groups", "20",
        )
        assert "Traceback" not in text
        if workload == "output-skew" and nodes == 1:
            # Output skew needs a node beyond its single-group ones.
            assert code == 2
            assert text.startswith("error: cannot build")
        else:
            assert code == 0, text

    @pytest.mark.parametrize("nodes", [5, 8])
    def test_output_skew_builds_what_it_built_before(self, nodes):
        """Where output-skew built before, it builds the same relation:
        the generator's default four single-group nodes."""
        from repro.cli import _build_workload, build_parser
        from repro.workloads.skew import generate_output_skew

        args = build_parser().parse_args([
            "run", "--workload", "output-skew", "--nodes", str(nodes),
            "--tuples", "600", "--groups", "30",
        ])
        want = generate_output_skew(600, 30, num_nodes=nodes, seed=0)
        got = _build_workload(args)
        assert [f.relation.rows for f in got.fragments] == [
            f.relation.rows for f in want.fragments
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--tuples", "0"),
            ("--groups", "0"),
            ("--nodes", "0"),
            ("--groups", "5000", "--tuples", "100"),
            ("--workload", "output-skew", "--nodes", "1"),
        ],
        ids=["tuples0", "groups0", "nodes0", "groups-over-tuples",
             "output-skew-1-node"],
    )
    @pytest.mark.parametrize("substrate", ["sim", "mp"])
    def test_bad_sizes_are_usage_errors(self, argv, substrate):
        code, text = run_cli("run", "--substrate", substrate, *argv)
        assert code == 2
        assert text.startswith("error: cannot build")
        assert "Traceback" not in text


_SMALL = ("--tuples", "400", "--groups", "20", "--nodes", "2")
_OK_SQL = "SELECT gkey, SUM(val) FROM data GROUP BY gkey"


class TestBadInputsAreUsageErrors:
    """A bad size, an unknown column or bad SQL exits 2 with one line
    naming the bad value, on every command that takes it."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("run", *_SMALL, "--table-entries", "0"), "--table-entries 0"),
            (("compare", *_SMALL, "--table-entries", "0"),
             "--table-entries 0"),
            (("explain", "--algorithm", "two_phase", *_SMALL,
              "--table-entries", "0"), "--table-entries 0"),
            (("trace", "--algorithm", "two_phase", *_SMALL,
              "--table-entries", "0"), "--table-entries 0"),
            (("sql", _OK_SQL, *_SMALL, "--table-entries", "0"),
             "--table-entries 0"),
            (("plan", "--nodes", "0"), "--nodes 0"),
            (("plan", "--groups-estimate", "-3"), "--groups-estimate -3"),
            (("scale", "--tuples-per-node", "0"), "--tuples-per-node 0"),
            (("run", *_SMALL, "--agg", "avg:nosuch"), "'nosuch'"),
            (("run", *_SMALL, "--agg", "avg:nosuch", "--substrate", "mp",
              "--processes", "1"), "'nosuch'"),
            (("sql", "SELECT nosuch, SUM(val) FROM data GROUP BY nosuch",
              *_SMALL), "'nosuch'"),
            (("sql", "SELECT gkey, SUM(nosuch) FROM data GROUP BY gkey",
              *_SMALL), "'nosuch'"),
            (("sql", "SELECT gkey, SUM(val) FROM data WHERE nosuch > 1 "
              "GROUP BY gkey", *_SMALL), "'nosuch'"),
            (("sql", "SELECT nosuch, SUM(val) FROM data GROUP BY nosuch",
              *_SMALL, "--substrate", "mp", "--processes", "1"), "'nosuch'"),
            (("sql", "SELECT gkey, SUM(nosuch) FROM data GROUP BY gkey",
              *_SMALL, "--substrate", "mp", "--processes", "1"), "'nosuch'"),
            (("sql", "SELECT gkey, SUM(val) FROM data WHERE nosuch > 1 "
              "GROUP BY gkey", *_SMALL, "--substrate", "mp",
              "--processes", "1"), "'nosuch'"),
            (("sql", "SELECT gkey, SUM(val) FROM data GROUP BY", *_SMALL),
             "bad SQL"),
        ],
        ids=[
            "run-table-entries", "compare-table-entries",
            "explain-table-entries", "trace-table-entries",
            "sql-table-entries", "plan-nodes", "plan-groups-estimate",
            "scale-tuples-per-node", "run-agg-column-sim",
            "run-agg-column-mp", "sql-select-column-sim",
            "sql-agg-column-sim", "sql-where-column-sim",
            "sql-select-column-mp", "sql-agg-column-mp",
            "sql-where-column-mp", "sql-parse-error-sim",
        ],
    )
    def test_exits_2_naming_the_value(self, argv, named, tmp_path):
        if argv[0] == "trace":
            argv = (*argv, "--out", str(tmp_path / "trace.json"))
        code, text = run_cli(*argv)
        assert code == 2, text
        assert "Traceback" not in text
        assert text.splitlines()[-1].startswith("error: ")
        assert named in text.splitlines()[-1]


class TestVerifyComparesValues:
    """``--verify`` compares every value with the reference on both
    substrates, not just how many rows came back."""

    @pytest.mark.parametrize("substrate", ["sim", "mp"])
    def test_one_wrong_value_is_a_mismatch(self, substrate, monkeypatch):
        import repro.cli
        from repro.parallel import reference_aggregate

        def off_by_one(dist, query):
            rows = [list(r) for r in reference_aggregate(dist, query)]
            rows[0][-1] += 1
            return [tuple(r) for r in rows]

        monkeypatch.setattr(repro.cli, "reference_aggregate", off_by_one)
        code, text = run_cli(
            "run",
            "--substrate", substrate, "--processes", "1",
            "--tuples", "1000", "--groups", "20", "--nodes", "4",
            "--verify",
        )
        assert code == 1
        assert "verified against reference: MISMATCH" in text


class TestRunMp:
    def test_mp_substrate_runs_and_verifies(self):
        code, text = run_cli(
            "run",
            "--substrate", "mp",
            "--tuples", "2000", "--groups", "50", "--nodes", "4",
            "--processes", "2",
            "--verify",
        )
        assert code == 0
        assert "mp[pool]" in text
        assert "verified against reference: OK" in text

    def test_mp_substrate_with_fault_plan(self):
        code, text = run_cli(
            "run",
            "--substrate", "mp",
            "--tuples", "2400", "--groups", "60", "--nodes", "4",
            "--processes", "2",
            "--faults", "seed=1,kill=3,slow=2x6.0,loss=0.3",
            "--verify",
        )
        assert code == 0
        assert "verified against reference: OK" in text
        assert "injected=" in text

    def test_mp_rejects_faults_without_injection_shim(self):
        code, text = run_cli(
            "run",
            "--substrate", "mp", "--strategy", "rep",
            "--tuples", "400", "--groups", "20", "--nodes", "2",
            "--faults", "seed=1,kill=1",
        )
        assert code == 2
        assert "strategy='pool'" in text

    @pytest.mark.parametrize("argv", [
        ("run", "--substrate", "mp", "--strategy", "spawn"),
        ("serve", "--strategy", "spawn"),
    ], ids=["run", "serve"])
    def test_spawn_strategy_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert "spawn" in message
        for strategy in ("pool", "global", "rep", "auto"):
            assert strategy in message

    def test_serve_freezes_the_heap_before_it_serves(self, monkeypatch):
        """A full collection over the tables and modules costs 10-25 ms
        and lands on whichever request trips it; the serving process
        takes them out of the collector's sight first."""
        seen = {}

        def fake_serve(service, server=None, **_kwargs):
            seen["frozen"] = gc.get_freeze_count()
            server.server_close()

        monkeypatch.setattr("repro.service.http.serve", fake_serve)
        try:
            code, _text = run_cli(
                "serve", "--port", "0", "--tuples", "400", "--groups", "8",
                "--nodes", "2",
            )
        finally:
            gc.unfreeze()  # this is the test process, not a server
        assert code == 0
        assert seen["frozen"] > 0

    @pytest.mark.parametrize("seconds", ["nan", "inf"])
    def test_serve_rejects_a_non_finite_default_timeout(self, seconds):
        code, text = run_cli(
            "serve", "--port", "0", "--tuples", "400", "--groups", "8",
            "--nodes", "2", "--default-timeout", seconds,
        )
        assert code == 2
        assert "default_timeout_seconds must be a finite number" in text

    def test_mp_rejects_a_nan_timeout(self):
        code, text = run_cli(
            "run", "--substrate", "mp", "--tuples", "400", "--groups", "20",
            "--nodes", "2", "--timeout", "nan",
        )
        assert code == 2
        assert "deadline must be a finite number" in text

    @pytest.mark.parametrize("flag", ["--timeline", "--save-run"])
    def test_mp_rejects_simulator_only_flags(self, flag, tmp_path):
        argv = [
            "run", "--substrate", "mp", "--tuples", "400", "--nodes", "2",
            flag,
        ]
        if flag == "--save-run":
            argv.append(str(tmp_path / "run.json"))
        code, text = run_cli(*argv)
        assert code == 2
        assert "--substrate sim" in text


class TestSql:
    def test_sql_on_generated_workload(self):
        code, text = run_cli(
            "sql",
            "SELECT gkey, SUM(val) AS total FROM r GROUP BY gkey",
            "--tuples", "1000",
            "--groups", "5",
            "--nodes", "2",
        )
        assert code == 0
        assert "5 groups" in text

    def test_sql_algorithm_choice(self):
        code, text = run_cli(
            "sql",
            "SELECT COUNT(*) FROM r",
            "--algorithm", "repartitioning",
            "--tuples", "500",
            "--groups", "5",
            "--nodes", "2",
        )
        assert code == 0
        assert "repartitioning: 1 groups" in text

    def test_sql_row_preview_truncated(self):
        code, text = run_cli(
            "sql",
            "SELECT gkey, COUNT(*) FROM r GROUP BY gkey",
            "--tuples", "1000",
            "--groups", "50",
            "--nodes", "2",
            "--show-rows", "3",
        )
        assert code == 0
        assert "... 47 more rows" in text

    def test_sql_from_saved_data(self, tmp_path):
        from repro.storage.io import save_distributed
        from repro.workloads.generator import generate_uniform

        dist = generate_uniform(600, 6, 3, seed=1)
        save_distributed(dist, str(tmp_path / "d"))
        code, text = run_cli(
            "sql",
            "SELECT gkey, MAX(val) FROM r GROUP BY gkey",
            "--data-dir", str(tmp_path / "d"),
        )
        assert code == 0
        assert "6 groups" in text


class TestCompare:
    def test_lists_all_algorithms(self):
        code, text = run_cli(
            "compare",
            "--tuples", "1500",
            "--groups", "30",
            "--nodes", "3",
        )
        assert code == 0
        for name in (
            "two_phase",
            "repartitioning",
            "sampling",
            "adaptive_two_phase",
            "adaptive_repartitioning",
            "centralized_two_phase",
            "optimized_two_phase",
            "streaming_pre_aggregation",
        ):
            assert name in text


class TestFigure:
    def test_table1(self):
        code, text = run_cli("figure", "--name", "table1")
        assert code == 0
        assert "mips" in text

    def test_fig3_prints_series(self):
        code, text = run_cli("figure", "--name", "fig3")
        assert code == 0
        assert "adaptive_two_phase" in text
        assert "selectivity" in text

    def test_writes_results(self, tmp_path):
        code, text = run_cli(
            "figure", "--name", "fig1", "--results-dir", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.txt").exists()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("figure", "--name", "fig99")


class TestParams:
    def test_paper_preset(self):
        code, text = run_cli("params")
        assert code == 0
        assert "num_nodes" in text and "32" in text

    def test_implementation_preset(self):
        code, text = run_cli("params", "--preset", "implementation")
        assert code == 0
        assert "2000000" in text


class TestExplain:
    def test_fresh_run_shows_judged_decision(self):
        code, text = run_cli(
            "explain",
            "--algorithm", "sampling",
            "--tuples", "8000",
            "--groups", "2000",
            "--nodes", "4",
        )
        assert code == 0
        assert "sampling_decision" in text
        assert "estimate_rel_error" in text
        assert "verdict" in text

    def test_drift_table_appended(self):
        code, text = run_cli(
            "explain",
            "--algorithm", "sampling",
            "--tuples", "4000",
            "--groups", "100",
            "--nodes", "4",
            "--drift",
        )
        assert code == 0
        assert "== drift: sampling (sim" in text
        assert "base_io" in text

    def test_drift_rejected_without_cost_model(self):
        code, text = run_cli(
            "explain",
            "--algorithm", "streaming_pre_aggregation",
            "--tuples", "2000",
            "--groups", "50",
            "--nodes", "2",
            "--drift",
        )
        assert code == 2
        assert text.startswith("error:")

    def test_requires_file_or_algorithm(self):
        code, text = run_cli("explain")
        assert code == 2
        assert text.startswith("error:")

    def test_save_then_explain_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.json")
        code, text = run_cli(
            "run",
            "--algorithm", "sampling",
            "--tuples", "2000",
            "--groups", "50",
            "--nodes", "4",
            "--save-run", path,
        )
        assert code == 0
        assert path in text
        code, text = run_cli("explain", path)
        assert code == 0
        assert "sampling_decision" in text

    def test_mp_run_names_why_it_left_the_fast_path(self, tmp_path):
        """A fragment whose int sum could pass int64 beside a clean one:
        the per-row phase takes the first, so the parent cannot fold —
        both reasons are the report's answer to "why was this query
        slow"."""
        from repro.core.aggregates import AggregateSpec
        from repro.core.query import AggregateQuery
        from repro.obs import MetricsRegistry, mp_run_artifact
        from repro.obs.schema import RUN_SCHEMA, write_artifact
        from repro.parallel import multiprocessing_aggregate
        from repro.storage.columnblock import ColumnBlock
        from repro.storage.relation import BlockRelation, DistributedRelation
        from repro.storage.schema import Column, Schema

        schema = Schema([Column("k", "float"), Column("v", "int")])
        parts = [[(1.5, 2**62), (1.0, 2**62)], [(1.0, 3), (2.0, 4)]]
        dist = DistributedRelation(schema, [
            BlockRelation(schema, ColumnBlock.from_rows(schema, part))
            for part in parts
        ])
        query = AggregateQuery(("k",), (AggregateSpec("sum", "v"),))
        registry = MetricsRegistry()
        multiprocessing_aggregate(dist, query, 1, metrics=registry)
        path = str(tmp_path / "mp.json")
        write_artifact(mp_run_artifact(registry), RUN_SCHEMA, path)
        code, text = run_cli("explain", path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "== explain: mp on 2 nodes =="
        assert lines[1].startswith("elapsed ")
        assert lines[1].endswith("s wall, 3 groups")
        assert lines[2:] == [
            "no adaptive decisions recorded (the run never had to choose)",
            "mp.kernel.declined.* (fragment attempts that left the columnar "
            "kernel for the per-row phase):",
            "    int_sum_overflow         1",
            "mp.merge.fallback.* (runs whose parent left the vectorized "
            "merge for the per-key one):",
            "    mixed_partials           1",
            # both fragments' float key columns (the overflow is found
            # after the grouping); no vectorized merge ran
            "mp.kernel.grouping.* (key columns the fragments numbered by "
            "direct addressing (dense) or by a sort):",
            "    sort                     2",
            "mp.merge.grouping.*: none",
        ]
        # A run that never left the fast path says so.
        clean = DistributedRelation(
            schema, [dist.fragments[1].relation]
        )
        registry = MetricsRegistry()
        multiprocessing_aggregate(clean, query, 1, metrics=registry)
        write_artifact(mp_run_artifact(registry), RUN_SCHEMA, path)
        code, text = run_cli("explain", path)
        assert code == 0
        assert text.splitlines()[3:] == [
            "mp.kernel.declined.*: none", "mp.merge.fallback.*: none",
            "mp.kernel.grouping.* (key columns the fragments numbered by "
            "direct addressing (dense) or by a sort):",
            "    sort                     1",
            "mp.merge.grouping.* (key columns the parent's merge numbered "
            "the same two ways):",
            "    sort                     1",
        ]

    def test_pooled_mp_run_reports_the_process_boundary(self, tmp_path):
        """What the pool adds around the kernel — ship, the workers'
        attach, the partials' way back — is in the profiles, the
        registry, the run artifact and the report (the in-process runs
        above never cross the boundary and print none of it)."""
        from repro.obs import MetricsRegistry, mp_run_artifact
        from repro.obs.schema import RUN_SCHEMA, validate, write_artifact
        from repro.parallel import (
            multiprocessing_aggregate,
            shutdown_worker_pool,
        )
        from repro.sql import parse_query
        from repro.workloads.generator import generate_uniform

        dist = generate_uniform(
            num_tuples=2000, num_groups=50, num_nodes=4, seed=5,
            columnar=True,
        )
        query = parse_query(
            "SELECT gkey, SUM(val), MIN(val) FROM r GROUP BY gkey"
        )[1]
        registry, profiles = MetricsRegistry(), []
        try:
            multiprocessing_aggregate(
                dist, query, 2, metrics=registry, profiles=profiles
            )
        finally:
            shutdown_worker_pool()
        assert len(profiles) == 4
        assert all(0 < p.load_seconds < p.wall_seconds for p in profiles)
        snapshot = registry.snapshot()
        assert snapshot["mp.worker_load_seconds"]["count"] == 4
        assert snapshot["mp.worker_load_seconds"]["total"] == pytest.approx(
            sum(p.load_seconds for p in profiles)
        )
        assert registry.value("mp.return_bytes") > 4 * 50 * 8
        assert 0 < registry.value("mp.phase_seconds.return") < (
            registry.value("mp.elapsed_seconds")
        )
        doc = mp_run_artifact(registry)
        path = str(tmp_path / "pooled.json")
        write_artifact(doc, RUN_SCHEMA, path)
        code, text = run_cli("explain", path)
        assert code == 0
        boundary = text.splitlines()[-4:]
        assert boundary[0] == (
            "mp process boundary (seconds beside the kernel):"
        )
        assert [line.split()[0] for line in boundary[1:]] == [
            "encode", "load", "return",
        ]
        assert boundary[2].endswith("s over 4 attempt(s)")
        assert boundary[3].endswith(
            f"s for {registry.value('mp.return_bytes')} bytes"
        )
        doc["metrics"]["mp.return_bytes"]["value"] = -1
        assert validate(doc, RUN_SCHEMA) == [
            "metrics.mp.return_bytes.value must be a non-negative number"
        ]

    def test_missing_file_is_one_actionable_line(self):
        code, text = run_cli("explain", "/no/such/run.json")
        assert code == 2
        assert text.startswith("error:")
        assert "--save-run" in text  # tells the user how to make one
        assert "Traceback" not in text
        assert len(text.strip().splitlines()) == 1

    def test_corrupt_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        code, text = run_cli("explain", str(bad))
        assert code == 2
        assert text.startswith("error:")
        assert "Traceback" not in text

    def test_wrong_schema_rejected(self, tmp_path):
        notrun = tmp_path / "notrun.json"
        notrun.write_text('{"schema": "repro-trajectory/1"}')
        code, text = run_cli("explain", str(notrun))
        assert code == 2
        assert "not a valid repro-run/1 artifact" in text

    def test_directory_rejected(self, tmp_path):
        code, text = run_cli("explain", str(tmp_path))
        assert code == 2
        assert "directory" in text


class TestTraceErrors:
    def test_unwritable_out_is_one_line_error(self, tmp_path):
        code, text = run_cli(
            "trace",
            "--algorithm", "two_phase",
            "--tuples", "1000",
            "--groups", "10",
            "--nodes", "2",
            "--out", str(tmp_path / "missing_dir" / "trace.json"),
        )
        assert code == 2
        assert text.startswith("error:")
        assert "Traceback" not in text


class TestPlan:
    def test_no_estimate(self):
        code, text = run_cli("plan")
        assert code == 0
        assert "adaptive_two_phase" in text

    def test_estimate(self):
        code, text = run_cli("plan", "--groups-estimate", "999999")
        assert code == 0
        assert "adaptive_repartitioning" in text
        assert "estimated:" in text

    def test_duplicate_elimination_flag(self):
        code, text = run_cli("plan", "--duplicate-elimination")
        assert code == 0
        assert "adaptive_repartitioning" in text
