"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_datatypes_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "account" in out
        assert "courseware" in out
        assert "workload generators" in out


class TestAnalyze:
    def test_account_figure_1(self, capsys):
        assert main(["analyze", "account"]) == 0
        out = capsys.readouterr().out
        assert "withdraw >< withdraw" in out
        assert "Dep(withdraw) = {deposit}" in out
        assert "reducible" in out
        assert "conflicting" in out

    def test_movie_two_groups(self, capsys):
        assert main(["analyze", "movie"]) == 0
        out = capsys.readouterr().out
        assert out.count("sync:") == 2

    def test_counter_no_conflicts(self, capsys):
        assert main(["analyze", "counter"]) == 0
        out = capsys.readouterr().out
        assert "(none)" in out

    def test_orset_available(self, capsys):
        assert main(["analyze", "orset"]) == 0
        out = capsys.readouterr().out
        assert "irreducible_conflict_free" in out

    def test_unknown_datatype_fails(self, capsys):
        assert main(["analyze", "nope"]) == 1


class TestExplore:
    def test_small_scope_passes(self, capsys):
        assert main(
            ["explore", "account", "--requests", "3", "--procs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "no violation" in out
        assert "states=" in out

    def test_unknown_datatype_fails(self, capsys):
        assert main(["explore", "nope"]) == 1

    def test_state_budget_flag(self, capsys):
        assert main(
            [
                "explore",
                "counter",
                "--requests",
                "5",
                "--max-states",
                "300",
            ]
        ) == 0


class TestRun:
    def test_small_hamband_run(self, capsys):
        assert main(
            ["run", "counter", "--ops", "120", "--nodes", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "tput=" in out
        assert "hamband" in out

    def test_msg_system(self, capsys):
        assert main(
            ["run", "counter", "--system", "msg", "--ops", "120"]
        ) == 0
        assert "msg" in capsys.readouterr().out

    def test_per_method_flag(self, capsys):
        assert main(
            ["run", "counter", "--ops", "120", "--per-method"]
        ) == 0
        out = capsys.readouterr().out
        assert "add" in out
        assert "p95=" in out

    def test_unknown_workload_fails(self, capsys):
        assert main(["run", "nope", "--ops", "10"]) == 1


class TestObservability:
    def test_stats_prints_rollup_and_phase_table(self, capsys):
        assert main(
            ["run", "courseware", "--ops", "120", "--nodes", "3",
             "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert '"cluster"' in out
        assert "per-phase latency" in out
        assert "decide" in out
        assert "apply" in out

    def test_trace_jsonl_export(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["run", "gset", "--ops", "100", "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        lines = path.read_text().strip().splitlines()
        assert len(lines) > 1
        import json as _json

        meta = _json.loads(lines[0])
        assert meta["kind"] == "meta"
        assert meta["dropped"] == 0

    def test_trace_chrome_export_and_check(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(
            ["run", "courseware", "--ops", "120", "--trace", str(path),
             "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace check:" in out
        assert "OK" in out
        import json as _json

        doc = _json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_check_without_trace_file(self, capsys):
        assert main(["run", "gset", "--ops", "80", "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_msg_system_has_no_probe_seam(self, capsys):
        assert main(
            ["run", "counter", "--system", "msg", "--ops", "40",
             "--stats"]
        ) == 1
        assert "probe seam" in capsys.readouterr().out

    def test_tiny_trace_capacity_refuses_check(self, capsys):
        # A deliberately truncated ring buffer: the checker must refuse
        # to attest convergence (exit code 2).
        assert main(
            ["run", "gset", "--ops", "120", "--check",
             "--trace-capacity", "16"]
        ) == 2
        out = capsys.readouterr().out
        assert "truncated" in out


class TestShardedRuns:
    def test_sharded_run_with_check_and_stats(self, capsys):
        assert main(
            ["run", "sharded-bank", "--shards", "2", "--nodes", "3",
             "--ops", "160", "--txn-mix", "0.25", "--check", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded-bank" in out
        assert "txns:" in out and "commits=" in out
        # Stats and phase tables group per shard; the checker reports
        # per-shard obligations plus cross-shard atomicity.
        assert '"s0"' in out and '"s1"' in out and '"global"' in out
        assert "s0: per-phase latency" in out
        assert "s1: per-phase latency" in out
        assert "s0: trace check:" in out
        assert "cross-shard atomicity:" in out
        assert "OK" in out

    def test_sharded_bank_workload_implies_sharded_driver(self, capsys):
        # Even at --shards 1 (the scaling baseline) the txn driver runs.
        assert main(
            ["run", "sharded-bank", "--nodes", "3", "--ops", "80",
             "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "cross-shard atomicity:" in out

    def test_sharded_needs_hamband(self, capsys):
        assert main(
            ["run", "sharded-bank", "--system", "mu", "--ops", "40"]
        ) == 1
        assert "hamband" in capsys.readouterr().out

    def test_sharded_chaos_preset_with_check(self, capsys):
        assert main(
            ["chaos", "sharded-bank", "--shards", "2", "--nodes", "3",
             "--ops", "160", "--txn-mix", "0.25", "--seed", "3",
             "--faults", "shard-isolate", "--horizon", "700",
             "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan: shard-isolate" in out
        assert "faults injected:" in out and "crash=1" in out
        assert "settled: yes" in out
        assert "txns:" in out
        assert "cross-shard atomicity:" in out

    def test_negative_control_lock_path_off_fails_check(self, capsys):
        # Disabling the conflicting-txn lock path must surface under
        # an all-transfer mix: concurrent unlocked transfers sharing
        # both shards take effect in opposite per-shard orders, which
        # the cross-shard ordering obligation rejects.
        code = main(
            ["run", "sharded-bank", "--shards", "2", "--nodes", "3",
             "--ops", "200", "--txn-mix", "1.0", "--seed", "6",
             "--txn-lock-path", "off", "--check"]
        )
        out = capsys.readouterr().out
        assert code == 2, out
        assert "atomicity" in out


class TestServe:
    def test_small_serving_run(self, capsys):
        assert main(
            ["serve", "counter", "--nodes", "3", "--load", "1.0",
             "--duration", "300", "--sessions", "2000",
             "--tenants", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "tput=" in out
        assert "sessions:" in out
        assert "curve=steady" in out
        assert "latency: p50=" in out

    def test_slo_verdict_and_exit_codes(self, capsys):
        assert main(
            ["serve", "counter", "--load", "1.0", "--duration", "300",
             "--slo-p99", "50000"]
        ) == 0
        assert "slo: p99<=50000us ok" in capsys.readouterr().out
        # An unattainable target (below any simulated RTT) exits 3.
        assert main(
            ["serve", "counter", "--load", "1.0", "--duration", "300",
             "--slo-p99", "0.0001"]
        ) == 3
        assert "MISS" in capsys.readouterr().out

    def test_curve_tenant_table_and_live_check(self, capsys):
        assert main(
            ["serve", "counter", "--load", "2.0", "--duration", "300",
             "--curve", "flash-crowd", "--sessions", "5000",
             "--tenants", "8", "--tenant-table", "--live-check"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-tenant admission" in out
        assert "shed %" in out
        assert "stream check:" in out

    def test_unknown_workload_fails(self, capsys):
        assert main(["serve", "nope", "--duration", "100"]) == 1


#: The flags `run`, `serve` and `chaos` accepted before their
#: declarations were shared (df62396): option -> (default, choices,
#: type).  "flag" marks a store_true switch; the positional is listed
#: by its dest.
_OBSERVE = {
    "--per-method": (False, None, "flag"),
    "--stats": (False, None, "flag"),
    "--trace": (None, None, None),
    "--trace-capacity": (1 << 20, None, "int"),
    "--check": (False, None, "flag"),
    "--live-check": (False, None, "flag"),
    "--metrics-out": (None, None, None),
    "--metrics-interval-us": (200.0, None, "float"),
}
PARSER_CONTRACT = {
    "run": {
        "workload": (None, None, None),
        "--system": ("hamband", ("hamband", "mu", "msg"), None),
        "--nodes": (4, None, "int"),
        "--ops": (1200, None, "int"),
        "--update-ratio": (0.25, None, "float"),
        "--seed": (1, None, "int"),
        "--shards": (1, None, "int"),
        "--txn-mix": (0.0, None, "float"),
        "--txn-lock-path": ("on", ("on", "off"), None),
        "--fail-node": (None, None, None),
        "--scale-out-at": (None, None, "float"),
        **_OBSERVE,
    },
    "serve": {
        "workload": (None, None, None),
        "--system": ("hamband", ("hamband", "mu"), None),
        "--nodes": (4, None, "int"),
        "--load": (1.0, None, "float"),
        "--duration": (2000.0, None, "float"),
        "--update-ratio": (0.25, None, "float"),
        "--seed": (1, None, "int"),
        "--curve": ("steady",
                    ("steady", "diurnal", "burst", "flash-crowd"), None),
        "--sessions": (0, None, "int"),
        "--tenants": (1, None, "int"),
        "--max-outstanding-per-tenant": (0, None, "int"),
        "--max-outstanding-per-node": (64, None, "int"),
        "--slo-p50": (None, None, "float"),
        "--slo-p99": (None, None, "float"),
        "--slo-p999": (None, None, "float"),
        "--tenant-table": (False, None, "flag"),
        "--faults": (None, None, None),
        "--horizon": (None, None, "float"),
        **_OBSERVE,
    },
    "chaos": {
        "workload": (None, None, None),
        "--system": ("hamband", ("hamband", "mu"), None),
        "--nodes": (4, None, "int"),
        "--ops": (600, None, "int"),
        "--update-ratio": (0.25, None, "float"),
        "--seed": (None, None, "int"),
        "--shards": (1, None, "int"),
        "--txn-mix": (0.0, None, "float"),
        "--txn-lock-path": ("on", ("on", "off"), None),
        "--faults": (None, None, None),
        "--horizon": (1000.0, None, "float"),
        "--save-plan": (None, None, None),
        "--scrub": (0.0, None, "float"),
        **_OBSERVE,
    },
}


class TestParserContract:
    @pytest.mark.parametrize("command", sorted(PARSER_CONTRACT))
    def test_flags_defaults_choices_and_types(self, command):
        import argparse

        from repro.cli import _build_parser

        subcommands = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        declared = {}
        for action in subcommands.choices[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert len(action.option_strings) <= 1  # no aliases
            kind = None
            if action.type is not None:
                kind = action.type.__name__
            elif action.nargs == 0:
                kind = "flag"
            declared[(action.option_strings or [action.dest])[0]] = (
                action.default,
                tuple(action.choices) if action.choices else None,
                kind,
            )
        assert declared == PARSER_CONTRACT[command]


class TestScrubFlags:
    """``chaos --scrub`` reaches the experiment config; nothing else
    scrubs."""

    @pytest.mark.parametrize("argv,interval", [
        (["chaos", "gset", "--scrub"], 50.0),
        (["chaos", "gset", "--scrub", "30"], 30.0),
        (["chaos", "gset", "--scrub", "--check"], 50.0),
        (["chaos", "gset"], 0.0),
        (["run", "gset"], 0.0),
        (["serve", "gset"], 0.0),
    ])
    def test_scrub_interval(self, argv, interval):
        from repro.cli import _build_parser, _experiment_config

        config = _experiment_config(_build_parser().parse_args(argv))
        assert config.scrub_interval_us == interval


class TestChaosSummary:
    def test_gray_line_is_always_printed(self, capsys):
        """One detector, so no flag gates the gray counters."""
        assert main(
            ["chaos", "gset", "--ops", "100", "--faults", "crash-leader"]
        ) == 0
        out = capsys.readouterr().out
        assert "\ngray: degraded=" in out
        assert "phi_suspects=" in out


class TestUsageErrorsAreNamed:
    """A typo is reported as what it is, before the run; a KeyError
    from inside the run is not relabelled as one."""

    @pytest.mark.parametrize("command", ["run", "serve", "chaos"])
    def test_unknown_workload(self, command, capsys):
        extra = ["--faults", "crash-leader"] if command == "chaos" else []
        assert main([command, "nope", *extra]) == 1
        assert capsys.readouterr().out == (
            "unknown workload 'nope'; try `repro list`\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "explore"])
    def test_unknown_datatype(self, command, capsys):
        assert main([command, "nope"]) == 1
        assert capsys.readouterr().out == (
            "unknown data type 'nope'; try `repro list`\n"
        )

    def test_unknown_fail_node(self, capsys):
        assert main(
            ["run", "gset", "--ops", "200", "--fail-node", "p9"]
        ) == 1
        assert capsys.readouterr().out == (
            "unknown node 'p9' for --fail-node; this cluster has "
            "p1, p2, p3, p4\n"
        )

    def test_runtime_keyerror_surfaces(self, monkeypatch):
        from repro import bench

        def broken(*_args, **_kwargs):
            raise KeyError("deep inside the runtime")

        monkeypatch.setattr(bench, "run_harness", broken)
        with pytest.raises(KeyError, match="deep inside"):
            main(["run", "gset", "--ops", "40"])


class TestGiveUpIsNotExitZero:
    """A fault run that did not quiesce or did not settle exits 2 with
    the reason, with or without --check.  (A real give-up simulates the
    whole 5 s quiesce timeout, so the outcome is forced onto a quick run
    here.)"""

    @pytest.fixture
    def give_up(self, monkeypatch):
        from repro import bench

        harness = bench.run_harness

        def arm(**outcome):
            def run_harness(config, **options):
                run = harness(config, **options)
                for field, value in outcome.items():
                    setattr(run, field, value)
                return run

            monkeypatch.setattr(bench, "run_harness", run_harness)

        return arm

    @pytest.mark.parametrize("argv", [
        ["chaos", "gset", "--ops", "100", "--faults", "crash-leader"],
        ["run", "gset", "--ops", "100", "--scale-out-at", "20"],
        ["serve", "counter", "--duration", "100", "--faults",
         "gray-leader"],
    ])
    def test_unsettled_run_exits_2(self, argv, give_up, capsys):
        assert main(argv) == 0
        capsys.readouterr()
        give_up(settled=False)
        assert main(argv) == 2
        assert capsys.readouterr().out.endswith(
            "gave up: the cluster did not settle into a stable "
            "converged state after the fault plan\n"
        )

    @pytest.mark.parametrize("argv", [
        ["chaos", "gset", "--ops", "100", "--faults", "crash-leader"],
        ["serve", "counter", "--duration", "100", "--faults",
         "gray-leader", "--slo-p99", "50000"],
    ])
    def test_non_quiescent_run_exits_2(self, argv, give_up, capsys):
        give_up(result=None)
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "did not quiesce before the driver timeout\n" in out
        assert out.endswith(
            "gave up: the workload did not quiesce before the driver "
            "timeout\n"
        )
