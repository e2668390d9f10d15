"""Tests for the benchmark harness utilities."""

import hashlib

import pytest

from repro.bench import (
    ExperimentConfig,
    average_results,
    fig_header,
    per_method_table,
    ratio_line,
    run_averaged,
    run_experiment,
    run_harness,
    runner,
    series_table,
)
from repro.sim import FaultAction, FaultPlan
from repro.workload import OpenLoopConfig, SloTarget


class TestRunExperiment:
    @pytest.mark.parametrize("system", ["hamband", "mu", "msg"])
    def test_each_system_runs(self, system):
        result = run_experiment(
            ExperimentConfig(
                system=system, workload="counter", n_nodes=3, total_ops=120
            )
        )
        assert result.system == system
        assert result.total_calls == 120
        assert result.throughput_ops_per_us > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            run_experiment(
                ExperimentConfig(system="nope", workload="counter")
            )

    def test_reproducible(self):
        config = ExperimentConfig(
            system="hamband", workload="counter", n_nodes=3, total_ops=120
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.replicated_us == b.replicated_us
        assert a.latency.mean == b.latency.mean

    def test_force_buffered_flag(self):
        result = run_experiment(
            ExperimentConfig(
                system="hamband",
                workload="gset_union",
                n_nodes=3,
                total_ops=120,
                force_buffered=True,
            )
        )
        assert result.update_calls > 0


class TestAveraging:
    def test_run_averaged_merges_samples(self):
        config = ExperimentConfig(
            system="hamband", workload="counter", n_nodes=3, total_ops=90
        )
        merged = run_averaged(config, repeats=2)
        assert merged.total_calls == 180
        assert merged.latency.count == 180

    def test_average_of_one_is_identity(self):
        config = ExperimentConfig(
            system="hamband", workload="counter", n_nodes=3, total_ops=90
        )
        result = run_experiment(config)
        assert average_results([result]) is result

    def test_empty_average_rejected(self):
        with pytest.raises(ValueError):
            average_results([])


class TestReport:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            ExperimentConfig(
                system="hamband", workload="counter", n_nodes=3, total_ops=120
            )
        )

    def test_fig_header(self):
        text = fig_header("Figure 1", "caption")
        assert "Figure 1: caption" in text

    def test_series_table(self, result):
        text = series_table("title", [("row-a", result)])
        assert "row-a" in text
        assert "tput" in text

    def test_per_method_table(self, result):
        text = per_method_table("methods", result)
        assert "add" in text or "value" in text

    def test_per_method_table_skips_missing(self, result):
        text = per_method_table("methods", result, methods=["missing"])
        assert "missing" not in text

    def test_ratio_line_throughput_and_latency(self, result):
        assert "x" in ratio_line("r", result, result)
        assert (
            ratio_line("r", result, result, metric="latency")
            == "r: 1.00x"
        )


def _flash_crowd(workload, duration_us, slo=None):
    return OpenLoopConfig(
        workload=workload, offered_load_ops_per_us=2.0,
        duration_us=duration_us, arrival_curve="flash-crowd",
        n_sessions=2000, n_tenants=4, slo=slo,
    )


#: One run of each shape the harness serves: name -> (config fields,
#: run_harness keywords, fingerprint).  The fingerprint is total/update/
#: rejected calls, dropped arrivals, start_us, replicated_us, sha256 of
#: the latency samples and sha256 of the exported JSONL.  The JSONL
#: hashes were re-taken when trace args moved to the cluster's one wire
#: codec and the meta line to layout version 2, which changed those
#: bytes but not a single decoded event.  The three fault shapes
#: (``chaos-crash-leader``, ``sharded-chaos``, ``open-gray-phi``) were
#: re-recorded for the one phi-accrual detector (crashes are suspected
#: a poll earlier, and the slow leader is demoted later now that peer
#: health learns only from timed reads and retried writes), and the two
#: courseware ones again once a client redirected to a node that does
#: not lead yet waits instead of bouncing (no call is rejected).  Those
#: three and ``scale-out`` moved again with 128-byte ring slots: state
#: transfer, Mu's log reconciliation and lapped-ring resyncs read
#: ``count x slot_size`` bytes, so recovery finishes sooner (same calls;
#: the same tuples as 512-byte builds configured with 128-byte slots).
#: The four moved once more when every ring repair went through one
#: repairer: a fill from a ring's authority (F origin mirror, L leader)
#: stops at that copy's frontier instead of re-reading each index from
#: every replica, and Mu's new leader adopts its log before pushing it.
#: Same call counts and latencies except ``open-gray-phi``;
#: ``scale-out`` and ``open-gray-phi`` replicate 15 us and 5 us sooner.
HARNESS_SHAPES = {
    "closed-traced": (
        dict(system="hamband", workload="courseware", n_nodes=3,
             total_ops=240, seed=2),
        {},
        (240, 64, 0, 0, 232.2636, 299.74260000000095,
         "f8f66f652300c04f3d6423c831c27503825b3de55e09b314199487a108d42dd2",
         "aa35cc23f86b7854cfb2f293fe031ddd770f13927cd2a102da9f0f3d01df10dc"),
    ),
    "closed-live-metrics": (
        dict(system="mu", workload="gset", n_nodes=3, total_ops=240,
             update_ratio=0.5, seed=3),
        dict(live_check=True, metrics_out="m.jsonl",
             metrics_interval_us=20.0),
        (240, 135, 0, 0, 0.0, 192.87759999999915,
         "5cfdc8059134ab1d01de49cca8b38026089bcbdd8dce220f99fb143bdea9507c",
         "2c2daa7569f258a9f685bd59c6b0a31eee92dc07617e5fcb1375975bb68e27e8"),
    ),
    "open-flash-slo": (
        dict(system="hamband", workload="counter", n_nodes=3, seed=7),
        dict(loop=_flash_crowd("counter", 300.0,
                               slo=SloTarget(p99_us=2_000.0))),
        (624, 173, 0, 0, 0.0, 300.064095445503,
         "7267491a610de524f6ce194ef0fafb66b76b57840dd50a2be3f4d250636987a9",
         "ddb5e35c6c1a9ee4201035d4d90a7bfae4f000028743715191cbcb34547cb83c"),
    ),
    "open-gray-phi": (
        dict(system="hamband", workload="courseware", n_nodes=4, seed=1),
        dict(loop=_flash_crowd("courseware", 400.0), live_check=True,
             plan=FaultPlan.named("gray-leader", horizon_us=400.0)),
        (828, 211, 0, 0, 233.0636, 1233.2558275379351,
         "5478071e1062c3ffabaca2e6e76c5d83fa821754f4ce3cf06fe410819a691cd0",
         "495dcdccc1775a10c107507d975b0b91037bab4c072d7f9cffdde37cbc2c08e5"),
    ),
    "chaos-crash-leader": (
        dict(system="hamband", workload="courseware", n_nodes=4,
             total_ops=300, seed=2),
        dict(plan=FaultPlan.named("crash-leader", horizon_us=500.0)),
        (300, 85, 0, 0, 233.0636, 433.6374000000028,
         "48e61434a8c45d676f46aff1c29460565e9fe8f62c10e136dc9e8999d2e60d6d",
         "963b7407c836c27bebea308954b749c72368c55873c722a292f2dfbb1f6a96f5"),
    ),
    "sharded-traced": (
        dict(system="hamband", workload="sharded-bank", n_nodes=3,
             total_ops=240, n_shards=2, txn_mix=0.2, seed=4),
        {},
        (224, 224, 0, 0, 242.40880000000007, 298.50360000000126,
         "937695a2b236aec0b4ce028d232134e08fdef9d91d6c608a971f648d6bde32de",
         "bae25a368336250adbbf623b59619eaf8af907133559cb0cce1d6ce21e1ea506"),
    ),
    "sharded-chaos": (
        dict(system="hamband", workload="sharded-bank", n_nodes=3,
             total_ops=240, n_shards=2, txn_mix=0.2, seed=3),
        dict(plan=FaultPlan.named("shard-isolate", seed=3, n_nodes=3,
                                  horizon_us=700.0)),
        (224, 224, 0, 0, 242.40880000000007, 543.6896000000006,
         "a394be6e4e5fd17ae75c0f5ccedd79a29f6f1b1ceb79df25fbeceab7bcc0fab1",
         "b6904506de4be8267ea24843483028678d24423d69ba18db4dd00ae492260701"),
    ),
    "scale-out": (
        dict(system="hamband", workload="gset", n_nodes=3, total_ops=300,
             seed=1),
        dict(plan=FaultPlan(seed=1, name="scale-out", actions=(
            FaultAction(at_us=30.0, kind="join", target="node:p4"),
        ))),
        (300, 85, 0, 0, 0.0, 54.84380000000013,
         "72cc812558a8ac825afb3230f3ff5b7ac9255cc965942f6f92cfb9aded21fdd8",
         "10d76032d3ce6646ab6ccf8b485a7966443e5e9db01d67ac67edf6a6acfa2239"),
    ),
    "msg-untraced": (
        dict(system="msg", workload="counter", n_nodes=3, total_ops=120,
             seed=5),
        dict(trace=False),
        (120, 27, 0, 0, 0.0, 495.7760000000001,
         "291df906726b6d31c033cbb661b713c7b778f93051535a8cbf06d34ed78c2a07",
         None),
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestHarness:
    @pytest.mark.parametrize("shape", sorted(HARNESS_SHAPES))
    def test_every_shape_matches_its_pinned_run(self, shape, tmp_path):
        fields, options, pinned = HARNESS_SHAPES[shape]
        if "metrics_out" in options:
            options = dict(
                options, metrics_out=str(tmp_path / options["metrics_out"])
            )
        run = run_harness(ExperimentConfig(**fields), **options)
        result = run.result
        trace = None
        if run.recorder is not None:
            path = tmp_path / "trace.jsonl"
            run.recorder.export_jsonl(str(path))
            trace = _sha256(path.read_bytes())
        assert (
            result.total_calls, result.update_calls,
            result.rejected_calls, result.dropped_arrivals,
            result.start_us, result.replicated_us,
            _sha256(repr(result.latency.samples).encode()), trace,
        ) == pinned
        assert run.settled
        assert (run.injector is not None) == ("plan" in options)
        assert (run.tier is not None) == ("loop" in options)
        assert (run.stream_report is not None) == (
            "live_check" in options
        )
        assert (run.coordinator is not None) == (
            fields["workload"] == "sharded-bank"
        )
        if run.recorder is not None:
            assert run.check().ok

    def test_untraced_run_builds_no_recorder(self):
        run = run_harness(
            ExperimentConfig(
                system="hamband", workload="counter", n_nodes=3,
                total_ops=60,
            ),
            trace=False,
        )
        assert run.recorder is None
        assert run.result.total_calls == 60

    @pytest.mark.parametrize("fields,options,message", [
        (dict(system="msg", workload="counter"), {},
         "system 'msg' has no probe seam to trace"),
        (dict(system="msg", workload="counter"),
         dict(trace=False, live_check=True),
         "system 'msg' has no probe seam to trace"),
        (dict(system="hamband", workload="gset", n_shards=2),
         dict(live_check=True),
         "live checking does not support sharded topologies yet "
         "(use the offline ShardedTraceChecker)"),
        (dict(system="hamband", workload="sharded-bank", n_shards=2),
         dict(loop=OpenLoopConfig(workload="sharded-bank")),
         "the serving tier drives single clusters; sharded serving is "
         "future work"),
        (dict(system="mu", workload="sharded-bank", n_shards=2),
         dict(trace=False),
         "sharded topologies run the hamband runtime only, not 'mu'"),
    ])
    def test_guards_keep_their_messages(self, fields, options, message):
        with pytest.raises(ValueError) as raised:
            run_harness(ExperimentConfig(**fields), **options)
        assert str(raised.value) == message

    def test_driver_timeout_is_swallowed_only_under_a_plan(self,
                                                           monkeypatch):
        def never_quiesces(env, cluster, config):
            raise TimeoutError("quiesce")

        monkeypatch.setattr(runner, "run_workload", never_quiesces)
        config = ExperimentConfig(
            system="hamband", workload="gset", n_nodes=3, total_ops=60
        )
        with pytest.raises(TimeoutError):
            run_harness(config)
        run = run_harness(
            config, plan=FaultPlan(seed=1, name="empty", actions=())
        )
        assert run.result is None
        assert run.settled
