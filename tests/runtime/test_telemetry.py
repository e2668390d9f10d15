"""Live telemetry: the metrics emitter samples an instrumented run."""

import io
import json

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.datatypes import gset_spec
from repro.runtime import (
    HambandCluster,
    MetricsEmitter,
    StreamingChecker,
    TraceRecorder,
)
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload


def instrumented_run(out, interval_us=5.0, progress=None, total_ops=200):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 18)
    cluster = HambandCluster.build(
        env, gset_spec(), n_nodes=3,
        probe_factory=recorder.probe_factory,
    )
    recorder.attach(cluster.coordination)
    checker = StreamingChecker(
        cluster.coordination, processes=cluster.node_names()
    )
    recorder.stream_to(checker.feed)
    emitter = MetricsEmitter(
        env, cluster=cluster, recorder=recorder, checker=checker,
        interval_us=interval_us, out=out, progress=progress, label="test",
    ).start()
    run_workload(
        env, cluster,
        DriverConfig(workload="gset", total_ops=total_ops,
                     update_ratio=0.5, seed=1),
    )
    checker.finish()
    emitter.close()
    return emitter


def records(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestMetricsEmitter:
    def test_emits_periodic_samples_and_a_final_one(self):
        buffer = io.StringIO()
        emitter = instrumented_run(buffer)
        samples = records(buffer)
        assert len(samples) >= 2
        assert emitter.samples == len(samples)
        assert all(r["kind"] == "metrics" for r in samples)
        assert all(r["run"] == "test" for r in samples)
        finals = [r for r in samples if r.get("final")]
        assert len(finals) == 1 and samples[-1] is finals[0]
        # sim time and sample index both advance monotonically
        assert [r["sample"] for r in samples] == list(range(len(samples)))
        assert all(a["t"] <= b["t"] for a, b in zip(samples, samples[1:]))

    def test_sample_schema(self):
        buffer = io.StringIO()
        instrumented_run(buffer)
        final = records(buffer)[-1]
        assert final["probe"]["applies"] > 0
        assert final["trace"] == {"dropped": 0, "gaps": 0}
        invoke = final["phases"]["invoke"]
        for key in ("count", "mean", "p50", "p95", "p99", "p999", "max"):
            assert key in invoke
        checker = final["checker"]
        assert checker["violations"] == 0
        assert checker["lag"] == 0  # finish() ran: fully verified
        assert checker["events"] == checker["last_seq"] + 1

    def test_progress_callback_gets_human_lines(self):
        lines = []
        instrumented_run(io.StringIO(), progress=lines.append)
        assert len(lines) >= 2
        assert all(line.startswith("[live] t=") for line in lines)
        assert "checked=" in lines[-1]
        assert "(final)" in lines[-1]
        assert "(final)" not in lines[0]

    def test_jsonl_lines_are_deterministic(self):
        first, second = io.StringIO(), io.StringIO()
        instrumented_run(first)
        instrumented_run(second)
        assert first.getvalue() == second.getvalue()

    def test_path_out_owns_the_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        emitter = instrumented_run(str(path))
        assert emitter._fp is None  # closed with the run
        samples = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert samples and samples[-1]["final"] is True

    def test_close_is_idempotent(self):
        buffer = io.StringIO()
        emitter = instrumented_run(buffer)
        before = buffer.getvalue()
        emitter.close()
        assert buffer.getvalue() == before

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            MetricsEmitter(Environment(), interval_us=0)


class TestRunnerIntegration:
    def test_harness_writes_metrics(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        config = ExperimentConfig(
            system="hamband", workload="gset", n_nodes=3,
            total_ops=200, update_ratio=0.5, seed=2,
        )
        traced = run_harness(config, live_check=True, metrics_out=str(path),
                            metrics_interval_us=5.0)
        assert traced.stream_report.ok
        assert traced.emitter is not None
        samples = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(samples) >= 2
        final = samples[-1]
        assert final["final"] is True
        assert final["checker"]["violations"] == 0
        assert "p999" in final["phases"]["invoke"]

    def test_metrics_without_live_check(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        config = ExperimentConfig(
            system="hamband", workload="gset", n_nodes=3,
            total_ops=200, update_ratio=0.5, seed=2,
        )
        traced = run_harness(config, metrics_out=str(path),
                            metrics_interval_us=5.0)
        assert traced.stream_report is None
        samples = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert samples and "checker" not in samples[-1]
