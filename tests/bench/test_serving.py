"""Tests for the open-loop serving bench entry point and its tables."""

import pytest

from repro.bench import (
    ExperimentConfig,
    run_harness,
    serving_table,
    tenant_table,
)
from repro.workload import OpenLoopConfig, SloTarget


def serve(system="hamband", live_check=False, **loop_kwargs):
    loop_kwargs.setdefault("offered_load_ops_per_us", 2.0)
    loop_kwargs.setdefault("duration_us", 400.0)
    loop_kwargs.setdefault("n_sessions", 2000)
    loop_kwargs.setdefault("n_tenants", 4)
    return run_harness(
        ExperimentConfig(
            system=system, workload="counter", n_nodes=3, seed=7
        ),
        loop=OpenLoopConfig(workload="counter", **loop_kwargs),
        live_check=live_check,
    )


class TestRunServing:
    def test_returns_tier_and_result(self):
        run = serve(slo=SloTarget(p99_us=5_000.0))
        assert run.result.total_calls > 100
        assert run.tier.admitted_total == run.result.total_calls
        assert run.tier.outstanding_total == 0
        assert run.result.slo is not None and run.result.slo.ok
        assert run.loop.system_label == "hamband"

    def test_live_check_streams_clean(self):
        run = serve(live_check=True)
        assert run.stream_report is not None
        assert run.stream_report.ok

    def test_offline_check_passes(self):
        run = serve()
        assert run.check().ok

    def test_rejects_untraceable_and_sharded(self):
        with pytest.raises(ValueError):
            serve(system="msg")
        with pytest.raises(ValueError):
            run_harness(
                ExperimentConfig(
                    system="hamband", workload="sharded-bank",
                    n_nodes=3, n_shards=2,
                ),
                loop=OpenLoopConfig(workload="sharded-bank"),
            )

    def test_same_seed_byte_identical_trace(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            run = serve(arrival_curve="flash-crowd")
            path = tmp_path / name
            run.recorder.export_jsonl(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestServingTables:
    def test_serving_table_columns(self):
        run = serve(slo=SloTarget(p99_us=5_000.0))
        text = serving_table("t", [("steady@2", run.result)])
        assert "dropped" in text
        assert "slo" in text
        assert "steady@2" in text
        assert " ok" in text

    def test_serving_table_without_slo(self):
        run = serve()
        text = serving_table("t", [("row", run.result)])
        assert text.splitlines()[-1].rstrip().endswith("-")

    def test_tenant_table_rows(self):
        run = serve()
        text = tenant_table("tenants", run.tier)
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == 2 + run.tier.n_tenants
        assert "shed %" in lines[1]
