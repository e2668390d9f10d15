"""Throughput degradation under injected faults (chaos scenario).

Not a paper figure: for each named fault plan in the CI chaos matrix,
drive the standard closed-loop workload with the plan armed and compare
throughput/response time against the fault-free baseline.  Every run —
faulty or not — must still settle to a converged cluster and pass the
offline trace checker; the benchmark quantifies the *cost* of riding
out each fault class, the checker guarantees the *correctness* of it.
"""

from repro.bench import (
    ExperimentConfig,
    fig_header,
    run_harness,
    series_table,
)
from repro.sim import PLAN_NAMES, FaultPlan

OPS = 600
#: Plan horizon chosen so the fault windows overlap live traffic for
#: the 600-op runs (the workloads finish within a few hundred sim us).
HORIZON_US = 600.0


def _config(workload):
    return ExperimentConfig(
        system="hamband",
        workload=workload,
        n_nodes=4,
        total_ops=OPS,
        update_ratio=0.25,
    )


class TestChaosDegradation:
    def test_degradation_by_fault_class(self, benchmark, emit):
        def run():
            out = {}
            for workload in ("gset", "courseware"):
                baseline = run_harness(_config(workload))
                rows = [("no-faults", baseline, None)]
                for plan_name in PLAN_NAMES:
                    plan = FaultPlan.named(
                        plan_name, horizon_us=HORIZON_US
                    )
                    chaos = run_harness(_config(workload), plan=plan)
                    rows.append((plan_name, chaos, plan))
                out[workload] = rows
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)

        emit("chaos", fig_header(
            "Chaos", "throughput degradation per injected fault class"
        ))
        for workload, rows in results.items():
            table_rows = []
            for label, run_, _plan in rows:
                if run_.result is not None:
                    table_rows.append((label, run_.result))
            emit("chaos", series_table(
                f"{workload} (hamband, 4 nodes, {OPS} ops)", table_rows
            ))

        for workload, rows in results.items():
            baseline = rows[0][1]
            assert baseline.result is not None
            base_tput = baseline.result.throughput_ops_per_us
            assert base_tput > 0
            for label, run_, plan in rows:
                # Correctness gate: converged, checker-clean, and no
                # supervised worker died along the way.
                assert run_.settled, f"{workload}/{label} never settled"
                report = run_.check()
                assert report.ok, (
                    f"{workload}/{label}: {report.summary()}"
                )
                if plan is None:
                    continue
                # The plan actually injected something (scheduled kinds
                # always fire; windows need traffic overlap).
                assert run_.injector.log, (
                    f"{workload}/{label} injected no faults"
                )
                # Degradation is bounded: faults slow the run down, they
                # must not starve it (tput stays within 20x of baseline).
                tput = run_.result.throughput_ops_per_us
                assert tput > base_tput / 20.0, (
                    f"{workload}/{label} collapsed: "
                    f"{tput:.3f} vs {base_tput:.3f} ops/us"
                )
