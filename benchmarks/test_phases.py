"""Call-lifecycle phase breakdown (flight-recorder spans).

Not a paper figure: the per-phase latency columns that the flight
recorder adds to the evaluation — where a call's response time goes
(invoke → propagate → decide → apply → forward) for a conflict-free
workload (all fast path) versus a conflicting one (leader decides
through Mu).  Complements Figure 10's throughput-only view with the
latency anatomy behind it.
"""

from repro.bench import (
    ExperimentConfig,
    fig_header,
    phase_latency_table,
    run_harness,
)

OPS = 800


def _traced(workload, update_ratio=0.25):
    return run_harness(
        ExperimentConfig(
            system="hamband",
            workload=workload,
            n_nodes=4,
            total_ops=OPS,
            update_ratio=update_ratio,
        )
    )


class TestPhaseBreakdown:
    def test_phase_breakdown(self, benchmark, emit):
        def run():
            return {
                "gset": _traced("gset"),
                "courseware": _traced("courseware", update_ratio=0.5),
            }

        traced = benchmark.pedantic(run, rounds=1, iterations=1)

        emit("phases", fig_header(
            "Phase breakdown", "where a call's response time goes"
        ))
        for workload, run_ in traced.items():
            phases = run_.recorder.phase_histograms()
            emit("phases", phase_latency_table(
                f"{workload} (hamband, 4 nodes)", phases
            ))

        # Conflict-free calls never reach the decide/forward phases.
        gset = traced["gset"].recorder.phase_histograms()
        assert "decide" not in gset
        assert "forward" not in gset
        assert gset["propagate"].count > 0
        # Conflicting calls pay the Mu replication round on decide.
        # (The driver routes conflicting calls to the leader directly,
        # so the forward phase stays empty on healthy runs — it only
        # fills when stale-leader forwarding kicks in.)
        courseware = traced["courseware"].recorder.phase_histograms()
        assert courseware["decide"].count > 0
        assert courseware["decide"].mean > 0
        assert "forward" not in courseware
        # Every traced run must still pass the offline checker.
        for run_ in traced.values():
            report = run_.check()
            assert report.ok, report.summary()
