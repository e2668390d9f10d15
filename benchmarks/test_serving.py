"""Extension: the open-loop serving tier at scale (not a paper figure).

Sweeps offered load over a 100k-session population and drives each
arrival curve at a fixed load, printing the latency-vs-load table the
serving docs quote.  The SLO column is the point: below the knee every
target holds; past it, admission control sheds arrivals (bounded
latency, nonzero drops) instead of letting the latency tail diverge.
"""

from repro.bench import (
    ExperimentConfig,
    fig_header,
    run_harness,
    serving_table,
    tenant_table,
)
from repro.workload import ARRIVAL_CURVES, OpenLoopConfig, SloTarget

N_SESSIONS = 100_000
N_TENANTS = 16
SLO = SloTarget(p99_us=2_000.0, p999_us=5_000.0)
LOADS = (2.0, 8.0, 16.0, 24.0)


def _serve(load, curve="steady", duration=800.0):
    return run_harness(
        ExperimentConfig(
            system="hamband", workload="counter", n_nodes=4, seed=1
        ),
        loop=OpenLoopConfig(
            workload="counter",
            offered_load_ops_per_us=load,
            duration_us=duration,
            arrival_curve=curve,
            n_sessions=N_SESSIONS,
            n_tenants=N_TENANTS,
            slo=SLO,
        ),
        live_check=True,
    )


class TestServingTier:
    def test_latency_vs_load_at_100k_sessions(self, benchmark, emit):
        def run():
            return {load: _serve(load) for load in LOADS}

        runs = benchmark.pedantic(run, rounds=1, iterations=1)
        emit("serving", fig_header(
            "Extension",
            f"open-loop serving: {N_SESSIONS} sessions, "
            f"{N_TENANTS} tenants, hamband counter n=4",
        ))
        emit("serving", serving_table(
            "latency vs offered load (steady curve)",
            [
                (f"steady@{load:g}ops/us", run.result)
                for load, run in runs.items()
            ],
        ))
        for load, run in runs.items():
            # Every run streams clean and reports SLO attainment.
            assert run.stream_report.ok
            assert run.result.slo is not None
            # The population is genuinely exercised at every load.
            assert run.tier.active_sessions > 1000
        # Below the knee the tier keeps up and holds its SLO.
        light = runs[LOADS[0]]
        assert light.result.throughput_ops_per_us > 0.7 * LOADS[0]
        assert light.result.slo.ok

    def test_arrival_curves_at_fixed_load(self, benchmark, emit):
        def run():
            return {
                curve: _serve(8.0, curve=curve)
                for curve in ARRIVAL_CURVES
            }

        runs = benchmark.pedantic(run, rounds=1, iterations=1)
        emit("serving", serving_table(
            "arrival curves at 8 ops/us offered",
            [(curve, run.result) for curve, run in runs.items()],
        ))
        emit("serving", tenant_table(
            "flash-crowd per-tenant admission",
            runs["flash-crowd"].tier,
        ))
        for curve, run in runs.items():
            assert run.stream_report.ok, curve
            # Unit-mean curves: every shape offers the same total
            # traffic within Poisson noise.
            arrived = (run.result.total_calls
                       + run.result.dropped_arrivals)
            assert 0.65 * 8.0 * 800.0 < arrived < 1.35 * 8.0 * 800.0
