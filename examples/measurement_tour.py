#!/usr/bin/env python3
"""A tour of the measurement machinery: load curves, lag, verb counts.

Goes beyond the paper's closed-loop harness:

1. open-loop (Poisson) driving sweeps offered load and exposes the
   saturation knee,
2. the visibility report measures replication lag per category from the
   flight recorder's trace,
3. fabric statistics and node counters break a run down into verbs —
   confirming the design's structural claim of one one-sided write per
   peer per update and no two-sided traffic.

Run:  python examples/measurement_tour.py
"""

from repro.datatypes import courseware_spec
from repro.rdma import Opcode
from repro.runtime import HambandCluster, TraceRecorder
from repro.sim import Environment
from repro.workload import (
    DriverConfig,
    OpenLoopConfig,
    run_open_loop,
    run_workload,
    visibility_report,
)


def load_curve() -> None:
    print("== 1. open-loop saturation sweep (courseware, 40% updates) ==")
    print(f"{'offered':>8s} {'achieved':>9s} {'mean rt':>8s} {'p95 rt':>8s}")
    for load in (0.5, 1.5, 3.0, 5.0):
        env = Environment()
        cluster = HambandCluster.build(env, courseware_spec(), n_nodes=4)
        result = run_open_loop(
            env,
            cluster,
            OpenLoopConfig(
                workload="courseware",
                offered_load_ops_per_us=load,
                duration_us=1200,
                update_ratio=0.4,
            ),
        )
        print(
            f"{load:8.1f} {result.throughput_ops_per_us:9.2f} "
            f"{result.mean_response_us:8.2f} {result.latency.p95:8.2f}"
        )


def lag_and_verbs() -> None:
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 20)
    cluster = HambandCluster.build(
        env, courseware_spec(), n_nodes=4,
        probe_factory=recorder.probe_factory,
    )
    result = run_workload(
        env,
        cluster,
        DriverConfig(workload="courseware", total_ops=800, update_ratio=0.5),
    )
    assert cluster.converged()

    print("\n== 2. replication lag (visibility) ==")
    report = visibility_report(recorder.events(), 4, recorder.dropped())
    print("  " + report.summary())
    for rule, label in [("FREE", "conflict-free"), ("CONF", "conflicting")]:
        series = report.by_rule.get(rule)
        if series:
            print(
                f"  {label:14s} per-apply lag: mean {series.mean:5.2f}us "
                f"p95 {series.p95:5.2f}us"
            )

    print("\n== 3. verbs and node counters ==")
    stats = cluster.fabric.stats
    updates = max(result.update_calls, 1)
    print(
        f"  one-sided writes: {stats.ops[Opcode.WRITE]} "
        f"({stats.ops[Opcode.WRITE] / updates:.2f} per update)"
    )
    print(f"  atomics: {stats.ops[Opcode.CAS]}, "
          f"two-sided sends: {stats.two_sided_ops}")
    for name in cluster.node_names():
        counters = cluster.node(name).stats()["counters"]
        print(
            f"  {name}: freed={counters['freed']} "
            f"decided={counters['conf_decided']} "
            f"applied={counters['buffer_applied']} "
            f"queries={counters['queries']}"
        )


def main() -> None:
    load_curve()
    lag_and_verbs()
    print("\nmeasurement tour OK")


if __name__ == "__main__":
    main()
