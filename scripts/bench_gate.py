#!/usr/bin/env python3
"""Benchmark smoke + regression gate.

Runs a small, deterministic set of scenarios (healthy, chaos, and
open-loop serving) and compares their throughput against the
checked-in ``benchmarks/baseline.json``.  A scenario regressing (or
speeding up) beyond the tolerance fails the gate — sim time is
deterministic, so a drift here is a real change in the protocol's
work, not noise; large intentional changes re-baseline with
``--update``.

One scenario is different in kind: ``sim-engine-speed`` measures the
discrete-event engine's *wall-clock* dispatch rate (events/sec) on the
``repro.sim.microbench`` shapes.  Wall clock is noisy across machines,
so it gates asymmetrically — only regressions beyond
``--wall-tolerance`` fail; speedups always pass (re-baseline to lock
them in).

Usage::

    PYTHONPATH=src python scripts/bench_gate.py            # gate
    PYTHONPATH=src python scripts/bench_gate.py --update   # re-baseline
    PYTHONPATH=src python scripts/bench_gate.py --only sim-engine-speed,openloop-slo
    PYTHONPATH=src python scripts/bench_gate.py --out gate.json

Exit codes: 0 OK, 1 regression (or missing baseline entry).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from unittest import mock

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench import (  # noqa: E402
    ExperimentConfig,
    run_experiment,
    run_harness,
)
from repro.runtime import heartbeat  # noqa: E402
from repro.sim import FaultPlan  # noqa: E402
from repro.workload import OpenLoopConfig, SloTarget  # noqa: E402

BASELINE_PATH = REPO / "benchmarks" / "baseline.json"

#: The gated scenarios: (key, system, workload, chaos-plan-or-None).
#: Healthy runs gate the fast path; the chaos runs gate the recovery
#: paths (retries, re-election, rejoin) staying cheap.
SCENARIOS = (
    ("hamband-gset", "hamband", "gset", None),
    ("hamband-courseware", "hamband", "courseware", None),
    ("mu-courseware", "mu", "courseware", None),
    ("chaos-lossy-gset", "hamband", "gset", "lossy-10pct"),
    ("chaos-crash-courseware", "hamband", "courseware", "crash-leader"),
    # Gates the silent-corruption machinery: CRC verification plus the
    # quarantine/refetch repairs must stay within tolerance of the
    # healthy path even while 5% of writes land corrupted.
    ("chaos-corrupt-gset", "hamband", "gset", "corrupt-5pct"),
    # Gates the sharded txn fast path: 4 bankmap shards, all-commuting
    # payroll mix, committed through the cross-shard coordinator.
    ("sharded-bank", "hamband", "sharded-bank", None),
)

#: Scenarios measured in wall-clock events/sec (asymmetric tolerance:
#: regressions gate, speedups pass) rather than deterministic sim time.
WALL_SCENARIOS = ("sim-engine-speed",)

OPS = 600
HORIZON_US = 600.0


def _openloop_slo() -> float:
    """Open-loop serving gate: a flash-crowd run over 20k sessions must
    keep its SLO, pass the streaming checker, and hold its throughput
    baseline (sim time, so ±tolerance like the protocol scenarios)."""
    config = ExperimentConfig(
        system="hamband", workload="counter", n_nodes=4, seed=1
    )
    loop = OpenLoopConfig(
        workload="counter",
        offered_load_ops_per_us=3.0,
        duration_us=800.0,
        arrival_curve="flash-crowd",
        n_sessions=20_000,
        n_tenants=8,
        slo=SloTarget(p99_us=2_000.0, p999_us=5_000.0),
    )
    run = run_harness(config, loop=loop, live_check=True)
    if run.stream_report is not None and not run.stream_report.ok:
        raise SystemExit(
            f"openloop-slo: {run.stream_report.summary()}"
        )
    if not run.result.slo.ok:
        raise SystemExit(f"openloop-slo: {run.result.slo.summary()}")
    return run.result.throughput_ops_per_us


def _gray_slo() -> float:
    """Gray-failure SLO gate: flash-crowd serving under a fail-slow
    leader.

    The ``gray-leader`` plan stretches every RDMA op touching the
    group-0 leader 12x for a window covering the arrival spike.  The
    peer-health tracker must classify the leader degraded from one-sided
    op latency, a follower quorum demotes it, and the serve keeps its
    p99 SLO; the SAME plan with degraded classification switched off
    (so only heartbeat silence, which a fail-slow node never shows, can
    trigger suspicion) must MISS the SLO — the negative control proving
    demotion is load-bearing, not the SLO merely slack.  The gated
    metric is the demoting run's throughput."""
    loop = OpenLoopConfig(
        workload="courseware",
        offered_load_ops_per_us=3.0,
        duration_us=800.0,
        update_ratio=0.25,
        arrival_curve="flash-crowd",
        n_sessions=20_000,
        n_tenants=8,
        slo=SloTarget(p99_us=500.0, p999_us=1_500.0),
    )
    plan = FaultPlan.named("gray-leader", horizon_us=1_500.0)

    config = ExperimentConfig(
        system="hamband",
        workload="courseware",
        n_nodes=4,
        seed=1,
        update_ratio=0.25,
    )

    def serve(label: str):
        run = run_harness(config, loop=loop, live_check=True, plan=plan)
        if run.result is None:
            raise SystemExit(f"gray-slo: {label} run did not quiesce")
        if run.stream_report is not None and not run.stream_report.ok:
            raise SystemExit(f"gray-slo: {run.stream_report.summary()}")
        return run

    run = serve("demoting")
    if not run.result.slo.ok:
        raise SystemExit(
            f"gray-slo: missed SLO: {run.result.slo.summary()}"
        )
    witness = run.cluster.node("p2")
    leaders = {
        gid: witness.conflict.leader_of(gid)
        for gid in witness.conflict.mu_groups
    }
    if "p1" in leaders.values():
        raise SystemExit(
            "gray-slo: slow leader p1 was never demoted "
            f"(leaders: {leaders})"
        )
    # Negative control: no peer is ever classified degraded.
    with mock.patch.object(heartbeat, "DEGRADED_FACTOR", math.inf):
        control = serve("control")
    if control.result.slo.ok:
        raise SystemExit(
            "gray-slo: negative control failed — without degraded "
            "classification the serve met the SLO, so the gate is not "
            f"exercising demotion: {control.result.slo.summary()}"
        )
    return run.result.throughput_ops_per_us


def _state_transfer() -> float:
    """State-transfer gate: time-to-parity for an elastic scale-out.

    A node joins a 3-node gset cluster holding ~400 committed updates;
    the metric is transferred calls per sim microsecond from
    ``add_node()`` until the joiner's applied total reaches the
    incumbents' — the authoritative bulk-read path staying fast IS the
    scale-out latency story, so it gates like the protocol scenarios
    (deterministic sim time, symmetric tolerance)."""
    from repro.datatypes import gset_spec
    from repro.runtime import HambandCluster
    from repro.sim import Environment

    env = Environment()
    cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
    total = 400
    for i in range(total):
        cluster.node(f"p{1 + i % 3}").submit("add", f"k{i}")
        env.run(until=env.now + 5.0)
    env.run(until=env.process(cluster.quiesce(total)))
    start = env.now
    cluster.add_node("p4")
    deadline = start + 1_000_000.0
    while cluster.node("p4").applied_total() < total:
        if env.now > deadline:
            raise SystemExit("state-transfer: joiner never reached parity")
        env.run(until=env.now + 50.0)
    if cluster.failures():
        raise SystemExit(f"state-transfer: {cluster.failures()}")
    return total / (env.now - start)


def _engine_speed() -> float:
    """Raw engine dispatch rate (wall clock, events/sec)."""
    from repro.sim.microbench import engine_microbench

    return engine_microbench().ops_per_sec


def measure(only: set[str] | None = None) -> dict[str, float]:
    measured: dict[str, float] = {}
    for key, system, workload, plan_name in SCENARIOS:
        if only is not None and key not in only:
            continue
        config = ExperimentConfig(
            system=system,
            workload=workload,
            n_nodes=4,
            total_ops=OPS,
            update_ratio=0.25,
            seed=1,
            n_shards=4 if workload == "sharded-bank" else 1,
        )
        if plan_name is None:
            result = run_experiment(config)
        else:
            plan = FaultPlan.named(plan_name, horizon_us=HORIZON_US)
            run = run_harness(config, plan=plan)
            if run.result is None:
                raise SystemExit(f"{key}: chaos run did not quiesce")
            report = run.check()
            if not report.ok:
                raise SystemExit(f"{key}: {report.summary()}")
            result = run.result
        measured[key] = result.throughput_ops_per_us
    if only is None or "openloop-slo" in only:
        measured["openloop-slo"] = _openloop_slo()
    if only is None or "gray-slo" in only:
        measured["gray-slo"] = _gray_slo()
    if only is None or "state-transfer" in only:
        measured["state-transfer"] = _state_transfer()
    if only is None or "sim-engine-speed" in only:
        measured["sim-engine-speed"] = _engine_speed()
    return measured


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite benchmarks/baseline.json with current numbers",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative drift from baseline (default 0.25)",
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=0.35,
        help="allowed wall-clock *regression* for the engine-speed "
        "scenario; speedups always pass (default 0.35)",
    )
    parser.add_argument(
        "--only", metavar="KEY[,KEY...]", default=None,
        help="run a subset of scenarios (comma-separated keys)",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the measured values and verdicts as JSON (the CI "
        "perf-trajectory artifact)",
    )
    args = parser.parse_args()

    only = None
    if args.only is not None:
        only = {key.strip() for key in args.only.split(",") if key.strip()}
        known = {key for key, *_ in SCENARIOS}
        known.update((
            "openloop-slo", "gray-slo", "sim-engine-speed",
            "state-transfer",
        ))
        unknown = only - known
        if unknown:
            print(f"unknown scenario(s): {', '.join(sorted(unknown))}")
            print(f"known: {', '.join(sorted(known))}")
            return 1

    measured = measure(only)
    if args.update:
        if only is not None:
            # Partial update: merge into the existing baseline.
            existing = {}
            if BASELINE_PATH.exists():
                existing = json.loads(
                    BASELINE_PATH.read_text()
                )["scenarios"]
            existing.update(measured)
            merged = existing
        else:
            merged = measured
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "metric": "throughput_ops_per_us "
                    "(sim-engine-speed: events/sec wall clock)",
                    "ops": OPS,
                    "wall_scenarios": list(WALL_SCENARIOS),
                    "scenarios": {
                        k: round(v, 4) for k, v in merged.items()
                    },
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"baseline updated: {BASELINE_PATH}")
        for key, value in measured.items():
            unit = "ev/s" if key in WALL_SCENARIOS else "ops/us"
            print(f"  {key:24s} {value:12.3f} {unit}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"missing {BASELINE_PATH}; run with --update first")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())["scenarios"]
    failed = False
    verdicts: dict[str, dict] = {}
    for key, value in measured.items():
        expected = baseline.get(key)
        if expected is None:
            print(f"FAIL {key:24s} no baseline entry (run --update)")
            verdicts[key] = {"measured": value, "verdict": "no-baseline"}
            failed = True
            continue
        drift = (value - expected) / expected if expected else 0.0
        if key in WALL_SCENARIOS:
            ok = drift >= -args.wall_tolerance
            bound = f"floor -{args.wall_tolerance:.0%} (wall clock)"
            unit = "ev/s"
        else:
            ok = abs(drift) <= args.tolerance
            bound = f"tolerance ±{args.tolerance:.0%}"
            unit = "ops/us"
        verdict = "ok" if ok else "FAIL"
        failed |= not ok
        verdicts[key] = {
            "measured": value,
            "baseline": expected,
            "drift": drift,
            "verdict": verdict,
        }
        print(
            f"{verdict:4s} {key:24s} {value:12.3f} {unit} "
            f"(baseline {expected:12.3f}, drift {drift:+.1%}, {bound})"
        )
    if args.out is not None:
        pathlib.Path(args.out).write_text(
            json.dumps(
                {
                    "tolerance": args.tolerance,
                    "wall_tolerance": args.wall_tolerance,
                    "scenarios": verdicts,
                    "failed": failed,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"results -> {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
