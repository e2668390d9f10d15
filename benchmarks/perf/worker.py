"""One benchmark child: build one workload, drive it once, report.

``run.py`` starts this file in a fresh interpreter for every
(workload, repeat), so start-up, ``import repro`` and cluster build are
paid — and measured — every time, as a user of ``repro run`` pays them.
The result is one JSON object on the last line of standard output.

The system is driven only through public constructors and functions;
the workload table below fixes every size.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

N_NODES = 4
N_SHARDS = 4
#: ``counter_serve``'s declared limit: p99 <= 50 us of simulated time.
SLO_P99_US = 50.0
#: p99 needs ten samples beyond it, p999 likewise.
MIN_SAMPLES_P99 = 1_000
MIN_SAMPLES_P999 = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``closed`` (run_workload), ``open`` (run_open_loop) or
    #: ``sharded`` (run_sharded_workload).
    kind: str
    datatype: str
    update_ratio: float
    #: Calls at ``--scale 1``: total ops (closed), constituent calls
    #: (sharded), or simulated microseconds of arrivals (open).
    size: int
    #: TraceRecorder capacity per node; 0 runs without a recorder.
    recorder: int = 0
    #: ``live`` taps a StreamingChecker; ``offline`` runs TraceChecker
    #: on the full trace after the run.
    check: str = ""
    #: Fault horizon in simulated us at ``--scale 1`` (crash-leader).
    fault_horizon_us: float = 0.0


#: Sizes give a 2-3 s timed region per child on the 2-core box the
#: first result was recorded on (see README "Sizing").
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "gset_write",
            "all FREE-path updates: rings, wire, verbs and broadcast do "
            "the work; no consensus, invariant or tracing",
            "closed", "gset", 1.0, 8_000),
        Workload(
            "gset_read",
            "95% local queries on the same type: rings idle, so engine "
            "dispatch and empty poll sweeps dominate",
            "closed", "gset", 0.05, 60_000),
        Workload(
            "courseware_mixed",
            "CONF path through Mu plus FREE registerStudent, invariant "
            "re-evaluated per apply; unrecorded",
            "closed", "courseware", 0.5, 7_000),
        Workload(
            "courseware_checked",
            "same inputs as courseware_mixed with recorder and live "
            "StreamingChecker: isolates observability cost",
            "closed", "courseware", 0.5, 7_000,
            recorder=4096, check="live"),
        Workload(
            "counter_serve",
            "open-loop flash crowd on the REDUCE path (summary slots, "
            "no rings) through serving admission, live-checked",
            "open", "counter", 0.5, 3_000,
            recorder=4096, check="live"),
        Workload(
            "bank_sharded",
            "4 shards x 4 nodes of bankmap with 20% conflicting txns: "
            "txn coordinator, router, largest set-up",
            "sharded", "bankmap", 0.0, 5_000),
        Workload(
            "courseware_crash",
            "leader crash and restart under load: heartbeat, Mu leader "
            "change, state transfer, offline checker",
            "closed", "courseware", 0.25, 14_000,
            recorder=1 << 20, check="offline", fault_horizon_us=3_500.0),
    )
}

#: Just under the rate at which the flash crowd starts to shed (6.0
#: sheds a few arrivals on some seeds; no operation may fail here).
OPEN_LOAD_OPS_PER_US = 5.0
TXN_MIX = 0.2


class Spans:
    """Phase spans of one child, in seconds since the parent spawned it."""

    def __init__(self, workload_id: str, origin: float):
        self.workload_id = workload_id
        self.origin = origin
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[str]) -> None:
        self.rows.append({
            "name": name, "start": start - self.origin,
            "end": end - self.origin, "parent": parent,
            "workload": self.workload_id,
        })

    @contextmanager
    def phase(self, name: str, parent: str):
        start = time.monotonic()
        try:
            yield
        finally:
            self.add(name, start, time.monotonic(), parent)

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows
                   if r["name"] == name)


def canonical(value):
    """A JSON-able form of a replica state that does not depend on set
    or dict iteration order (string hashing is randomized per process)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=repr)
    if isinstance(value, dict):
        return sorted(
            ([canonical(k), canonical(v)] for k, v in value.items()),
            key=repr,
        )
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _settle(env, cluster, budget_us: float = 200_000.0) -> bool:
    """Run until three consecutive 20 us ticks see every node converged
    at the same applied total."""
    deadline = env.now + budget_us
    stable = 0
    while stable < 3:
        totals = set(cluster.applied_totals().values())
        stable = stable + 1 if len(totals) == 1 and cluster.converged() else 0
        if env.now > deadline:
            return False
        env.run(until=env.now + 20.0)
    return True


def _probe_sum(probe: dict, key: str) -> int:
    value = probe.get(key, 0)
    return sum(value.values()) if isinstance(value, dict) else value


def run_workload_once(workload: Workload, seed: int, scale: float,
                      spawned_at: float, traced: bool) -> dict:
    spans = Spans(f"{workload.name}/seed{seed}", spawned_at)

    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    from repro.core import Coordination
    from repro.datatypes import SPEC_FACTORIES
    from repro.runtime import (
        HambandCluster, RuntimeConfig, ShardedCluster, StreamingChecker,
        TraceChecker, TraceRecorder, TxnCoordinator,
    )
    from repro.sim import Environment, FaultInjector, FaultPlan
    from repro.workload import (
        DriverConfig, OpenLoopConfig, ShardedDriverConfig, run_open_loop,
        run_sharded_workload, run_workload,
    )
    from repro.workload.metrics import SloTarget
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    imported_at = time.monotonic()
    spans.add("phase.import", spawned_at, imported_at, "setup")

    size = max(1, int(workload.size * scale))
    with spans.phase("phase.analyze", "setup"):
        coordination = Coordination.analyze(
            SPEC_FACTORIES[workload.datatype]()
        )

    with spans.phase("phase.build", "setup"):
        env = Environment()
        config = RuntimeConfig(seed=seed)
        recorder = checker = injector = coordinator = None
        if workload.recorder:
            recorder = TraceRecorder(env, capacity=workload.recorder)
        if workload.kind == "sharded":
            cluster = ShardedCluster.build(
                env, coordination, n_shards=N_SHARDS, n_nodes=N_NODES,
                config=config, seed=seed,
            )
            coordinator = TxnCoordinator(cluster)
        else:
            cluster = HambandCluster.build(
                env, coordination, n_nodes=N_NODES, config=config,
                probe_factory=recorder.probe_factory if recorder else None,
            )
        if recorder is not None:
            recorder.attach(coordination)
        if workload.check == "live":
            checker = StreamingChecker(
                coordination, processes=cluster.node_names()
            )
            recorder.stream_to(checker.feed)
        if workload.fault_horizon_us:
            plan = FaultPlan.named(
                "crash-leader", seed=seed, n_nodes=N_NODES,
                horizon_us=workload.fault_horizon_us * scale,
            )
            injector = FaultInjector(plan).arm(cluster)
        if workload.kind == "closed":
            driver = DriverConfig(
                workload=workload.datatype, total_ops=size,
                update_ratio=workload.update_ratio, seed=seed,
            )
        elif workload.kind == "open":
            driver = OpenLoopConfig(
                workload=workload.datatype,
                offered_load_ops_per_us=OPEN_LOAD_OPS_PER_US,
                duration_us=float(size),
                update_ratio=workload.update_ratio, seed=seed,
                n_sessions=100_000, n_tenants=16,
                arrival_curve="flash-crowd",
                slo=SloTarget(p99_us=SLO_P99_US),
            )
        else:
            driver = ShardedDriverConfig(
                total_txns=max(1, size // 2), txn_mix=TXN_MIX, seed=seed,
            )
    setup_end = time.monotonic()
    spans.add("setup", spawned_at, setup_end, None)

    profile = cProfile.Profile() if traced else None
    report = None
    settled = True
    if profile is not None:
        profile.enable()
    with spans.phase("phase.drive", "timed"):
        if workload.kind == "closed":
            result = run_workload(env, cluster, driver)
        elif workload.kind == "open":
            result = run_open_loop(env, cluster, driver)
        else:
            result = run_sharded_workload(env, cluster, coordinator, driver)
    with spans.phase("phase.settle", "timed"):
        if injector is not None:
            if env.now < injector.horizon_us():
                env.run(until=injector.horizon_us())
            settled = _settle(env, cluster)
    with spans.phase("phase.check", "timed"):
        if workload.check == "live":
            report = checker.finish()
        elif workload.check == "offline":
            report = TraceChecker(
                coordination, processes=cluster.node_names()
            ).check(
                recorder.events(), dropped=recorder.dropped(),
                gaps=recorder.drop_gaps(),
            )
    timed_end = time.monotonic()
    if profile is not None:
        profile.disable()
    # Read before the digest and counts work below, which is the
    # harness's memory and not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans.add("timed", setup_end, timed_end, None)

    # -- everything below is outside both timed regions ----------------
    latency = result.latency
    total_calls = result.total_calls
    # The drivers count a call once it has returned; one that never
    # does makes the driver raise or the parent's child timeout fire.
    attempted = total_calls + result.dropped_arrivals
    failed = result.rejected_calls + result.dropped_arrivals

    states = (
        {f"s{i}/{name}": state
         for i, shard in enumerate(cluster.shards)
         for name, state in shard.effective_states().items()}
        if workload.kind == "sharded" else cluster.effective_states()
    )
    digest = hashlib.sha256(json.dumps([
        total_calls, result.update_calls, result.rejected_calls,
        result.dropped_arrivals, result.start_us, result.replicated_us,
        latency.samples, canonical(states),
    ]).encode()).hexdigest()

    sim = {
        "sim_tput_ops_per_us": result.throughput_ops_per_us,
        "sim_p50_us": latency.p50,
        "sim_p99_us": (latency.p99 if latency.count >= MIN_SAMPLES_P99
                       else None),
        "sim_p999_us": (latency.p999 if latency.count >= MIN_SAMPLES_P999
                        else None),
        "failed_ops_share": failed / attempted,
        "slo_miss_share": None,
        "sim_unavail_us": None,
    }
    if workload.kind == "open":
        slow = sum(1 for s in latency.samples if s > SLO_P99_US)
        sim["slo_miss_share"] = (
            (slow + result.dropped_arrivals) / attempted
        )

    if workload.kind == "sharded":
        stats = cluster.stats()["global"]
        fabrics = [shard.fabric for shard in cluster.shards]
    else:
        stats = cluster.stats()["cluster"]
        fabrics = [cluster.fabric]
    probe = stats["probe"]
    batches = _probe_sum(probe, "conflict_batches")
    counts = {
        "rdma.fabric.verbs_per_op": sum(
            sum(f.stats.ops.values()) for f in fabrics) / total_calls,
        "rdma.fabric.bytes_per_op": sum(
            sum(f.stats.bytes.values()) for f in fabrics) / total_calls,
        "runtime.ringbuffer.records_drained_per_op":
            _probe_sum(probe, "records_drained") / total_calls,
        "runtime.transport.op_retries": _probe_sum(probe, "op_retries"),
        "runtime.transport.backpressure_stalls":
            _probe_sum(probe, "backpressure_stalls"),
        "runtime.conflict.retries": _probe_sum(probe, "conflict_retries"),
        "runtime.conflict.calls_per_batch": (
            stats["counters"]["conf_decided"] / batches if batches else 0.0),
        "runtime.trace.events_per_op": 0.0,
        "runtime.trace.dropped": 0,
        "runtime.stream_checker.window_peak": 0,
        "workload.serving.shed_share": (
            result.dropped_arrivals / attempted
            if workload.kind == "open" else 0.0),
        "runtime.statexfer.sim_catchup_us": 0.0,
    }
    if recorder is not None:
        events = recorder.events()
        counts["runtime.trace.dropped"] = recorder.dropped()
        counts["runtime.trace.events_per_op"] = (
            (len(events) + recorder.dropped()) / total_calls
        )
        if injector is not None:
            sim["sim_unavail_us"], counts[
                "runtime.statexfer.sim_catchup_us"] = _fault_times(events)
    if checker is not None:
        counts["runtime.stream_checker.window_peak"] = (
            checker.stats()["peak_window"]
        )

    checks = {
        "no_worker_failures": cluster.failures() == [],
        "converged": cluster.converged(),
        "integrity_holds": cluster.integrity_holds(),
        "settled": settled,
        "checker_ok": report.ok if workload.check else True,
        "slo_report_present": (
            result.slo is not None if workload.kind == "open" else True),
        "no_failed_ops": failed == 0,
    }

    out = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "size": size,
        "total_calls": total_calls,
        "attempted": attempted,
        "failed": failed,
        "latency_samples": latency.count,
        "wall_calls_per_s": total_calls / (timed_end - setup_end),
        "setup_s": setup_end - spawned_at,
        "peak_rss_mb": peak_rss_mb,
        "phases": {
            f"{name}_s": spans.seconds(name)
            for name in ("phase.import", "phase.analyze", "phase.build",
                         "phase.drive", "phase.settle", "phase.check")
        },
        "sim": sim,
        "sim_digest": digest,
        "counts": counts,
        "checks": checks,
        "spans": spans.rows,
    }
    if profile is not None:
        from layers import bucket_profile

        out["profile"] = bucket_profile(profile)
    return out


def _fault_times(events) -> tuple[float, float]:
    """(longest gap between consecutive CONF decisions cluster-wide
    after the crash, restart -> last state-transfer completion), both
    in simulated us.  No trailing gap is counted: after the clients
    finish nobody asks for a decision."""
    crash_at = restart_at = last_xfer = None
    decisions = []
    for event in events:
        if event.kind == "fault" and event.name == "crash":
            crash_at = event.t
        elif event.kind == "fault" and event.name == "restart":
            restart_at = event.t
        elif event.kind == "member" and event.name == "state_xfer":
            last_xfer = event.t
        elif (event.kind == "rule" and event.name == "CONF"
              and crash_at is not None):
            decisions.append(event.t)
    if crash_at is None or restart_at is None or last_xfer is None:
        raise RuntimeError("fault run recorded no crash/restart/state_xfer")
    marks = [crash_at] + decisions
    unavail = max((b - a for a, b in zip(marks, marks[1:])), default=0.0)
    return unavail, last_xfer - restart_at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--profile", type=int, default=0)
    args = parser.parse_args(argv)
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())
    out = run_workload_once(
        WORKLOADS[args.workload], args.seed, args.scale, spawned_at,
        bool(args.profile),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
