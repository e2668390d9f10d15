"""Isolated layer drives: host rate of single layers outside the simulator.

Records one small ``courseware`` run (trace and call stream), then
drives each layer's public functions on those recorded inputs and
checks what comes back.  Runs as its own child of ``run.py``; the
result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Ops of the recording run at ``--scale 1``.
RECORD_OPS = 4_000
REPEATS = 5
WIRE_BATCH = 8
RING_RUN = 32


def _median_rate(units: int, fn) -> float:
    """Median over REPEATS of ``units`` / host seconds of ``fn()``."""
    rates = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        rates.append(units / (time.perf_counter() - start))
    return statistics.median(rates)


def drive(seed: int, scale: float) -> dict[str, float]:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    from repro.core import Call, Coordination
    from repro.datatypes import SPEC_FACTORIES
    from repro.rdma.memory import Access, MemoryRegion
    from repro.runtime import (
        HambandCluster, RuntimeConfig, StreamingChecker, TraceChecker,
        TraceRecorder,
    )
    from repro.runtime.ringbuffer import RingReader, RingWriter
    from repro.runtime.wire import WireCodec
    from repro.sim import Environment
    from repro.sim.microbench import engine_microbench
    from repro.workload import DriverConfig, run_workload

    spec = SPEC_FACTORIES["courseware"]()
    coordination = Coordination.analyze(spec)
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 20)
    config = RuntimeConfig(seed=seed)
    cluster = HambandCluster.build(
        env, coordination, n_nodes=4, config=config,
        probe_factory=recorder.probe_factory,
    )
    recorder.attach(coordination)
    run_workload(env, cluster, DriverConfig(
        workload="courseware", total_ops=max(64, int(RECORD_OPS * scale)),
        update_ratio=0.5, seed=seed,
    ))
    events = recorder.events()
    names = cluster.node_names()
    if recorder.dropped():
        raise RuntimeError("recording run overflowed its trace ring")

    # The issued calls with the dependency arrays a sender would ship:
    # counts, at issue time, of the calls each method depends on.
    issued: list = []
    seen: dict = {}
    for event in events:
        if event.kind != "rule" or event.name not in ("FREE", "CONF"):
            continue
        dep = {
            key: count for key, count in seen.items()
            if key[1] in coordination.dep(event.method)
        }
        issued.append(
            (Call(event.method, event.arg, event.origin, event.rid), dep)
        )
        key = (event.origin, event.method)
        seen[key] = seen.get(key, 0) + 1
    first = names[0]
    applied = [
        Call(e.method, e.arg, e.origin, e.rid) for e in events
        if e.kind == "rule" and e.node == first and e.name != "QUERY"
    ]

    out: dict[str, float] = {}
    out["sim.engine.events_per_s"] = engine_microbench(
        scale=0.5, repeats=REPEATS).ops_per_sec

    codec = WireCodec.for_cluster(2, coordination, names)
    batches = [issued[i:i + WIRE_BATCH]
               for i in range(0, len(issued), WIRE_BATCH)]

    def wire_roundtrip():
        for batch in batches:
            if codec.decode_call_batch(codec.encode_call_batch(batch)) != batch:
                raise RuntimeError("wire roundtrip changed a batch")

    out["runtime.wire.roundtrip_per_s"] = _median_rate(
        len(issued), wire_roundtrip)

    payloads = [codec.encode_call_packet(call, dep) for call, dep in issued]
    slots, slot_size = 256, config.slot_size

    def ring_pass():
        region = MemoryRegion(first, "bench-ring", slots * slot_size,
                              Access.ALL)
        writer = RingWriter(slots, slot_size, integrity=config.ring_integrity)
        reader = RingReader(region, slots, slot_size)
        for start in range(0, len(payloads), RING_RUN):
            chunk = payloads[start:start + RING_RUN]
            for payload in chunk:
                record = writer.build(payload)
                region.write(writer.claim(), record)
            got = []
            while len(got) < len(chunk):
                run = reader.peek_run(RING_RUN)
                for payload in run:
                    reader.advance()
                got.extend(run)
            if got != chunk:
                raise RuntimeError("ring returned different records")

    out["runtime.ringbuffer.records_per_s"] = _median_rate(
        len(payloads), ring_pass)

    def stream_check():
        checker = StreamingChecker(coordination, processes=names)
        checker.feed_many(events)
        if not checker.finish().ok:
            raise RuntimeError("streaming checker rejected the recording")

    out["runtime.stream_checker.events_per_s"] = _median_rate(
        len(events), stream_check)

    def offline_check():
        if not TraceChecker(coordination, processes=names).check(events).ok:
            raise RuntimeError("offline checker rejected the recording")

    out["runtime.checker.events_per_s"] = _median_rate(
        len(events), offline_check)

    def apply_check():
        state = spec.initial_state()
        for call in applied:
            state = spec.apply_call(call, state)
            if not spec.invariant(state):
                raise RuntimeError(f"invariant broken after {call}")

    out["datatypes.apply_check_per_s"] = _median_rate(
        len(applied), apply_check)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    print(json.dumps(drive(args.seed, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
