"""What a run retains: nothing per apply beyond σ and the dedup keys.

An untraced cluster keeps no log of its applies, so its heap grows with
the replicated state and one request id per applied call per node —
not with a frozen event, a decoded ``Call`` and a timestamp per rule
firing per node, which is what the deleted ``cluster.events`` pinned
(1 707 B per call on this run at 17edc78).
"""

import gc
import tracemalloc

from repro.core import ConcreteEvent
from repro.datatypes import courseware_spec, gset_spec
from repro.runtime import HambandCluster, TraceRecorder
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload


def untraced_gset(total_ops):
    env = Environment()
    cluster = HambandCluster.build(env, gset_spec(), n_nodes=4)
    run_workload(
        env, cluster,
        DriverConfig(workload="gset", total_ops=total_ops,
                     update_ratio=1.0, seed=1),
    )
    return cluster


def retained_bytes(total_ops):
    """Traced heap still live once the run is over and collected."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster = untraced_gset(total_ops)
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cluster.converged()
    return current


def live_concrete_events():
    gc.collect()
    return sum(isinstance(o, ConcreteEvent) for o in gc.get_objects())


def test_untraced_run_retains_under_700_bytes_per_call():
    # The slope between two run lengths cancels the fixed cost (the
    # cluster, imports made under tracing).  It still includes the
    # replicated set itself and the ring pages first touched before
    # the 8192-slot rings wrap; measured ~320 B against the parent's
    # ~1 660 B, so the bound has room for both.
    per_call = (retained_bytes(12_000) - retained_bytes(4_000)) / 8_000
    assert per_call <= 700, f"{per_call:.0f} B retained per call"


def test_untraced_run_leaves_no_concrete_event_behind():
    before = live_concrete_events()
    cluster = untraced_gset(400)
    assert cluster.converged()
    assert live_concrete_events() == before


def courseware_heap(total_ops, traced):
    """Traced heap live after a 4-node courseware run, and how many
    events its recorder (if any) retains."""
    gc.collect()
    tracemalloc.start()
    try:
        env = Environment()
        recorder = TraceRecorder(env, capacity=1 << 20) if traced else None
        cluster = HambandCluster.build(
            env, courseware_spec(), n_nodes=4,
            probe_factory=recorder.probe_factory if traced else None,
        )
        if traced:
            recorder.attach(cluster.coordination)
        run_workload(
            env, cluster,
            DriverConfig(workload="courseware", total_ops=total_ops,
                         update_ratio=0.25, seed=1),
        )
        gc.collect()
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cluster.converged()
    return current, len(recorder.events()) if traced else 0


def test_a_retained_trace_event_costs_under_64_bytes():
    # What the recorder keeps alive is the traced run's heap minus the
    # same (deterministic) run's untraced heap; the slope between two
    # run lengths cancels the fixed costs.  Measured ~52 B per event
    # (five array columns, the arg list and their growth slack) against
    # ~211 B when the ring held an 11-field tuple, a seq int and a
    # deque slot per event.
    short, short_events = courseware_heap(2_000, traced=True)
    long, long_events = courseware_heap(6_000, traced=True)
    short_base, _ = courseware_heap(2_000, traced=False)
    long_base, _ = courseware_heap(6_000, traced=False)
    per_event = ((long - long_base) - (short - short_base)) / (
        long_events - short_events)
    assert long_events - short_events > 15_000
    assert per_event <= 64, f"{per_event:.0f} B retained per trace event"
