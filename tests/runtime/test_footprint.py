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
from repro.datatypes import gset_spec
from repro.runtime import HambandCluster
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
