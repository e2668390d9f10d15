"""Source module -> layer map, and the profile bucketing built on it.

The layers are the module names of ``src/repro``.  Every source file is
listed here explicitly, so a new module fails ``test_perf_harness.py``
instead of falling silently into ``other``.
"""

from __future__ import annotations

import pstats
from pathlib import PurePath

LAYERS = (
    "sim.engine", "sim.resources", "sim.faults",
    "rdma.verbs", "rdma.memory", "rdma.fabric",
    "runtime.ringbuffer", "runtime.wire", "runtime.transport",
    "runtime.broadcast", "runtime.applier", "runtime.summary",
    "runtime.conflict", "consensus.mu", "runtime.heartbeat",
    "runtime.statexfer", "runtime.probe", "runtime.trace",
    "runtime.stream_checker", "runtime.checker", "runtime.txn",
    "runtime.sharding", "datatypes", "core", "workload", "other",
)

#: Whole packages that are one layer.
_PACKAGES = {
    "core": "core",
    "datatypes": "datatypes",
    "workload": "workload",
    # Not on any benchmarked path: the CLI/report harness and the two
    # baseline systems the paper compares against.
    "bench": "other",
    "msgpass": "other",
    "smr": "other",
}

#: Files under ``src/repro`` (posix path relative to it) -> layer.
_FILES = {
    "__init__.py": "other",
    "__main__.py": "other",
    "cli.py": "other",
    "consensus/__init__.py": "consensus.mu",
    "consensus/mu.py": "consensus.mu",
    "rdma/__init__.py": "rdma.fabric",
    "rdma/fabric.py": "rdma.fabric",
    "rdma/memory.py": "rdma.memory",
    "rdma/verbs.py": "rdma.verbs",
    "sim/__init__.py": "sim.engine",
    "sim/engine.py": "sim.engine",
    "sim/rng.py": "sim.engine",
    "sim/microbench.py": "sim.engine",
    "sim/resources.py": "sim.resources",
    "sim/faults.py": "sim.faults",
    "runtime/applier.py": "runtime.applier",
    "runtime/broadcast.py": "runtime.broadcast",
    "runtime/checker.py": "runtime.checker",
    "runtime/conflict.py": "runtime.conflict",
    "runtime/heartbeat.py": "runtime.heartbeat",
    "runtime/probe.py": "runtime.probe",
    "runtime/ringbuffer.py": "runtime.ringbuffer",
    "runtime/sharding.py": "runtime.sharding",
    "runtime/statexfer.py": "runtime.statexfer",
    "runtime/stream_checker.py": "runtime.stream_checker",
    "runtime/summary.py": "runtime.summary",
    "runtime/trace.py": "runtime.trace",
    "runtime/transport.py": "runtime.transport",
    "runtime/txn.py": "runtime.txn",
    "runtime/wire.py": "runtime.wire",
    # Join/leave rewiring runs the same transfer engine as restarts.
    "runtime/membership.py": "runtime.statexfer",
    # The node facade, cluster orchestration (incl. the quiesce poll),
    # the rare-path control plane and config have no layer of their
    # own in the issue's list; their time is reported as ``other``.
    "runtime/__init__.py": "other",
    "runtime/cluster.py": "other",
    "runtime/config.py": "other",
    "runtime/control.py": "other",
    "runtime/errors.py": "other",
    "runtime/node.py": "other",
    "runtime/scrubber.py": "other",
    "runtime/telemetry.py": "other",
}


def layer_of_module(relative: str) -> str | None:
    """Layer of ``relative`` (posix path under ``src/repro``), or None
    when the file is not mapped."""
    return _FILES.get(relative) or _PACKAGES.get(relative.split("/", 1)[0])


def _layer_of_code(filename: str) -> str | None:
    """Layer of a profiled code object's file; None outside ``repro``."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    return layer_of_module("/".join(parts[index + 1:])) or "other"


def bucket_profile(profile) -> dict[str, dict[str, float]]:
    """Self time and call count per layer from a ``cProfile.Profile``.

    A function defined under ``src/repro`` charges its self time and
    its calls to its module's layer.  Built-ins and library functions
    have no layer of their own: their self time is charged to the layer
    of each direct caller (cProfile keeps per-caller self time), or to
    ``other`` when the caller is outside ``repro`` too.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, callers) in (
            pstats.Stats(profile).stats.items()):
        layer = _layer_of_code(filename)
        if layer is not None:
            out[layer]["self_s"] += tottime
            out[layer]["calls"] += ncalls
            continue
        for (caller_file, _l, _n), (_nc, _cc2, caller_tt, _ct2) in (
                callers.items()):
            out[_layer_of_code(caller_file) or "other"]["self_s"] += caller_tt
    return out
