"""Runtime tunables, shared by all four runtime layers.

Kept in a leaf module (like :mod:`.errors`) so layers can type against
:class:`RuntimeConfig` without importing the node façade.  Region name
helpers for the F/L/S rings and their flow-control ack slots also live
here: every layer and the Mu wiring agree on the naming scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "RuntimeConfig",
    "f_ack_region",
    "f_region",
    "l_ack_region",
    "l_region",
    "s_region",
]


@dataclass
class RuntimeConfig:
    """Tunables of the Hamband runtime (times in microseconds)."""

    ring_slots: int = 8192
    slot_size: int = 128
    summary_payload: int = 4096
    backup_size: int = 4608
    #: Buffer-traversal cadence when the last sweep found nothing.
    poll_interval_us: float = 1.0
    #: Cadence right after progress (records often arrive in trains).
    poll_hot_us: float = 0.2
    #: Adaptive polling: consecutive empty sweeps multiply the idle
    #: wait by this factor (exponential backoff), reset on progress.
    #: 1.0 restores the fixed-cadence behaviour.
    poll_backoff: float = 2.0
    #: Adaptive polling: cap on the backed-off idle wait.  The
    #: effective cap is ``max(poll_idle_max_us, poll_interval_us)`` so
    #: configs that slow the base cadence keep their floor.
    poll_idle_max_us: float = 8.0
    #: Read by benchmarks/perf/isolated.py; not a field (always on).
    ring_integrity: ClassVar[bool] = True
    #: Background scrubber: 0 disables; otherwise each node re-verifies
    #: a bounded window of its committed F-ring prefixes against the
    #: writer's authoritative copy every ``scrub_interval_us``,
    #: repairing divergence anti-entropy style.
    scrub_interval_us: float = 0.0
    #: Rate limit: slots re-verified per scrub pass per ring.
    scrub_batch: int = 16
    apply_cpu_us: float = 0.15
    local_cpu_us: float = 0.08
    query_cpu_us: float = 0.20
    #: Stale heartbeat polls before a peer is suspected while its
    #: phi-accrual model is still cold (see runtime/heartbeat.py).
    suspect_after: int = 3
    #: Root seed for runtime-internal randomness (retry jitter); the
    #: harness threads the experiment seed through so same seed ⇒ same
    #: schedule.
    seed: int = 0
    #: Per-op retry budget in microseconds of cumulative backoff;
    #: 0 = unlimited (the attempt cap alone bounds the loop).
    retry_budget_us: float = 0.0
    #: Conflicting calls waiting for permissibility retry at this pace.
    conf_retry_us: float = 2.0
    conf_retry_limit: int = 800
    #: Leader-side decision batching: up to this many queued conflicting
    #: calls are ordered, applied, and replicated in ONE remote write
    #: per follower.  1 disables batching (the paper's configuration).
    conf_batch: int = 1
    #: Treat reducible methods as irreducible conflict-free (the paper's
    #: Figure 9 GSet-with-buffers configuration).
    force_buffered: bool = False
    #: Flow control: readers acknowledge ring progress every this many
    #: consumed slots — a record spanning k slots counts k — (one tiny
    #: one-sided write back to the writer);
    #: writers block (backpressure) instead of lapping a slow reader.
    #: 0 disables acks — then writers rely on ring sizing alone.
    ack_every: int = 64
    backpressure_wait_us: float = 1.0
    backpressure_limit: int = 20000
    #: Ablation: ship the issuer's *entire* applied map as the
    #: dependency record instead of the projection over Dep(u) —
    #: receivers then wait for everything the issuer had seen (a causal
    #: barrier), not just the calls the invariant actually needs.
    full_dep_barrier: bool = False
    #: Recovery: transiently failed one-sided ops (injected NIC faults,
    #: in-flight partition blips) retry up to this many times with
    #: exponential backoff capped at ``op_retry_cap_us``.
    op_retry_limit: int = 6
    op_retry_us: float = 2.0
    op_retry_cap_us: float = 64.0
    #: State transfer: the frontier barrier polls applied progress at
    #: this cadence and gives up (never wedges) after ``xfer_barrier_us``
    #: — a record blocked on a dependency that cannot arrive degrades
    #: to a late flip, not a hang (the checkers gate the outcome).
    xfer_poll_us: float = 5.0
    xfer_barrier_us: float = 4000.0


def f_region(writer: str) -> str:
    return f"hamband:F:{writer}"


def l_region(gid: str) -> str:
    return f"hamband:L:{gid}"


def s_region(group: str, owner: str) -> str:
    return f"hamband:S:{group}:{owner}"


def f_ack_region(reader: str) -> str:
    """At a writer: the reader's progress ack for the writer's F records."""
    return f"hamband:ack:F:{reader}"


def l_ack_region(gid: str, reader: str) -> str:
    """At a (potential) leader: the reader's progress ack for L:{gid}."""
    return f"hamband:ack:L:{gid}:{reader}"
