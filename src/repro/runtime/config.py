"""Runtime settings and the tunables two runtime layers share.

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


#: Buffer-traversal cadence after an empty sweep; the hole detectors
#: count their patience in these intervals.
POLL_INTERVAL_US = 1.0
#: CPU cost of the issuing node's local step of an update.
LOCAL_CPU_US = 0.08
#: Transiently failed one-sided writes retry up to ``OP_RETRY_LIMIT``
#: times, backing off from ``OP_RETRY_US`` up to ``OP_RETRY_CAP_US``.
OP_RETRY_LIMIT = 6
OP_RETRY_US = 2.0
OP_RETRY_CAP_US = 64.0
#: Slots per F/L ring.
RING_SLOTS = 8192
#: Flow control: readers acknowledge ring progress every this many
#: consumed slots — a record spanning k slots counts k — (one tiny
#: one-sided write back to the writer); writers block (backpressure)
#: instead of lapping a slow reader.
ACK_EVERY = 64


@dataclass
class RuntimeConfig:
    """The settings of the Hamband runtime that a paper figure, an
    ablation, the harness or the CLI varies (times in microseconds).
    Every other tunable is a module constant beside its reader."""

    #: Bytes per ring slot; a longer record spans consecutive slots.
    slot_size: ClassVar[int] = 128
    #: Read by benchmarks/perf/isolated.py; not a field (always on).
    ring_integrity: ClassVar[bool] = True
    #: Background scrubber: 0 disables; otherwise each node re-verifies
    #: a bounded window of its committed ring prefixes against the
    #: authoritative copy every ``scrub_interval_us``, repairing
    #: divergence anti-entropy style (CLI: ``chaos --scrub``).
    scrub_interval_us: float = 0.0
    #: Root seed for runtime-internal randomness (retry jitter); the
    #: harness threads the experiment seed through so same seed ⇒ same
    #: schedule.
    seed: int = 0
    #: A conflicting call not yet permissible is retried this many
    #: times before it is rejected (Figure 13 lowers it).
    conf_retry_limit: int = 800
    #: Leader-side decision batching: up to this many queued conflicting
    #: calls are ordered, applied, and replicated in ONE remote write
    #: per follower.  1 disables batching (the paper's configuration).
    conf_batch: int = 1
    #: Treat reducible methods as irreducible conflict-free (the paper's
    #: Figure 9 GSet-with-buffers configuration).
    force_buffered: bool = False
    #: Ablation: ship the issuer's *entire* applied map as the
    #: dependency record instead of the projection over Dep(u) —
    #: receivers then wait for everything the issuer had seen (a causal
    #: barrier), not just the calls the invariant actually needs.
    full_dep_barrier: bool = False


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
