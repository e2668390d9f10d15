"""The Hamband runtime (paper §4) over the simulated RDMA fabric.

The runtime is a layered composition (see docs/runtime_architecture.md):
:class:`RingTransport` (one-sided ring data plane), :class:`ApplyEngine`
(σ/A/summaries + traversal), :class:`ConflictCoordinator` (Mu-backed
leader path), and :class:`ControlPlane` (rare-path two-sided messaging),
instrumented through the :class:`RuntimeProbe` seam and fronted by the
:class:`HambandNode` façade.

Observability rides on the probe seam: :class:`TracingProbe` /
:class:`TraceRecorder` (``runtime/trace.py``) record causal event
traces with per-phase latency histograms, and :class:`TraceChecker`
(``runtime/checker.py``) replays a recorded trace offline to verify
the paper's integrity and convergence obligations.
"""

from .applier import ApplyEngine
from .broadcast import ReliableBroadcast
from .checker import (
    CheckReport,
    ShardedCheckReport,
    ShardedTraceChecker,
    TraceChecker,
    Violation,
)
from .cluster import HambandCluster
from .conflict import ConflictCoordinator
from .control import ControlPlane
from .heartbeat import FailureDetector, Heartbeat
from .membership import MembershipEpoch, join_cluster, leave_cluster
from .node import (
    HambandNode,
    ImpermissibleError,
    NotLeaderError,
    RuntimeConfig,
    SubmitError,
)
from .probe import (
    CountingProbe,
    RuntimeProbe,
    rollup_node_stats,
    rollup_snapshots,
)
from .ringbuffer import (
    RingCorruptionError,
    RingError,
    RingReader,
    RingWriter,
    ring_region_size,
)
from .scrubber import Scrubber
from .sharding import ShardedCluster, ShardRouter
from .statexfer import StateTransfer
from .stream_checker import StreamingChecker
from .telemetry import MetricsEmitter
from .trace import ShardedRecorder, TraceEvent, TraceRecorder, TracingProbe
from .txn import TxnCoordinator, TxnOp, TxnOutcome
from .transport import RingTransport
from .summary import SummarySlot, render_summary, slot_size_for
from .wire import (
    MEMO_FRAMES,
    StringTable,
    WireCodec,
    WireError,
    decode_value,
    encode_value,
)

__all__ = [
    "MEMO_FRAMES",
    "ApplyEngine",
    "CheckReport",
    "ConflictCoordinator",
    "ControlPlane",
    "CountingProbe",
    "FailureDetector",
    "HambandCluster",
    "HambandNode",
    "Heartbeat",
    "RingTransport",
    "RuntimeProbe",
    "ImpermissibleError",
    "MembershipEpoch",
    "MetricsEmitter",
    "NotLeaderError",
    "ReliableBroadcast",
    "RingCorruptionError",
    "RingError",
    "RingReader",
    "RingWriter",
    "RuntimeConfig",
    "Scrubber",
    "ShardRouter",
    "ShardedCheckReport",
    "ShardedCluster",
    "ShardedRecorder",
    "ShardedTraceChecker",
    "StateTransfer",
    "StreamingChecker",
    "StringTable",
    "SubmitError",
    "SummarySlot",
    "TraceChecker",
    "TraceEvent",
    "TraceRecorder",
    "TracingProbe",
    "TxnCoordinator",
    "TxnOp",
    "TxnOutcome",
    "Violation",
    "WireCodec",
    "WireError",
    "decode_value",
    "encode_value",
    "join_cluster",
    "leave_cluster",
    "render_summary",
    "ring_region_size",
    "rollup_node_stats",
    "rollup_snapshots",
    "slot_size_for",
]
