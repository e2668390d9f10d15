"""The Hamband node runtime façade (paper §4).

:class:`HambandNode` composes the four runtime layers into one replica
of a Hamband-replicated object and keeps the public request API
(:meth:`submit`, :meth:`effective_state`,
:meth:`applied_count`, :meth:`stats`) stable while each mechanism
lives in its own module:

- :class:`~repro.runtime.transport.RingTransport` — region
  registration, F/L ring readers/writers, ack flow control,
  backpressure (``runtime/transport.py``);
- :class:`~repro.runtime.applier.ApplyEngine` — σ, the applied-calls
  map A, summaries, dependency projection/checks, permissibility, the
  buffer-traversal loop, and the QUERY/REDUCE/FREE request paths
  (``runtime/applier.py``);
- :class:`~repro.runtime.conflict.ConflictCoordinator` — the Mu-backed
  leader path: decision batching, demotion/campaign/rejoin repair,
  hole detection, the L-ring drain (``runtime/conflict.py``);
- :class:`~repro.runtime.control.ControlPlane` — the two-sided
  listener, leader discovery dispatch and broadcast recovery
  (``runtime/control.py``).

A single :class:`~repro.runtime.probe.RuntimeProbe` instrumentation
seam is threaded through the transport, apply and conflict layers (a
no-op interface by default; the node installs a
:class:`~repro.runtime.probe.CountingProbe` unless told otherwise) and
surfaces through :meth:`stats`.

Request processing follows the paper's four cases: queries run locally;
reducible calls are summarized and remotely overwritten; irreducible
conflict-free calls are applied locally and reliably broadcast into F
rings; conflicting calls are ordered by the group leader through Mu
into L rings.  Every issue/apply is reported to the probe; a run
recorded by :class:`~repro.runtime.trace.TraceRecorder` is what the
checkers and the refinement replay (docs/semantics.md) consume.

This module re-exports :class:`RuntimeConfig` and the request errors
from their leaf modules, keeping historical import paths stable.
"""

from __future__ import annotations

from typing import Any, Optional

from ..consensus.mu import mu_channel
from ..core import Category, Coordination
from ..rdma import RdmaNode
from ..sim import Environment, Event
from .applier import ApplyEngine
from .broadcast import ReliableBroadcast
from .config import (  # noqa: F401  (re-exported for import stability)
    RuntimeConfig,
    f_ack_region,
    f_region,
    l_ack_region,
    l_region,
    s_region,
)
from .conflict import ConflictCoordinator
from .control import ControlPlane
from .errors import (  # noqa: F401  (re-exported for import stability)
    ImpermissibleError,
    NotLeaderError,
    SubmitError,
)
from . import heartbeat
from .heartbeat import FailureDetector, Heartbeat, PeerHealth
from .probe import CountingProbe, RuntimeProbe, operation_totals
from .scrubber import Scrubber
from .statexfer import StateTransfer
from .transport import RingTransport
from .wire import WireCodec

__all__ = [
    "HambandNode",
    "ImpermissibleError",
    "NotLeaderError",
    "RuntimeConfig",
    "SubmitError",
]


class HambandNode:
    """One replica of a Hamband-replicated object (a thin façade)."""

    def __init__(self, rnode: RdmaNode, coordination: Coordination,
                 processes: list[str], initial_leaders: dict[str, str],
                 config: RuntimeConfig, codec: WireCodec,
                 probe: Optional[RuntimeProbe] = None):
        self.rnode = rnode
        self.env: Environment = rnode.env
        self.name = rnode.name
        self.coordination = coordination
        self.spec = coordination.spec
        self.processes = sorted(processes)
        self.peers = [p for p in self.processes if p != self.name]
        self.config = config
        #: Failure injection: a failed node refuses new requests (the
        #: paper's model — requests are redirected to live nodes) while
        #: its memory stays remotely accessible.
        self.failed = False
        #: Crashed background workers (supervised): any entry here is
        #: a bug surfaced loudly instead of a silent wedge.
        self.failures: list[str] = []
        #: Current membership-epoch version (0 = the founding epoch;
        #: bumped by the membership layer on every join/leave).
        self.membership_epoch = 0
        #: The instrumentation seam shared by the layers that count.
        self.probe = probe if probe is not None else CountingProbe()
        #: The cluster's wire codec, one object shared by every node (a
        #: joiner included), so each landed frame decodes once per
        #: cluster.
        self.codec = codec

        # -- compose the four layers -----------------------------------
        #: Peer-health latency tracker: classifies limping-but-alive
        #: peers as degraded from one-sided op latency, driving hedged
        #: reads and slow-leader demotion.
        self.health = PeerHealth(
            on_degraded=self._on_peer_degraded,
            on_recovered=self._on_peer_recovered,
            probe=self.probe,
        )
        #: Slow-leader demotion ballots: victim -> set of voters.
        self._slow_votes: dict[str, set] = {}
        self.heartbeat = Heartbeat(rnode)
        self.detector = FailureDetector(
            rnode,
            self.processes,
            on_suspect=self._on_suspect,
            on_clear=self._on_clear,
            health=self.health,
            probe=self.probe,
        )
        self.transport = RingTransport(
            rnode, coordination, self.processes, config, self.health,
            self.probe, codec=self.codec,
            is_suspected=self.detector.is_suspected,
        )
        self.applier = ApplyEngine(
            rnode, coordination, config, self.probe, codec=self.codec,
        )
        self.applier.init_summaries(self.processes)
        self.broadcast = ReliableBroadcast(rnode)
        self.control = ControlPlane(rnode, codec=self.codec)
        self.conflict = ConflictCoordinator(
            rnode, coordination, self.processes, initial_leaders, config,
            applier=self.applier,
            transport=self.transport,
            control_send=self.control.send,
            spawn=self._spawn_supervised,
            is_failed=lambda: self.failed,
            is_suspected=self.detector.is_suspected,
            suspected=lambda: self.detector.suspected,
            probe=self.probe,
            codec=self.codec,
        )
        self.applier.bind(
            self.transport, self.conflict, self.broadcast,
            self.detector.is_suspected,
        )
        self.control.bind(
            self.conflict, self.applier, self.broadcast,
            on_resync=self._catch_up_from,
            on_slow_leader=self._slow_leader_vote,
        )
        self.scrubber = Scrubber(
            rnode, self.transport, self.conflict.l_repairers, config,
            is_failed=lambda: self.failed,
        )
        self._spawn_supervised(self.applier.poll_loop(), f"poll:{self.name}")
        if config.scrub_interval_us > 0:
            # Opt-in background scrub of at-rest ring replicas (the
            # consumption-time CRC paths run regardless).
            self._spawn_supervised(
                self.scrubber.loop(), f"scrub:{self.name}"
            )
        self.control.start(self.peers, self._spawn_supervised)

    def _spawn_supervised(self, generator, name: str):
        """Run a background worker; record (never swallow) its death.

        A dead poller or consensus worker turns into a silent cluster
        wedge otherwise — the failure list makes the workload driver
        and the tests fail loudly instead.
        """

        def wrapper():
            try:
                yield from generator
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                self.failures.append(f"{name}: {exc!r}")
                raise

        return self.env.process(wrapper(), name=name)

    # -- public API ------------------------------------------------------

    def current_leader(self, method: str) -> str:
        return self.conflict.current_leader(method)

    def submit(self, method: str, arg: Any = None) -> Event:
        """Issue a request; the returned event carries the response.

        The event fails with :class:`NotLeaderError` for a conflicting
        call at a non-leader (the paper redirects these client-side)
        and with :class:`ImpermissibleError` for integrity violations.
        """
        if self.failed:
            raise SubmitError(f"node {self.name} has failed")
        if method in self.spec.queries:
            return self.applier.query(method, arg)
        category = self.applier.category(method)
        if category is Category.REDUCIBLE:
            gen = self.applier.do_reduce(method, arg)
        elif category is Category.IRREDUCIBLE_CONFLICT_FREE:
            gen = self.applier.do_free(method, arg)
        else:
            gen = self.conflict.submit_conf(method, arg)
        return self.env.process(gen, name=f"u:{self.name}:{method}")

    def effective_state(self) -> Any:
        """``Apply(S)(σ)``: summaries folded over the stored state."""
        return self.applier.effective_state()

    def applied_count(self, process: str, method: str) -> int:
        """A(p, u), consulting summary slots for reducible methods."""
        return self.applier.applied_count(process, method)

    def applied_total(self) -> int:
        """Total update calls reflected at this node (A summed)."""
        return self.applier.applied_total()

    def stats(self) -> dict[str, Any]:
        """Live runtime statistics: the probe snapshot and the operation
        totals derived from it.

        The ``probe`` section carries whatever the installed
        :class:`~repro.runtime.probe.RuntimeProbe` accumulated — with
        the default :class:`~repro.runtime.probe.CountingProbe`:
        per-rule applies, ring-occupancy high-water marks, backpressure
        stalls, conflict retries/batches, demotions, hole repairs,
        rejections, and broadcast recoveries.
        The operation totals are read off that snapshot by
        :func:`~repro.runtime.probe.operation_totals` (all zero under a
        no-op probe).
        """
        probe = self.probe.snapshot()
        return {
            "node": self.name,
            "counters": operation_totals(probe),
            "probe": probe,
            "membership": {
                "epoch": self.membership_epoch,
                "members": list(self.processes),
            },
        }

    # -- membership -------------------------------------------------------

    def add_peer(self, name: str) -> None:
        """Rewire every layer for a newly joined peer.

        Order matters: the transport registers the peer's regions
        before the applier builds summary readers over them.  The
        joiner never leads an existing group, so its write permission
        on our Mu log channels is revoked up front — exactly the
        cluster-construction invariant for non-leaders.
        """
        if name == self.name or name in self.processes:
            return
        self.transport.add_peer(name)
        self.applier.add_process(name)
        self.detector.add_peer(name)
        self.conflict.add_member(name)
        self.processes = sorted([*self.processes, name])
        self.peers = [p for p in self.processes if p != self.name]
        self._spawn_supervised(
            self.control.listener(name), f"ctl:{self.name}<-{name}"
        )
        for gid in self.conflict.mu_groups:
            self.rnode.qp_to(name, mu_channel(gid)).revoke_peer_write()
        self.scrubber.rearm()

    def remove_peer(self, name: str) -> None:
        """Unwire a departed peer from every layer.

        The applier keeps its summary slots and applied counts (frozen
        state referenced by in-flight dependency arrays), the detector
        pins it suspected, and the transport keeps its ring reader as
        drainable history — only writers and polling go.
        """
        if name == self.name or name not in self.processes:
            return
        self.transport.remove_peer(name)
        self.detector.remove_peer(name)
        self.conflict.remove_member(name)
        self.processes.remove(name)
        self.peers = [p for p in self.processes if p != self.name]
        self.scrubber.rearm()

    # -- failure handling -------------------------------------------------

    def _on_suspect(self, peer: str) -> None:
        self.env.process(
            self.control.recover_broadcasts(peer),
            name=f"recover:{self.name}",
        )
        self.conflict.handle_suspect(peer)

    def _on_clear(self, peer: str) -> None:
        """A suspected peer proved alive again (partition healed or the
        node restarted): resynchronize in BOTH directions.

        Locally we pull the peer's rings/summaries (records we missed
        while cut off from it); then we tell the peer to pull ours — it
        has holes for every broadcast we skipped it on while we thought
        it dead."""

        def worker():
            yield from self._catch_up_from(peer)
            # The heal may have left ack flow control in its conservative
            # fallback; re-arm it from the next ack the peer publishes.
            self.transport.rearm_flow_control(peer)
            yield from self.control.send(peer, ("resync",))

        self.env.process(worker(), name=f"clear:{self.name}:{peer}")

    def _catch_up_from(self, peer: str):
        """Pull one peer's data through the unified state-transfer
        engine (leader re-discovery first — the healed-minority
        permission fix — then bulk F/L/summary install under the
        frontier barrier)."""
        yield from StateTransfer(self).run(sources=[peer], reason=peer)

    # -- gray-failure handling ---------------------------------------------

    def _leads_any(self, peer: str) -> bool:
        return any(self.conflict.leader_of(gid) == peer
                   for gid in self.conflict.mu_groups)

    def _on_peer_degraded(self, peer: str) -> None:
        """Our latency tracker classified ``peer`` as fail-slow.

        A degraded FOLLOWER is pinned suspected locally right away:
        suspicion of a non-leader only changes what WE do (skip posting
        to it, hedge reads around it) — crash-stop semantics already
        guarantee a skipped peer is owed nothing, so no coordination is
        needed.  A degraded LEADER is different: suspicion triggers a
        demotion campaign, and one node's noisy latency estimate must
        not depose a healthy leader — so we gather a quorum of
        independent detectors through the ``slow_leader`` ballot first.
        """
        if self._leads_any(peer):
            self._spawn_supervised(
                self._slow_leader_ballot(peer),
                f"ballot:{self.name}:{peer}",
            )
        else:
            self.detector.mark_degraded(peer)

    def _slow_leader_ballot(self, victim: str):
        """Broadcast our slow-leader vote until quorum or recovery.

        Several rounds, spaced a few detector polls apart: votes ride
        the two-sided control plane, whose sends into the slow link may
        themselves be delayed or lost — repetition (the tally is a set,
        so it is idempotent) keeps one delayed packet from stalling the
        demotion."""
        for _round in range(5):
            if (not self.rnode.alive or self.failed
                    or not self.health.is_degraded(victim)
                    or self.detector.is_degraded(victim)):
                return
            self._tally_slow_vote(self.name, victim)
            for peer in self.peers:
                if peer == victim or self.detector.is_suspected(peer):
                    continue
                yield from self.control.send(
                    peer, ("slow_leader", victim)
                )
            yield self.env.timeout(4.0 * heartbeat.FD_POLL_US)

    def _slow_leader_vote(self, voter: str, victim: str) -> None:
        """Control-plane entry: ``voter`` claims ``victim`` is slow."""
        if victim == self.name:
            # Never demote ourselves on hearsay; if a quorum really
            # agrees, their campaign revokes our Mu write permission
            # and we discover the new leader like any deposed node.
            return
        self._tally_slow_vote(voter, victim)

    def _tally_slow_vote(self, voter: str, victim: str) -> None:
        votes = self._slow_votes.setdefault(victim, set())
        votes.add(voter)
        quorum = len(self.processes) // 2 + 1
        if len(votes) >= quorum and not self.detector.is_degraded(victim):
            # Quorum of independent detectors: pin the victim suspected
            # (fires on_suspect -> rank-staggered re-election + fan-out
            # skip) until its health recovers.
            self.detector.mark_degraded(victim)

    def _on_peer_recovered(self, peer: str) -> None:
        """The degraded peer's latency fell back to baseline: drop our
        ballot state and unpin — the next heartbeat advance clears the
        suspicion through the normal bidirectional-resync path."""
        self._slow_votes.pop(peer, None)
        self.detector.clear_degraded(peer)

    # -- restart / rejoin --------------------------------------------------

    def rejoin(self):
        """Catch a restarted node up to the cluster through the SAME
        state-transfer engine joins and heals use: re-learn leaders,
        bulk-install every F ring and L log copy, refresh summaries."""
        yield from StateTransfer(self).run(reason="restart")

    def start_rejoin(self):
        """Spawn the rejoin pass (supervised) after a restart."""
        return self._spawn_supervised(self.rejoin(), f"rejoin:{self.name}")
