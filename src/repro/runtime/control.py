"""Layer 4 — the rare-path control plane (paper §4).

:class:`ControlPlane` owns the node's two-sided messaging: the per-peer
listener, the vote/discovery dispatch into Mu, and broadcast recovery
when a peer is suspected.  Clients reach a leader by redirects
(:func:`~repro.runtime.cluster.submit_redirected`), not through here.

None of this touches the data path: in a healthy run there is no
control traffic — votes, discovery, and recovery fire only around
failures.

Wiring (done by the façade through :meth:`bind`): the control plane
needs the conflict coordinator (Mu dispatch), the apply engine
(recovered-call delivery) and the reliable-broadcast endpoint
(backup-slot fetch).
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Optional

from ..rdma import RdmaNode
from .config import s_region
from .wire import WireCodec

__all__ = ["ControlPlane"]


class ControlPlane:
    """Two-sided listener + broadcast recovery."""

    def __init__(self, rnode: RdmaNode, codec: Optional[WireCodec] = None):
        self.rnode = rnode
        self.env = rnode.env
        self.name = rnode.name
        self.codec = codec or WireCodec()
        # Collaborators, wired by the façade via bind().
        self.conflict = None
        self.applier = None
        self.broadcast = None
        #: Optional rejoin hook: ``on_resync(peer)`` is a generator that
        #: pulls ``peer``'s rings/summaries (wired by the façade).
        self.on_resync = None
        #: Optional slow-leader ballot hook:
        #: ``on_slow_leader(voter, victim)`` tallies a peer's claim that
        #: ``victim`` is degraded (wired by the façade).
        self.on_slow_leader = None

    def bind(self, conflict, applier, broadcast,
             on_resync=None, on_slow_leader=None) -> None:
        self.conflict = conflict
        self.applier = applier
        self.broadcast = broadcast
        self.on_resync = on_resync
        self.on_slow_leader = on_slow_leader

    def start(self, peers: list[str], spawn: Callable) -> None:
        """Spawn one supervised listener per peer."""
        for peer in peers:
            spawn(self.listener(peer), f"ctl:{self.name}<-{peer}")

    # -- messaging -------------------------------------------------------

    def send(self, peer: str, message: Any):
        qp = self.rnode.qp_to(peer)
        yield from qp.send(self.codec.encode_value(message))

    def listener(self, peer: str):
        qp = self.rnode.qp_to(peer)
        while True:
            incoming = yield from qp.recv()
            if not self.rnode.alive:
                continue
            message = self.codec.decode_value(incoming.payload)
            kind = message[0]
            if kind in ("vote_req", "vote_ack", "who_leads", "leader_is"):
                mu = self.conflict.mu_for(message[1])
                if mu is None:
                    continue
                reply = mu.handle_control(incoming.src, message)
                if reply is not None:
                    yield from self.send(incoming.src, reply)
            elif kind == "resync":
                # A peer that just cleared us of suspicion asks us to
                # pull its data — records it skipped us on while it
                # (wrongly or rightly) considered us dead.
                if self.on_resync is not None:
                    self.env.process(
                        self.on_resync(incoming.src),
                        name=f"resync:{self.name}",
                    )
            elif kind == "slow_leader":
                # A peer's health tracker classified ``message[1]``
                # (typically the current leader) as degraded and is
                # gathering a quorum for demotion.
                if self.on_slow_leader is not None:
                    self.on_slow_leader(incoming.src, message[1])

    # -- broadcast recovery ----------------------------------------------

    def recover_broadcasts(self, peer: str):
        """Pull a suspected source's backup slot (reliable broadcast).

        The slot holds a tagged message: an F-ring call packet or a
        summary slot image.  Either is delivered if not already seen —
        agreement for the calls the source broadcast half-way.
        """
        message = yield from self.broadcast.fetch_backup_of(peer)
        if message is None:
            return
        tagged = self.codec.decode_value(message)
        if tagged[0] == "F":
            call, dep = self.codec.decode_call_packet(tagged[1])
            if not self.applier.has_seen(call.key()):
                self.applier.add_recovered(call, dep)
        elif tagged[0] == "S":
            _tag, group, slot_bytes = tagged
            (recovered_seq,) = struct.unpack_from("<Q", slot_bytes, 0)
            region = self.rnode.regions[s_region(group, peer)]
            (local_seq,) = struct.unpack_from("<Q", region.read(0, 8), 0)
            if recovered_seq > local_seq:
                region.write(0, slot_bytes)
