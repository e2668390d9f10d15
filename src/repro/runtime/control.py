"""Layer 4 — the rare-path control plane (paper §4).

:class:`ControlPlane` owns the node's two-sided messaging: the per-peer
listener, the vote/discovery dispatch into Mu, client-call forwarding
("conflicting calls are automatically redirected to the corresponding
leader node(s)"), and broadcast recovery when a peer is suspected.

None of this touches the data path: in a healthy run the only control
traffic is forwarding (when :meth:`HambandNode.submit_any` is used) —
votes, discovery, and recovery fire only around failures.

Wiring (done by the façade through :meth:`bind`): the control plane
needs the conflict coordinator (Mu dispatch and leader views), the
apply engine (recovered-call delivery), the reliable-broadcast endpoint
(backup-slot fetch), and a ``submit`` callable for serving forwarded
requests.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Optional

from ..core import Call
from ..rdma import RdmaNode
from ..sim import Event
from .config import RuntimeConfig, s_region
from .errors import ImpermissibleError, NotLeaderError, SubmitError
from .probe import RuntimeProbe
from .wire import WireCodec

__all__ = ["ControlPlane"]

#: A forwarded conflicting call waits this long for the leader's reply
#: before re-resolving the leader and retrying.
FWD_TIMEOUT_US = 2000.0


class ControlPlane:
    """Two-sided listener + forwarding + broadcast recovery."""

    def __init__(self, rnode: RdmaNode, config: RuntimeConfig,
                 probe: Optional[RuntimeProbe] = None,
                 codec: Optional[WireCodec] = None):
        self.rnode = rnode
        self.env = rnode.env
        self.name = rnode.name
        self.config = config
        self.probe = probe or RuntimeProbe()
        self.codec = codec or WireCodec()
        #: Outstanding forwarded-request waiters, by token.
        self._fwd_waiters: dict[str, Event] = {}
        #: Served forwarded requests: token -> cached reply, so a
        #: duplicated/retried fwd_req is answered without re-executing.
        self._served: dict[str, tuple] = {}
        #: Tokens currently being served (first delivery wins; a
        #: duplicate arriving mid-serve is dropped — the serve in
        #: progress will reply).
        self._serving: set[str] = set()
        # Collaborators, wired by the façade via bind().
        self.conflict = None
        self.applier = None
        self.broadcast = None
        self.submit: Callable[[str, Any], Event] = None
        #: Optional rejoin hook: ``on_resync(peer)`` is a generator that
        #: pulls ``peer``'s rings/summaries (wired by the façade).
        self.on_resync = None
        #: Optional slow-leader ballot hook:
        #: ``on_slow_leader(voter, victim)`` tallies a peer's claim that
        #: ``victim`` is degraded (wired by the façade).
        self.on_slow_leader = None

    def bind(self, conflict, applier, broadcast,
             submit: Callable[[str, Any], Event],
             on_resync=None, on_slow_leader=None) -> None:
        self.conflict = conflict
        self.applier = applier
        self.broadcast = broadcast
        self.submit = submit
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
            elif kind == "fwd_req":
                self.env.process(
                    self.serve_forwarded(incoming.src, message),
                    name=f"fwd:{self.name}",
                )
            elif kind == "fwd_resp":
                _kind, token, outcome, data = message
                waiter = self._fwd_waiters.pop(token, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed((outcome, data))
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

    # -- request forwarding ----------------------------------------------

    def forward_to_leader(self, gid: str, method: str, arg: Any,
                          max_hops: int = 5):
        # ONE token for all hops/retries of this request: the serving
        # side dedups on it, so a retry after a lost reply (or a
        # duplicated request) cannot execute the call twice.
        token_rid = self.applier.next_rid()
        token = f"{self.name}:{token_rid}"
        for _hop in range(max_hops):
            leader = self.conflict.leader_of(gid)
            if leader == self.name:
                result = yield self.submit(method, arg)
                return result
            waiter = self.env.event()
            self._fwd_waiters[token] = waiter
            self.probe.span_begin("forward", method, self.name, token_rid)
            yield from self.send(leader, ("fwd_req", token, method, arg))
            deadline = self.env.timeout(FWD_TIMEOUT_US)
            result = yield self.env.any_of([waiter, deadline])
            self.probe.span_end("forward", method, self.name, token_rid)
            if waiter not in result:
                # Request or reply lost (drop/crash): clear the waiter,
                # re-resolve the leader, and retry with the same token.
                self._fwd_waiters.pop(token, None)
                yield from self.conflict.discover_leader(gid)
                continue
            outcome, data = result[waiter]
            if outcome == "ok":
                m, a, origin, rid = data
                return Call(m, a, origin, rid)
            if outcome == "impermissible":
                raise ImpermissibleError(data)
            if outcome == "redirect":
                # The peer no longer leads; adopt its view and retry.
                self.probe.count("redirects", method)
                self.conflict.set_leader_view(gid, data)
                continue
            raise SubmitError(str(data))
        raise SubmitError(f"no stable leader found for {method}")

    def serve_forwarded(self, src: str, message: Any):
        _kind, token, method, arg = message
        cached = self._served.get(token)
        if cached is not None:
            # Client retry after a lost reply: resend, don't re-execute.
            yield from self.send(src, ("fwd_resp", token, *cached))
            return
        if token in self._serving:
            return  # duplicate delivery mid-serve: the first will reply
        self._serving.add(token)
        self.probe.count("forwards", method)
        try:
            result = yield self.submit(method, arg)
            reply = ("ok", (result.method, result.arg, result.origin,
                            result.rid))
        except NotLeaderError as redirect:
            reply = ("redirect", redirect.leader)
        except ImpermissibleError as exc:
            reply = ("impermissible", str(exc))
        except SubmitError as exc:
            reply = ("error", str(exc))
        finally:
            self._serving.discard(token)
        # Only terminal outcomes are cached: a "redirect" answer may
        # legitimately differ on the next hop of the same token.
        if reply[0] != "redirect":
            self._served[token] = reply
        yield from self.send(src, ("fwd_resp", token, reply[0], reply[1]))

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
