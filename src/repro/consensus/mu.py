"""Mu-style consensus, one instance per synchronization group (paper §4).

Common case (as in Mu, Aguilera et al. OSDI'20): only the designated
leader holds RDMA write permission to the followers' log regions; a
decision is one one-sided write per follower plus a majority of
acknowledgements (write completions).

Leader change: a follower that suspects the leader campaigns — it asks
every node to accept it (a two-sided control message, this path is rare
and off the data path), and each node *revokes the previous leader's
write permission before granting the candidate's* on the group's
dedicated queue pairs.  A majority of grants makes the candidate the
leader; a deposed leader discovers its demotion through permission
errors on its next replication attempt.  Before serving, the new leader
reconciles: it fills its own log copy from every reachable follower's
(the runtime's one ring repairer) and pushes each adopted record to
the followers, so any record the old leader managed to write to a
majority but not to everyone survives.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..rdma import RdmaNode, WcStatus
from ..sim import Environment, Event, Store
from ..runtime import config as runtime_config
from ..runtime.config import RuntimeConfig
from ..runtime.ringbuffer import RingError, RingWriter, span_of

__all__ = ["MuGroup", "mu_channel"]


def mu_channel(gid: str) -> str:
    """The dedicated QP channel for a group's log writes."""
    return f"mu:{gid}"


#: Pause between checks while waiting for the reader to drain (or to
#: finish applying the log before serving as leader).
CATCHUP_POLL_US = 5.0
#: How long a campaigner waits for vote acks before giving up (the
#: runtime's campaign stagger builds on it too).
VOTE_TIMEOUT_US = 800.0


class MuGroup:
    """One node's endpoint of the consensus instance for one group."""

    def __init__(self, node: RdmaNode, gid: str, members: list[str],
                 initial_leader: str, repairer, config: RuntimeConfig,
                 control_send: Callable,
                 ack_of: Callable[[str], int],
                 on_demoted: Callable[[], None],
                 is_suspected: Callable[[str], bool]):
        """``repairer`` is the :class:`~repro.runtime.transport.
        RingRepairer` of this node's log copy: its reader's head counts
        the log records this node has applied, and its ``fill`` adopts
        records from the other copies.  ``control_send(peer, message)``
        is a generator posting a control-plane SEND; ``ack_of(peer)``
        reads the peer's flow-control ack; ``is_suspected(peer)`` lets
        the leader skip posting decisions toward suspected — possibly
        fail-slow — followers instead of gating every commit on their
        completions."""
        self.node = node
        self.env: Environment = node.env
        self.gid = gid
        self.members = sorted(members)
        self.leader = initial_leader
        self.term = 0
        #: The term at which the *current* leader assumed power.  A
        #: node's own ``term`` can run ahead of it (failed campaigns
        #: bump the term without changing leaders); ``who_leads``
        #: replies carry this value, so second-hand leader knowledge is
        #: always dated by the leadership it describes, never by the
        #: relayer's possibly-inflated term.
        self.leader_term = 0
        self.config = config
        self._repairer = repairer
        #: Our own log copy; the reader's head is the applied count.
        self._log = repairer.reader
        self.region_name = repairer.region_name
        self._control_send = control_send
        self._ack_of = ack_of
        self._on_demoted = on_demoted
        self._is_suspected = is_suspected
        #: Set while this node believes itself the leader.
        self.is_leader = node.name == initial_leader
        #: Writers toward each follower's log region (leader only).
        self._writers: dict[str, RingWriter] = {}
        if self.is_leader:
            self._init_writers(start_tail=0)
        #: Vote acks awaited during a campaign: (term -> Store of acks).
        self._ack_stores: dict[int, Store] = {}
        #: Log slots filled by decided records (leader's own tally).
        self.decided = 0
        #: One-shot flag armed by :meth:`expect_authoritative_leader`:
        #: the next ``leader_is`` reply is accepted even at an older
        #: term (see the method's docstring for why that is safe).
        self._resync_leader_pending = False

    def _init_writers(self, start_tail: int) -> None:
        self._writers = {}
        for peer in self.members:
            if peer == self.node.name:
                continue
            writer = RingWriter(runtime_config.RING_SLOTS,
                                self.config.slot_size)
            writer.tail = start_tail
            if start_tail == 0:
                # Fresh log: track reader acks.  After a failover
                # (start_tail > 0) ack state is stale, so the new leader
                # relies on ring sizing instead.
                writer.reader_acked = 0
            self._writers[peer] = writer
        self.decided = start_tail

    # -- data path -------------------------------------------------------

    def replicate(self, payload: bytes) -> Generator[Event, Any, bool]:
        """Leader: append one record; True once a majority acknowledged.

        The record is one span of log slots, posted to each follower
        as one write (two, in one doorbell, when it crosses the wrap).
        A permission error on any follower means a newer leader exists;
        this node steps down and returns False.

        A decided record is also written into the leader's own log
        region with a plain local write, never exposed to in-flight
        faults: follower repair falls back on that copy when every
        follower copy of the record was damaged.
        """
        if not self.is_leader:
            return False
        pending = []
        for peer, writer in self._writers.items():
            # A suspected follower (dead — or pinned *degraded*, i.e.
            # fail-slow) still gets its slot rendered and claimed so
            # every per-peer log copy stays index-aligned (records
            # carry index-generation canaries; skipping the claim would
            # land later content at stale indices).  Only the *post*
            # is skipped: a slow follower's completion would gate this
            # and every following decision on the straggler.
            suspected = self._is_suspected(peer)
            if writer.reader_acked is not None:
                # Clamp to our own tail: a corrupt/torn ack write must
                # not disable overrun protection with a garbage value.
                writer.ack_up_to(min(self._ack_of(peer), writer.tail))
            waited = 0
            while True:
                try:
                    offset, slot = writer.render(payload)
                    break
                except RingError:
                    if suspected:
                        # A suspected reader's acks won't advance: fall
                        # back to ring sizing now, don't wait it out.
                        writer.reader_acked = None
                        offset, slot = writer.render(payload)
                        break
                    # Backpressure: wait for the reader to drain, but a
                    # suspected/dead reader must not wedge the group.
                    waited += 1
                    if waited > 2000:
                        writer.reader_acked = None
                        offset, slot = writer.render(payload)
                        break
                    yield self.env.timeout(CATCHUP_POLL_US)
                    writer.ack_up_to(min(self._ack_of(peer), writer.tail))
            region = self.node.region_of(peer, self.region_name)
            qp = self.node.qp_to(peer, mu_channel(self.gid))
            pieces = writer.pieces(offset, slot)
            if suspected:
                pending.append((qp, region, pieces, None))
                continue
            yield self.node.cpu.hold(qp.config.post_cpu_us)
            pending.append((qp, region, pieces, [
                qp.post_write(region, piece_offset, data)
                for piece_offset, data in pieces
            ]))
        needed = len(self.members) // 2  # + self = majority
        acked = 0
        permission_errors = 0
        for qp, region, pieces, completions in pending:
            if completions is None:
                continue  # skipped suspected follower: owed nothing
            statuses = set()
            for (offset, data), completion in zip(pieces, completions):
                wc = yield completion
                # Transient failures (injected NIC faults, partition
                # blips) retry the SAME bytes to the SAME offset —
                # idempotent.  Permission errors are the leader-change
                # signal and must surface immediately.
                retries = 0
                delay = runtime_config.OP_RETRY_US
                while (
                    wc.status is not WcStatus.SUCCESS
                    and wc.status is not WcStatus.PERMISSION_ERROR
                    and retries < runtime_config.OP_RETRY_LIMIT
                    and self.node.alive
                    and self.is_leader
                ):
                    retries += 1
                    yield self.env.timeout(delay)
                    delay = min(delay * 2, runtime_config.OP_RETRY_CAP_US)
                    yield self.node.cpu.hold(qp.config.post_cpu_us)
                    wc = yield qp.post_write(region, offset, data)
                statuses.add(wc.status)
            if statuses == {WcStatus.SUCCESS}:
                acked += 1
            elif WcStatus.PERMISSION_ERROR in statuses:
                permission_errors += 1
        if acked >= needed:
            # A majority accepted the write: still the leader.  A stray
            # permission error (e.g. a deposed predecessor that never
            # voted for us) does not matter — majorities rule.
            if pending:
                # Uncharged like ``writer.render``: the cost model bills
                # posted verbs only, and in Mu the leader's own log slot
                # is the buffer its follower writes are posted from.
                for offset, data in pending[-1][2]:
                    self._log.region.write(offset, data)
            self.decided += span_of(len(payload), self.config.slot_size)
            return True
        if permission_errors:
            # Could not reach a majority and someone revoked us: a newer
            # leader exists.
            self.is_leader = False
        return False

    # -- control path -------------------------------------------------------

    def handle_control(self, src: str, message: Any) -> Optional[Any]:
        """Process a control message; returns an optional reply.

        Called by the node's control listener.  Messages:
        ``("vote_req", gid, term, candidate)`` and
        ``("vote_ack", gid, term, voter)``.
        """
        kind = message[0]
        if kind == "vote_req":
            _kind, _gid, term, candidate = message
            if term <= self.term and candidate != self.leader:
                return None  # stale campaign
            self.term = term
            self.leader_term = max(self.leader_term, term)
            self._accept_leader(candidate)
            return ("vote_ack", self.gid, term, self.node.name)
        if kind == "vote_ack":
            _kind, _gid, term, voter = message
            store = self._ack_stores.get(term)
            if store is not None:
                store.put(voter)
            return None
        if kind == "who_leads":
            # Leader discovery for rejoining/deposed nodes.  The reply
            # is dated by the *leadership* term, not the replier's own
            # term — a node that merely heard of the leader second-hand
            # must not re-announce it with a fresher date (that would
            # launder a stale claim into one that deposes the real
            # leader at healthy receivers).
            return ("leader_is", self.gid, self.leader_term, self.leader)
        if kind == "leader_is":
            _kind, _gid, term, leader = message
            accept = term >= self.term or (
                self._resync_leader_pending and term >= self.leader_term
            )
            if leader != self.node.name and accept:
                # Disarm only on a *strictly newer* (or normal-guard)
                # leadership: a stale reply naming the leadership we
                # already know must not consume the one-shot, or a
                # rejoiner whose first reply is the stale one would
                # reject the truth that arrives next.
                if term > self.leader_term or term >= self.term:
                    self._resync_leader_pending = False
                self.term = max(self.term, term)
                self.leader_term = max(self.leader_term, term)
                self._accept_leader(leader)
            return None
        return None

    def expect_authoritative_leader(self) -> None:
        """Arm the next ``leader_is`` reply as authoritative.

        A node that spent a partition in the minority may have inflated
        its own term with failed campaigns (each ``campaign`` bumps the
        term; a loss restores the *stale* incumbent's permissions).  The
        normal ``term >= self.term`` guard would then reject the
        majority's truthful ``leader_is`` reply forever — the node keeps
        granting the old leader write permission and the new leader's
        log writes bounce off it.  Rejoin/heal paths call this before a
        ``who_leads`` round so a reply describing a leadership at least
        as new as the one we know (``term >= leader_term``) is believed
        even below our own inflated term.  A *stale* claim — an old
        leadership we have already moved past — is still rejected, so a
        healthy node healing a partition never adopts the deposed
        leader's belief.  Never armed on a node that believes itself
        leader — a real leader learns of its deposition through
        permission errors, not hearsay.
        """
        if not self.is_leader:
            self._resync_leader_pending = True

    def _set_permissions(self, candidate: str) -> None:
        """Revoke the old leader's write permission, then grant the new."""
        me = self.node.name
        for peer in self.members:
            if peer == me:
                continue
            qp = self.node.qp_to(peer, mu_channel(self.gid))
            if peer == candidate:
                qp.grant_peer_write()
            else:
                qp.revoke_peer_write()

    def _accept_leader(self, candidate: str) -> None:
        was_leader = self.is_leader
        self._set_permissions(candidate)
        self.leader = candidate
        self.is_leader = candidate == self.node.name
        if was_leader and not self.is_leader:
            self._on_demoted()

    def campaign(self, suspected: set[str]) -> Generator[Event, Any, bool]:
        """Try to become leader; True on success."""
        self.term += 1
        term = self.term
        # Vote for self: flip permissions, but do NOT claim leadership
        # until the campaign wins and the log catch-up completes — the
        # conflicting-call worker must not serve in between.
        self._set_permissions(self.node.name)
        acks = Store(self.env)
        self._ack_stores[term] = acks
        reachable = [
            p
            for p in self.members
            if p != self.node.name and p not in suspected
        ]
        for peer in reachable:
            yield from self._control_send(
                peer, ("vote_req", self.gid, term, self.node.name)
            )
        needed = len(self.members) // 2  # + self = majority
        voters: set[str] = set()
        deadline = self.env.timeout(VOTE_TIMEOUT_US)
        while len(voters) < needed:
            get_ev = acks.get()
            result = yield self.env.any_of([get_ev, deadline])
            if get_ev in result:
                # Dedup by voter name: a duplicated vote_ack (injected
                # message duplication) must not fake a majority.
                voters.add(result[get_ev])
            elif deadline.processed and deadline in result:
                break
        del self._ack_stores[term]
        if len(voters) < needed:
            self.is_leader = False
            # Lost: our provisional self-vote revoked the incumbent's
            # write permission on this node.  Restore it, or a live
            # leader would be permanently blocked from writing to us —
            # a partitioned minority node's failed campaigns must not
            # wedge the healthy majority.
            self._set_permissions(self.leader)
            return False
        tail = yield from self._reconcile(suspected)
        # Serve only after applying everything the old leader decided.
        while self._log.head < tail:
            yield self.env.timeout(CATCHUP_POLL_US)
        self._init_writers(start_tail=tail)
        self.is_leader = True
        self.leader = self.node.name
        self.leader_term = max(self.leader_term, term)
        return True

    # -- membership ------------------------------------------------------

    def add_member(self, name: str) -> None:
        """Grow the group (elastic scale-out).

        Majorities are computed from ``len(self.members)`` at each use,
        so quorum sizes adjust immediately.  If this node currently
        leads, it starts replicating to the newcomer from its decided
        tail — record bytes at one index are identical across copies,
        and the slots before the tail are bulk-installed by the
        joiner's state transfer, not by the leader.
        """
        if name in self.members:
            return
        self.members = sorted([*self.members, name])
        if self.is_leader and name != self.node.name:
            writer = RingWriter(runtime_config.RING_SLOTS,
                                self.config.slot_size)
            writer.tail = self.decided
            self._writers[name] = writer

    def remove_member(self, name: str) -> None:
        """Shrink the group (elastic scale-in); majorities adjust."""
        if name not in self.members:
            return
        self.members.remove(name)
        self._writers.pop(name, None)

    def _reconcile(self, suspected: set[str]) -> Generator[Event, Any, int]:
        """Adopt any record the old leader wrote anywhere; return the tail.

        Fills our log copy from the applied head across every member's
        copy this campaign did not suspect — the old leader's included,
        which may lag records a majority holds, so no one copy bounds
        the scan — then writes each adopted record into every such
        follower's region (idempotent: the bytes at one index are
        identical everywhere).  The tail is the end of the last whole
        span: fragments of a span no copy holds in full are left for the
        new leader's writes to overwrite.
        """
        peers = [
            p
            for p in self.members
            if p != self.node.name and p not in suspected
        ]
        log = self._log
        head = log.head
        tail, _ = yield from self._repairer.fill(head, sources=peers)
        for index in range(head, tail):
            record = log.record_at(index)
            offset = log.offset_of(index)
            for peer in peers:
                region = self.node.region_of(peer, self.region_name)
                qp = self.node.qp_to(peer, mu_channel(self.gid))
                yield from qp.write(region, offset, record)
        return tail
