"""Layer 3 — leader-ordered conflicting calls (paper §4 + Mu).

:class:`ConflictCoordinator` owns everything leader-shaped at one node:

- the Mu consensus endpoint per synchronization group,
- the per-group serialization queue and its worker (speculative accept,
  decision batching, apply-on-commit),
- the L-ring drain, including partially applied leader batches,
- the repairer of each L log copy (:class:`~repro.runtime.transport.
  RingRepairer`, leader first among its sources),
- demotion handling (head fast-forward + rejoin repair), campaigns on
  leader suspicion, and leader discovery for deposed nodes.

State (σ, A, permissibility, dependency projection) is read and
mutated exclusively through the :class:`~repro.runtime.applier.ApplyEngine`;
ring mechanics come from :class:`~repro.runtime.transport.RingTransport`;
control messages go through a ``control_send`` callable so the layer
never imports the control plane.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .. import consensus
from ..consensus import MuGroup
from ..core import Coordination
from ..rdma import RdmaNode
from ..sim import Store
from . import config as runtime_config
from .config import RuntimeConfig, l_ack_region, l_region
from .errors import ImpermissibleError, NotLeaderError, SubmitError
from .probe import RuntimeProbe
from .ringbuffer import MAX_RECORD_PAYLOAD, RingCorruptionError
from .transport import RingRepairer
from .wire import WireCodec, WireError

__all__ = ["ConflictCoordinator"]

#: The k-th ranked successor candidate waits k stagger units on top of
#: the vote timeout before campaigning, so healthy clusters elect the
#: first candidate without duelling elections.
CAMPAIGN_STAGGER_US = 200.0
#: A candidate re-campaigns up to this many times, this far apart,
#: while the suspected leader stays suspected and unled; then it gives
#: up (counted as a ``campaign`` give-up in ``giveups``).
CAMPAIGN_RETRY_LIMIT = 4
CAMPAIGN_RETRY_US = 400.0
#: A conflicting call that is not yet permissible at the leader is
#: requeued this far apart (``RuntimeConfig.conf_retry_limit`` times).
CONF_RETRY_US = 2.0


class ConflictCoordinator:
    """The Mu-backed ordering path of one node."""

    def __init__(self, rnode: RdmaNode, coordination: Coordination,
                 processes: list[str], initial_leaders: dict[str, str],
                 config: RuntimeConfig, applier, transport,
                 control_send: Callable, spawn: Callable,
                 is_failed: Callable[[], bool],
                 is_suspected: Callable[[str], bool],
                 suspected: Callable[[], set],
                 probe: RuntimeProbe, codec: WireCodec):
        self.rnode = rnode
        self.env = rnode.env
        self.name = rnode.name
        self.coordination = coordination
        self.spec = coordination.spec
        self.processes = sorted(processes)
        self.config = config
        self.applier = applier
        self.transport = transport
        self.control_send = control_send
        self.spawn = spawn
        self.is_failed = is_failed
        self.is_suspected = is_suspected
        self.suspected = suspected
        self.probe = probe
        self.codec = codec
        # Partially applied leader batches, per group (see drain_l).
        self._l_partial: dict[str, deque] = {
            group.gid: deque() for group in coordination.sync_groups()
        }
        #: Per group, the L ring's trace and count labels: the log the
        #: leader posts to (``L:<gid>``) and a follower's drain of it
        #: (``L<-<gid>``), formatted once instead of per call.
        self._l_labels: dict[str, tuple[str, str]] = {
            group.gid: (f"L:{group.gid}", f"L<-{group.gid}")
            for group in coordination.sync_groups()
        }
        #: The repairer of our copy of each group's L log: the leader's
        #: copy holds every decided record, then any member's.
        self.l_repairers = {
            group.gid: RingRepairer(
                transport, f"L:{group.gid}", transport.l_readers[group.gid],
                l_region(group.gid),
                lambda gid=group.gid: [self.leader_of(gid), *self.processes],
            )
            for group in coordination.sync_groups()
        }
        self._init_consensus(initial_leaders)

    def _init_consensus(self, initial_leaders: dict[str, str]) -> None:
        self.mu_groups: dict[str, MuGroup] = {}
        self.conf_queues: dict[str, Store] = {}
        for group in self.coordination.sync_groups():
            gid = group.gid
            self.mu_groups[gid] = MuGroup(
                self.rnode,
                gid,
                self.processes,
                initial_leaders[gid],
                self.l_repairers[gid],
                self.config,
                control_send=self.control_send,
                ack_of=lambda peer, gid=gid: self.rnode.regions[
                    l_ack_region(gid, peer)
                ].read_u64(0),
                on_demoted=lambda gid=gid: self.on_demoted(gid),
                is_suspected=self.is_suspected,
            )
            self.conf_queues[gid] = Store(self.env)
            self.spawn(self._conf_worker(gid), f"conf:{self.name}:{gid}")

    # -- leader views ----------------------------------------------------

    def leader_of(self, gid: str) -> str:
        return self.mu_groups[gid].leader

    def current_leader(self, method: str) -> str:
        group = self.coordination.sync_group(method)
        if group is None:
            raise ValueError(f"{method} is conflict-free")
        return self.mu_groups[group.gid].leader

    def mu_for(self, gid: str) -> Optional[MuGroup]:
        return self.mu_groups.get(gid)

    # -- case 4: conflicting calls ---------------------------------------

    def submit_conf(self, method: str, arg: Any):
        """Generator serving one conflicting call at the leader."""
        group = self.coordination.sync_group(method)
        mu = self.mu_groups[group.gid]
        if mu.leader != self.name:
            self.probe.count("rejections", "not_leader")
            raise NotLeaderError(method, mu.leader)
        done = self.env.event()
        self.conf_queues[group.gid].put((method, arg, done))
        result = yield done
        if isinstance(result, Exception):
            raise result
        return result

    def _conf_worker(self, gid: str):
        """Serializes conflicting calls of one group at the leader."""
        queue = self.conf_queues[gid]
        mu = self.mu_groups[gid]
        cfg = self.config
        applier = self.applier
        while True:
            item = yield queue.get()
            method, arg, done, call, retries = (
                item if len(item) == 5 else (*item, None, 0)
            )
            if self.is_failed():
                done.succeed(SubmitError(f"node {self.name} has failed"))
                continue
            if mu.leader != self.name:
                done.succeed(NotLeaderError(method, mu.leader))
                continue
            if call is None:
                yield self.rnode.cpu.hold(runtime_config.LOCAL_CPU_US)
                call = applier.make_call(method, arg)
            post_sigma = self.spec.apply_call(call, applier.sigma)
            if not applier.permits(call, applier.sigma, post_sigma):
                # Not (yet) permissible: its dependencies may still be
                # in flight toward this leader (Fig. 11b/13b).  Other
                # calls of the group must not head-block behind it —
                # the leader is free to order any enabled call first —
                # so requeue it and move on.
                if retries >= cfg.conf_retry_limit:
                    self.probe.count("rejections", "impermissible")
                    done.succeed(
                        ImpermissibleError(f"{call} violates the invariant")
                    )
                else:
                    self.probe.count("conflict_retries", gid)
                    yield self.env.timeout(CONF_RETRY_US)
                    queue.put((method, arg, done, call, retries + 1))
                continue
            # Accepted speculatively: no local state changes until the
            # decision commits (a deposed leader's failed replication
            # must leave no trace; see docs/protocols.md).
            overlay = {(self.name, method): 1}
            dep = applier.dep_projection(method)
            try:
                packet = self.codec.encode_call_batch([(call, dep)])
            except Exception as exc:
                done.succeed(SubmitError(f"cannot encode {call}: {exc}"))
                continue
            if len(packet) > MAX_RECORD_PAYLOAD:
                done.succeed(
                    SubmitError(
                        f"record of {len(packet)} bytes exceeds ring slots"
                    )
                )
                continue
            entries = [(call, dep)]
            dones = [(done, call)]
            spec_sigma = post_sigma
            # Piggyback more queued calls onto the same decision (one
            # remote write carries the whole batch when conf_batch > 1).
            while len(entries) < cfg.conf_batch:
                available, extra = queue.try_get()
                if not available:
                    break
                accepted = yield from self._try_accept_conf(
                    queue, extra, entries, spec_sigma, overlay, gid
                )
                if accepted in ("requeued", "full"):
                    # Do not spin pulling the same call back out of the
                    # queue within one batch round.
                    break
                if accepted is not None:
                    entries.append(accepted[0])
                    dones.append(accepted[1])
                    packet = accepted[2]
                    spec_sigma = accepted[3]
            # Commit point: the L-xfer events mark the issue instant, so
            # every follower application orders after them in the trace.
            posted = self._l_labels[gid][0]
            for batched_call, _dep in entries:
                self.probe.span_begin(
                    "decide", batched_call.method, batched_call.origin,
                    batched_call.rid,
                )
                self.probe.trace_transfer(
                    posted, batched_call.method, batched_call.origin,
                    batched_call.rid, len(packet),
                )
            ok = yield from mu.replicate(packet)
            for batched_call, _dep in entries:
                self.probe.span_end(
                    "decide", batched_call.method, batched_call.origin,
                    batched_call.rid,
                )
            if ok:
                # Conflict-free calls the poller applied meanwhile all
                # S-commute with this batch, so re-applying the batch on
                # the evolved state is exactly the decided execution.
                for batched_call, _dep in entries:
                    applier.sigma = self.spec.apply_call(
                        batched_call, applier.sigma
                    )
                    applier.bump_applied(self.name, batched_call.method)
                    applier.mark_seen(batched_call.key())
                    # CONF counts and traces at *commit* time: a deposed
                    # leader's failed batch leaves no rule event, so the
                    # checkers replay only decided calls.
                    self.probe.trace_apply(
                        "CONF", batched_call.method, batched_call.origin,
                        batched_call.rid, batched_call.arg,
                    )
                self.probe.count("conflict_batches", gid)
                self.probe.peak("conflict_batch_max", gid, len(entries))
            elif not mu.is_leader and mu.leader == self.name:
                # Deposed without having voted (e.g. cut off by a
                # partition): learn who leads now so redirects point
                # somewhere useful instead of back at us.
                yield from self.discover_leader(gid)
            for waiting, batched_call in dones:
                if ok:
                    waiting.succeed(batched_call)
                else:
                    waiting.succeed(
                        NotLeaderError(batched_call.method, mu.leader)
                        if not mu.is_leader
                        else SubmitError("replication failed")
                    )

    def _try_accept_conf(self, queue: Store, item, entries, spec_sigma,
                         overlay, gid: str):
        """Accept one queued conflicting call into the current batch.

        Speculative: permissibility is checked on ``spec_sigma`` (the
        batch's evolving state) and dependency counts on ``overlay``,
        with no node-state mutation — the worker commits the whole batch
        only after replication succeeds.

        Returns ``((call, dep), (done, call), packet, post_sigma)`` on
        success, ``"requeued"`` when the call must wait (put back),
        ``"full"`` when it does not fit this batch's record, or None
        when it was rejected with an error.
        """
        cfg = self.config
        applier = self.applier
        method, arg, done, call, retries = (
            item if len(item) == 5 else (*item, None, 0)
        )
        if call is None:
            yield self.rnode.cpu.hold(runtime_config.LOCAL_CPU_US)
            call = applier.make_call(method, arg)
        post_sigma = self.spec.apply_call(call, spec_sigma)
        if not applier.permits(call, spec_sigma, post_sigma):
            if retries >= cfg.conf_retry_limit:
                self.probe.count("rejections", "impermissible")
                done.succeed(
                    ImpermissibleError(f"{call} violates the invariant")
                )
                return None
            self.probe.count("conflict_retries", gid)
            queue.put((method, arg, done, call, retries + 1))
            return "requeued"
        dep = applier.dep_projection(method, overlay)
        try:
            packet = self.codec.encode_call_batch(entries + [(call, dep)])
        except Exception as exc:
            done.succeed(SubmitError(f"cannot encode {call}: {exc}"))
            return None
        if len(packet) > MAX_RECORD_PAYLOAD:
            # Record full: leave the call for the next decision.
            queue.put((method, arg, done, call, retries))
            return "full"
        overlay[(self.name, method)] = overlay.get((self.name, method), 0) + 1
        return (call, dep), (done, call), packet, post_sigma

    # -- L-ring drain ----------------------------------------------------

    def drain_l(self, gid: str, waited_us: float = 0.0):
        """Apply conflicting records, which may be leader-side batches.

        A consumed ring record expands into the partial queue; entries
        are applied strictly in order, blocking at the first whose
        dependencies are unsatisfied — exactly the per-call semantics,
        with the batch only changing the wire framing.  A sweep that
        finds the head empty and applied nothing runs the repairer's
        hole detection (``waited_us`` is the poller's wait since its
        previous sweep).
        """
        if self.mu_groups[gid].is_leader:
            # Only our own decided records land in a leader's log copy
            # (kept as the repair source); they are applied at commit.
            return False
        repairer = self.l_repairers[gid]
        reader = repairer.reader
        applier = self.applier
        progressed = False
        drained = 0
        partial = self._l_partial[gid]
        posted, label = self._l_labels[gid]
        while True:
            if not partial:
                try:
                    run = reader.peek_run(1)
                except RingCorruptionError as corrupt:
                    # A checksummed log record failed CRC: quarantine
                    # and refetch it in place of this sweep — the head
                    # record blocks the buffer either way.
                    yield from repairer.refetch(corrupt.index)
                    break
                if not run:
                    if not progressed:
                        progressed = yield from repairer.detect(waited_us)
                    break
                try:
                    partial.extend(self.codec.decode_call_batch(run[0]))
                except WireError:
                    # A CRC-valid record the codec rejects: a writer
                    # bug.  Skip the record rather than crash the
                    # drain; the offline checker flags the resulting
                    # divergence.
                    self.probe.count("wire_rejects", posted)
                reader.advance()
                continue
            call, dep = partial[0]
            if applier.has_seen(call.key()):
                partial.popleft()
                continue
            if not applier.dep_ok(dep):
                break
            self.probe.trace_transfer(
                label, call.method, call.origin, call.rid, 0
            )
            yield from applier.apply(call, "CONF_APP")
            partial.popleft()
            drained += 1
            progressed = True
        if drained:
            self.probe.count("records_drained", label, drained)
            repairer.waited = 0.0
        return progressed

    # -- leader change ---------------------------------------------------

    def on_demoted(self, gid: str) -> None:
        """This node just stopped leading ``gid``: rejoin as follower.

        As leader it applied its decided records at commit (its own L
        ring only holds them as a repair source and was never drained),
        so the ring reader fast-forwards to ``decided`` and a fill copies
        any records it missed from healthy peers' log copies.
        """
        mu = self.mu_groups[gid]
        repairer = self.l_repairers[gid]
        reader = repairer.reader
        reader.head = max(reader.head, mu.decided)
        self.probe.count("demotions", gid)
        self.spawn(repairer.fill(reader.head), f"rejoin:{self.name}:{gid}")

    def discover_leader(self, gid: str):
        """Ask reachable peers who currently leads ``gid``.

        Armed as *authoritative*: a rejoining node's failed campaigns
        may have inflated its term past the cluster's real one, and the
        usual stale-reply guard would then reject the truth — leaving
        the old leader's write permission in place forever (the L-ring
        partitioned-minority bug).  See
        :meth:`~repro.consensus.mu.MuGroup.expect_authoritative_leader`.
        """
        self.mu_groups[gid].expect_authoritative_leader()
        for peer in self.processes:
            if peer == self.name or self.is_suspected(peer):
                continue
            yield from self.control_send(peer, ("who_leads", gid))
        # Replies arrive through the control listener, which updates
        # the Mu group's view; give them one control round trip.
        yield self.env.timeout(3.0)

    # -- membership ------------------------------------------------------

    def add_member(self, name: str) -> None:
        """Elastic scale-out: grow every group's membership."""
        if name in self.processes:
            return
        self.processes = sorted([*self.processes, name])
        for mu in self.mu_groups.values():
            mu.add_member(name)

    def remove_member(self, name: str) -> None:
        """Elastic scale-in: shrink every group's membership."""
        if name not in self.processes:
            return
        self.processes.remove(name)
        for mu in self.mu_groups.values():
            mu.remove_member(name)

    def handle_suspect(self, peer: str) -> None:
        """Campaign for any group the suspected peer was leading.

        Every live candidate arms a staggered campaign loop, ranked by
        name order: rank 0 campaigns immediately (the healthy-path
        behaviour), rank k waits k extra stagger units and only runs if
        the group is *still* led by the suspect — so a crashed first
        candidate no longer strands the group leaderless.
        """
        for gid, mu in self.mu_groups.items():
            if mu.leader == peer:
                candidates = [
                    p
                    for p in self.processes
                    if p != peer and not self.is_suspected(p)
                ]
                if self.name in candidates:
                    rank = candidates.index(self.name)
                    self.env.process(
                        self._campaign_loop(gid, peer, rank),
                        name=f"campaign:{self.name}:{gid}",
                    )

    def _campaign_loop(self, gid: str, suspect: str, rank: int):
        """Staggered, retrying election driver for one suspicion event."""
        mu = self.mu_groups[gid]

        def resolved() -> bool:  # elected / recovered / we died
            return (
                mu.leader != suspect
                or not self.is_suspected(suspect)
                or self.is_failed()
                or not self.rnode.alive
            )

        if rank:
            yield self.env.timeout(
                rank * (consensus.mu.VOTE_TIMEOUT_US + CAMPAIGN_STAGGER_US)
            )
        for _attempt in range(CAMPAIGN_RETRY_LIMIT):
            if resolved():
                return
            won = yield from mu.campaign(set(self.suspected()))
            if won or mu.leader != suspect:
                return
            yield self.env.timeout(CAMPAIGN_RETRY_US)
        if not resolved():
            # Every attempt lost and the suspect still leads: surface
            # the give-up instead of leaving the group silently unled.
            self.probe.giveup("campaign", suspect, gid)
