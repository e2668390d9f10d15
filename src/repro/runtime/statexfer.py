"""Authoritative state transfer: one catch-up engine for every path.

Before this module existed the runtime had three half-overlapping
catch-up paths — the restart rejoin, the partition-heal resync, and the
summary pull — and the heal path had a real convergence bug: a minority
node partitioned across a leader change kept granting the *old* leader
write permission on the Mu log channels (permissions only flip on
``vote_req``/``leader_is`` control messages it never received), so
leader-ordered records decided after the heal bounced off it forever.

:class:`StateTransfer` unifies all of them.  One ``run()`` pass:

1. **Leader re-discovery** (``barrier=True``): ask reachable peers who
   leads each synchronization group.  The ``leader_is`` replies flow
   through Mu's control handler, which re-grants the current leader's
   write permission — this is what closes the L-ring gap.  The
   discovery is armed as *authoritative* (see
   :meth:`~repro.consensus.mu.MuGroup.expect_authoritative_leader`):
   a rejoining minority's failed campaigns may have inflated its term
   past the cluster's real one, and the guard that normally rejects
   older-term ``leader_is`` replies must not reject the truth.
2. **Bulk install of the committed at-rest prefix.**  For every source
   ring the worker walks from the local reader head and fills holes
   with *windowed* one-sided reads of an authoritative copy (the
   scrubber's read idiom — one ``qp.read`` covers up to
   :data:`_WINDOW` slots), falling back to the transport's per-slot
   multi-source repair for records the primary source lacks.  The
   leader-ordered L log is bulk-read the same way through Mu's
   ``self_repair`` (its windowed cache *is* the L bulk path), and
   summary slots are refreshed with the apply engine's pull.
3. **Frontier barrier** (``barrier=True``): the per-ring frontiers
   captured in step 2 become targets; the worker waits (bounded — it
   never wedges on a dependency that cannot arrive) until the node has
   *applied* up to every target before the caller flips it live.

``HambandNode.rejoin`` (restart), ``HambandNode._catch_up_from``
(partition heal / resync), and :func:`~repro.runtime.membership.
join_cluster` (elastic scale-out) all delegate here, so the three
lifecycles cannot drift again.
"""

from __future__ import annotations

from typing import Optional

from ..rdma import WcStatus
from .config import f_region

__all__ = ["StateTransfer"]

#: Ring slots fetched per one-sided read while bulk-filling (the
#: scrubber/Mu window idiom: bounded reads, not whole ring regions).
_WINDOW = 64


class StateTransfer:
    """One catch-up pass over a :class:`~repro.runtime.node.HambandNode`.

    The engine is deliberately stateless between runs: construct one
    per pass (``StateTransfer(node).run(...)``) and drive it as a
    simulation process.
    """

    def __init__(self, node):
        self.node = node

    # -- the pass --------------------------------------------------------

    def run(self, sources: Optional[list[str]] = None,
            barrier: bool = True, reason: str = "state-transfer"):
        """Generator: catch this node up from authoritative copies.

        ``sources`` restricts which peers' F rings (and summary slots)
        to transfer — the heal path passes the single peer that just
        cleared; None transfers from everyone (restart / join).
        ``barrier=False`` skips leader re-discovery and the frontier
        barrier (the negative-control knob: a joiner flipped live
        without the barrier is provably behind).  ``reason`` is the
        label counted in ``catch_ups`` — callers preserve the
        historical labels (peer name for heals, ``"restart"`` for
        rejoins, ``"join"`` for scale-out).  A barrier that times out
        is reported as an ``xfer_barrier`` give-up on ``reason``.
        """
        node = self.node
        transport = node.transport
        is_suspected = node.detector.is_suspected
        origins = list(sources) if sources is not None else list(
            transport.peers
        )
        if barrier:
            # Phase 1: re-learn who leads.  The replies re-grant the
            # current leader's Mu write permission at this node — the
            # partitioned-minority L-ring fix.
            for gid in node.conflict.mu_groups:
                yield from node.conflict.discover_leader(gid)
        # Phase 2: bulk-install the committed at-rest prefix.
        f_targets: dict[str, int] = {}
        for origin in origins:
            reader = transport.f_readers.get(origin)
            if reader is None:
                continue
            yield from self._fill_f_ring(origin)
            # Multi-source per-slot fallback for records the primary
            # source lacked (it may itself hold holes).
            yield from transport.repair_f_ring(origin, is_suspected)
            f_targets[origin] = reader.frontier()
        yield from node.applier.pull_summaries(sources)
        l_targets: dict[str, int] = {}
        for gid, mu in node.conflict.mu_groups.items():
            if mu.leader == node.name:
                continue
            # Mu's self-repair is the L bulk path: windowed one-sided
            # reads of reachable log copies; it returns the frontier.
            l_targets[gid] = yield from mu.self_repair(
                set(node.detector.suspected)
            )
        if barrier:
            # Phase 3: wait (bounded) until the poll loop has APPLIED
            # everything installed above, so the caller flips the node
            # live at parity rather than merely in possession of bytes.
            reached = yield from self._frontier_barrier(f_targets, l_targets)
            if not reached:
                node.probe.giveup("xfer_barrier", reason)
        for origin in origins:
            transport.rearm_flow_control(origin)
        node.probe.count("catch_ups", reason)
        node.probe.member_event("state_xfer", node.name, reason)

    # -- phase 2 helpers -------------------------------------------------

    def _sources(self, origin: str) -> list[str]:
        """Live, unsuspected holders of ``origin``'s ring, preference
        order: the origin's own mirror is authoritative, then any
        peer's replica."""
        node = self.node
        candidates = [origin] + [
            p for p in node.transport.peers if p != origin
        ]
        return [
            source for source in candidates
            if source != node.name
            and not node.detector.is_suspected(source)
            and node.rnode.fabric.nodes[source].alive
        ]

    def _fill_f_ring(self, origin: str):
        """Windowed bulk fill of our copy of ``origin``'s F ring.

        Walks from the reader head; each missing local slot is served
        from a cached :data:`_WINDOW`-slot one-sided read of the chosen
        source.  Stops at the source's frontier (first index it lacks).
        Returns the number of installed records.
        """
        node = self.node
        transport = node.transport
        reader = transport.f_readers[origin]
        sources = self._sources(origin)
        if not sources:
            return 0
        source, backups = sources[0], sources[1:]
        installed = 0
        index = reader.head
        window: tuple[int, bytes] = (index, b"")
        for _ in range(reader.slots):
            if reader.record_at(index) is not None:
                index += 1
                continue
            if not reader.covers(*window, index):
                # Hedge each window to the lowest-latency backup
                # replica, so one limping source cannot serialize the
                # whole bulk transfer.  A backup holding fewer records
                # just ends the fill early — the per-slot multi-source
                # repair that follows in run() covers the remainder.
                wc, _src = yield from transport.hedged_read(
                    [source] + transport.health.rank(backups)[:1],
                    f_region(origin), *reader.window(index, _WINDOW),
                    label=f"xfer:{origin}",
                )
                if wc.status is not WcStatus.SUCCESS or wc.data is None:
                    return installed
                window = (index, wc.data)
            record = reader.record_in(*window, index)
            if record is None:
                return installed  # the source's frontier
            reader.region.write(reader.offset_of(index), record)
            installed += 1
            index += 1
        return installed

    # -- phase 3 ---------------------------------------------------------

    def _frontier_barrier(self, f_targets: dict[str, int],
                          l_targets: dict[str, int]):
        """Bounded wait until the node *applied* up to every target.

        The poll loop drains the installed records concurrently; this
        barrier only observes reader heads.  The deadline guarantees a
        record blocked on a dependency that can never arrive (e.g. a
        call lost with a crashed issuer) degrades to a late flip, not a
        wedge — the checkers gate the outcome either way.
        """
        node = self.node
        cfg = node.config
        transport = node.transport
        deadline = node.env.now + cfg.xfer_barrier_us
        while node.env.now < deadline:
            f_ok = all(
                transport.f_readers[origin].head >= target
                for origin, target in f_targets.items()
                if origin in transport.f_readers
            )
            l_ok = all(
                transport.l_readers[gid].head >= target
                for gid, target in l_targets.items()
                if gid in transport.l_readers
            )
            if f_ok and l_ok:
                return True
            yield node.env.timeout(cfg.xfer_poll_us)
        return False
