"""Authoritative state transfer: one catch-up engine for every path.

Before this module existed the runtime had three half-overlapping
catch-up paths — the restart rejoin, the partition-heal resync, and the
summary pull — and the heal path had a real convergence bug: a minority
node partitioned across a leader change kept granting the *old* leader
write permission on the Mu log channels (permissions only flip on
``vote_req``/``leader_is`` control messages it never received), so
leader-ordered records decided after the heal bounced off it forever.

:class:`StateTransfer` unifies all of them.  One ``run()`` pass:

1. **Leader re-discovery**: ask reachable peers who leads each
   synchronization group.  The ``leader_is`` replies flow through Mu's
   control handler, which re-grants the current leader's write
   permission — this is what closes the L-ring gap.  The discovery is
   armed as *authoritative* (see
   :meth:`~repro.consensus.mu.MuGroup.expect_authoritative_leader`):
   a rejoining minority's failed campaigns may have inflated its term
   past the cluster's real one, and the guard that normally rejects
   older-term ``leader_is`` replies must not reject the truth.
2. **Bulk install of the committed at-rest prefix.**  Every source
   ring — each requested peer's F ring and each L log this node
   follows — is brought up to its authoritative prefix by one
   :meth:`~repro.runtime.transport.RingRepairer.fill` from the local
   reader head, which returns the ring's frontier; summary slots are
   refreshed with the apply engine's pull.
3. **Frontier barrier**: the per-ring frontiers captured in step 2
   become targets; the worker waits (bounded — it never wedges on a
   dependency that cannot arrive) until the node has *applied* up to
   every target before the caller flips it live.

``HambandNode.rejoin`` (restart), ``HambandNode._catch_up_from``
(partition heal / resync), and :func:`~repro.runtime.membership.
join_cluster` (elastic scale-out) all delegate here, so the three
lifecycles cannot drift again.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["StateTransfer"]

#: The frontier barrier polls applied progress this often and gives up
#: after ``XFER_BARRIER_US`` (see :meth:`StateTransfer._frontier_barrier`).
XFER_POLL_US = 5.0
XFER_BARRIER_US = 4000.0


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
            reason: str = "state-transfer"):
        """Generator: catch this node up from authoritative copies.

        ``sources`` restricts which peers' F rings (and summary slots)
        to transfer — the heal path passes the single peer that just
        cleared; None transfers from everyone (restart / join).
        ``reason`` is the label counted in ``catch_ups`` — callers
        preserve the historical labels (peer name for heals,
        ``"restart"`` for rejoins, ``"join"`` for scale-out).  A
        barrier that times out is reported as an ``xfer_barrier``
        give-up on ``reason``.
        """
        node = self.node
        transport = node.transport
        origins = list(sources) if sources is not None else list(
            transport.peers
        )
        # Phase 1: re-learn who leads.  The replies re-grant the
        # current leader's Mu write permission at this node — the
        # partitioned-minority L-ring fix.
        for gid in node.conflict.mu_groups:
            yield from node.conflict.discover_leader(gid)
        # Phase 2: bulk-install the committed at-rest prefix.
        f_targets: dict[str, int] = {}
        for origin in origins:
            repairer = transport.f_repairers.get(origin)
            if repairer is None:
                continue
            f_targets[origin], _ = yield from repairer.fill(
                repairer.reader.head
            )
        yield from node.applier.pull_summaries(sources)
        l_targets: dict[str, int] = {}
        for gid, mu in node.conflict.mu_groups.items():
            if mu.leader == node.name:
                continue
            repairer = node.conflict.l_repairers[gid]
            l_targets[gid], _ = yield from repairer.fill(
                repairer.reader.head
            )
        # Phase 3: wait (bounded) until the poll loop has APPLIED
        # everything installed above, so the caller flips the node live
        # at parity rather than merely in possession of bytes.
        reached = yield from self._frontier_barrier(f_targets, l_targets)
        if not reached:
            node.probe.giveup("xfer_barrier", reason)
        for origin in origins:
            transport.rearm_flow_control(origin)
        node.probe.count("catch_ups", reason)
        node.probe.member_event("state_xfer", node.name, reason)

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
        transport = node.transport
        deadline = node.env.now + XFER_BARRIER_US
        while node.env.now < deadline:
            f_ok = all(
                transport.f_readers[origin].head >= target
                for origin, target in f_targets.items()
            )
            l_ok = all(
                transport.l_readers[gid].head >= target
                for gid, target in l_targets.items()
            )
            if f_ok and l_ok:
                return True
            yield node.env.timeout(XFER_POLL_US)
        return False
