"""Elastic membership: epochs plus the join/leave rewiring protocol.

The paper's protocol assumes a fixed replica set; the production
north-star does not.  This module adds joint membership change on top
of Mu and the state-transfer engine:

- :class:`MembershipEpoch` — the versioned member list.  Every change
  advances the version; the epoch is wire-coded with the cluster codec
  and each node carries its current view in the ``membership`` section
  of ``HambandNode.stats()``.
- :func:`join_cluster` — scale-out.  The new node is added to the
  fabric (all-to-all RC mesh plus the per-group Mu channels), every
  live member rewires its four layers for the extra peer
  (:meth:`~repro.runtime.node.HambandNode.add_peer`: F ring + ack
  regions and reader/writer state, summary slots, failure-detector
  polling, a control listener, Mu membership with write permission
  denied), and the joiner is handed the cluster's one codec — its own
  name rides the codec's inline escape, so a joiner never perturbs the
  interned string table the founders agreed on.  The joiner starts
  ``failed`` (requests redirected away) and flips live only after a
  :class:`~repro.runtime.statexfer.StateTransfer` pass installs the
  committed prefix under the frontier barrier — the SAME engine
  restarts and partition heals use.
- :func:`leave_cluster` — scale-in.  The departing node is stopped
  (fail-stop), every remaining member unwires it (writers dropped,
  readers kept so landed records still drain, detector pinned to
  *suspected* so repair-source filters and campaign guards treat it as
  gone, Mu membership shrunk so majorities adjust), and removing a
  group leader triggers the standard staggered re-election.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..consensus.mu import mu_channel
from .node import HambandNode
from .statexfer import StateTransfer

__all__ = ["MembershipEpoch", "join_cluster", "leave_cluster"]


@dataclass(frozen=True)
class MembershipEpoch:
    """A versioned member list: the unit of membership agreement."""

    version: int
    members: tuple[str, ...]

    def advance(self, members) -> "MembershipEpoch":
        """The next epoch over ``members`` (any iterable of names)."""
        return MembershipEpoch(self.version + 1, tuple(sorted(members)))

    def encode(self, codec) -> bytes:
        """Wire-code the epoch with the cluster codec."""
        return codec.encode_value(("M", self.version, list(self.members)))

    @classmethod
    def decode(cls, codec, payload: bytes) -> "MembershipEpoch":
        value = codec.decode_value(payload)
        if not value or value[0] != "M":
            raise ValueError(f"not a membership epoch record: {value!r}")
        _tag, version, members = value
        return cls(int(version), tuple(members))


def _live_node(cluster) -> HambandNode:
    """Any live, serving member — the observer for leader views and
    the probe that records the membership trace event."""
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        if node.rnode.alive and not node.failed:
            return node
    # Degenerate (everything failed): fall back to any member so the
    # bookkeeping still happens; the checkers will flag the run anyway.
    return cluster.nodes[sorted(cluster.nodes)[0]]


def _stamp_epoch(cluster) -> None:
    for node in cluster.nodes.values():
        node.membership_epoch = cluster.epoch.version


def join_cluster(cluster, name: str, cpu_cores: int = 2,
                 transfer: bool = True) -> HambandNode:
    """Add ``name`` to a running cluster; returns the new node.

    ``transfer=False`` skips the state transfer entirely — the
    negative control (a joiner flipped live without the authoritative
    transfer is provably behind; the chaos checkers catch it).
    """
    if name in cluster.fabric.nodes:
        raise ValueError(f"node {name!r} already exists")
    fabric = cluster.fabric
    coordination = cluster.coordination
    fabric.add_node(name, cpu_cores=cpu_cores)
    fabric.connect_all()
    for group in coordination.sync_groups():
        fabric.connect_all(channel=mu_channel(group.gid))
    observer = _live_node(cluster)
    leaders = {
        gid: observer.conflict.leader_of(gid)
        for gid in observer.conflict.mu_groups
    }
    # Rewire every existing member for the extra peer.
    for node in cluster.nodes.values():
        node.add_peer(name)
    processes = sorted([*cluster.nodes, name])
    joiner = HambandNode(
        fabric.nodes[name],
        coordination,
        processes,
        leaders,
        cluster.config,
        probe=(
            cluster.probe_factory(name) if cluster.probe_factory else None
        ),
        # Wire parity: the joiner shares the cluster's codec (its table
        # is the founders'); its own name encodes via the inline escape.
        codec=cluster.codec,
    )
    # Mirror of the cluster-construction tail: the joiner is never the
    # leader of an existing group, and non-leaders must hold no write
    # permission on its Mu log QPs.
    for group in coordination.sync_groups():
        gid = group.gid
        leader = leaders[gid]
        for peer in processes:
            if peer in (name, leader):
                continue
            fabric.nodes[name].qp_to(
                peer, mu_channel(gid)
            ).revoke_peer_write()
    #: Not serving until the transfer completes: requests are refused
    #: (redirected by drivers) exactly as for a failed node.
    joiner.failed = True
    cluster.nodes[name] = joiner
    cluster.epoch = cluster.epoch.advance(cluster.nodes)
    _stamp_epoch(cluster)
    observer.probe.member_event(
        "member_join", name, f"epoch={cluster.epoch.version}"
    )

    def go_live():
        if transfer:
            yield from StateTransfer(joiner).run(reason="join")
        else:
            yield joiner.env.timeout(0.0)
        joiner.failed = False

    joiner._spawn_supervised(go_live(), f"join:{name}")
    return joiner


def leave_cluster(cluster, name: str) -> HambandNode:
    """Remove ``name`` from a running cluster; returns the departed
    node (kept in ``cluster.departed`` — its at-rest ring copies stay
    readable history, never silently reused)."""
    if name not in cluster.nodes:
        raise ValueError(f"no node {name!r} in the cluster")
    if len(cluster.nodes) <= 1:
        raise ValueError("cannot remove the last member")
    departed = cluster.nodes.pop(name)
    cluster.departed[name] = departed
    led = [
        gid
        for gid, mu in departed.conflict.mu_groups.items()
        if mu.leader == name
    ]
    # Fail-stop the departing node: it refuses requests, its heartbeat
    # goes silent, and its fabric endpoint stops serving.
    departed.failed = True
    departed.heartbeat.suspend()
    departed.broadcast.halted = True
    cluster.fabric.nodes[name].crash()
    for node in cluster.nodes.values():
        node.remove_peer(name)
    cluster.epoch = cluster.epoch.advance(cluster.nodes)
    _stamp_epoch(cluster)
    observer = _live_node(cluster)
    observer.probe.member_event(
        "member_leave", name, f"epoch={cluster.epoch.version}"
    )
    if led:
        # Removing a leader forces a clean re-election: the standard
        # staggered campaign machinery runs against the shrunk
        # membership (majorities already adjusted by remove_peer).
        for node in cluster.nodes.values():
            node.conflict.handle_suspect(name)
    return departed
