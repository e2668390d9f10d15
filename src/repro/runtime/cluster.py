"""Cluster orchestration: fabric wiring + node lifecycle + run checks.

``HambandCluster`` is the top of the public API: give it an
:class:`~repro.core.ObjectSpec` (or a pre-computed ``Coordination``)
and a node count, then drive it inside the simulation:

>>> from repro.sim import Environment
>>> from repro.datatypes import counter_spec
>>> from repro.runtime import HambandCluster
>>> env = Environment()
>>> cluster = HambandCluster.build(env, counter_spec(), n_nodes=3)
>>> response = cluster.node("p1").submit("add", 5)
>>> env.run(until=response)     # doctest: +ELLIPSIS
Call(...)
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Union

from ..consensus.mu import mu_channel
from ..core import (
    AbstractMachine,
    Coordination,
    GuardViolation,
    ObjectSpec,
    RefinementChecker,
    concrete_events,
)
from ..rdma import Fabric
from ..sim import Environment
from .errors import ImpermissibleError, NotLeaderError, SubmitError
from .membership import MembershipEpoch, join_cluster, leave_cluster
from .node import HambandNode, RuntimeConfig
from .probe import rollup_node_stats
from .wire import WireCodec

__all__ = ["HambandCluster", "submit_redirected"]

#: How long a redirected call waits before its next attempt while a
#: leader change or fail-over settles.
REDIRECT_WAIT_US = 50.0
#: How often :meth:`HambandCluster.quiesce` re-checks applied totals.
QUIESCE_POLL_US = 5.0


class HambandCluster:
    """All replicas of one Hamband object plus their fabric."""

    def __init__(self, env: Environment, coordination: Coordination,
                 fabric: Fabric, config: Optional[RuntimeConfig] = None,
                 leaders: Optional[dict[str, str]] = None,
                 probe_factory: Optional[Callable[[str], Any]] = None):
        self.env = env
        self.coordination = coordination
        self.fabric = fabric
        self.config = config or RuntimeConfig()
        self.probe_factory = probe_factory
        names = fabric.node_names()
        #: The founding member list, from which the codec's string table
        #: is derived.
        self.founding = list(names)
        #: The ONE wire codec of the cluster, shared by every node and
        #: handed to joiners, so elastic membership never perturbs
        #: interned ids mid-run (a joiner's name rides the inline
        #: escape) and each landed frame decodes once.
        self.codec = WireCodec.for_cluster(2, coordination, names)
        #: Nodes removed by scale-in, kept addressable for inspection.
        self.departed: dict[str, HambandNode] = {}
        self.epoch = MembershipEpoch(0, tuple(names))
        self.leaders = leaders or coordination.conflict_graph.assign_leaders(
            names
        )
        for group in coordination.sync_groups():
            fabric.connect_all(channel=mu_channel(group.gid))
        self.nodes: dict[str, HambandNode] = {
            name: HambandNode(
                fabric.nodes[name],
                coordination,
                names,
                self.leaders,
                self.config,
                probe=probe_factory(name) if probe_factory else None,
                codec=self.codec,
            )
            for name in names
        }
        # Non-leaders start with no write permission on the Mu channels,
        # exactly as Mu grants a single writer per log.
        for group in coordination.sync_groups():
            gid = group.gid
            leader = self.leaders[gid]
            for name in names:
                for peer in names:
                    if peer in (name, leader):
                        continue
                    host = fabric.nodes[name]
                    host.qp_to(peer, mu_channel(gid)).revoke_peer_write()

    @classmethod
    def build(cls, env: Environment,
              spec_or_coordination: Union[ObjectSpec, Coordination],
              n_nodes: int, config: Optional[RuntimeConfig] = None,
              cpu_cores: int = 2,
              leaders: Optional[dict[str, str]] = None,
              probe_factory: Optional[Callable[[str], Any]] = None,
              ) -> "HambandCluster":
        """Construct a fully wired n-node cluster (nodes p1..pn).

        ``probe_factory(name)`` may supply a custom
        :class:`~repro.runtime.probe.RuntimeProbe` per node (e.g. the
        no-op base class to run uninstrumented); by default every node
        installs its own :class:`~repro.runtime.probe.CountingProbe`.
        """
        if isinstance(spec_or_coordination, Coordination):
            coordination = spec_or_coordination
        else:
            coordination = Coordination.analyze(spec_or_coordination)
        fabric = Fabric.build(env, n_nodes, cpu_cores=cpu_cores)
        return cls(env, coordination, fabric, config=config, leaders=leaders,
                   probe_factory=probe_factory)

    # -- convenience -----------------------------------------------------------

    def node(self, name: str) -> HambandNode:
        return self.nodes[name]

    def node_names(self) -> list[str]:
        return sorted(self.nodes)

    def applied_totals(self) -> dict[str, int]:
        return {name: node.applied_total() for name, node in self.nodes.items()}

    def stats(self) -> dict[str, dict]:
        """Per-node runtime statistics plus a cluster-wide rollup.

        Node names map to ``HambandNode.stats()`` snapshots; the extra
        ``"cluster"`` key aggregates them (probe counters summed,
        high-water marks maxed, operation totals derived from the sums
        — see :func:`~repro.runtime.probe.rollup_node_stats`) so
        dashboards and tests don't re-implement the aggregation.
        """
        per_node = {name: node.stats() for name, node in self.nodes.items()}
        per_node["cluster"] = rollup_node_stats(per_node)
        return per_node

    def quiesce(self, total_updates: int, timeout_us: float = 1_000_000.0):
        """Process: wait until every node reflects ``total_updates`` calls.

        This is the paper's replication-complete condition used for
        throughput: total calls divided by the time at which all update
        calls are replicated on all nodes.
        """
        deadline = self.env.now + timeout_us
        while True:
            if all(
                node.applied_total() >= total_updates
                for node in self.nodes.values()
                # A heartbeat-suspended node counts as failed (the
                # paper's injection): peers may have revoked its log
                # permissions, so it legitimately lags.
                if node.rnode.alive and not node.heartbeat.suspended
            ):
                return self.env.now
            if self.env.now > deadline:
                raise TimeoutError(
                    f"cluster did not quiesce: {self.applied_totals()} "
                    f"vs expected {total_updates}"
                )
            yield self.env.timeout(QUIESCE_POLL_US)

    def effective_states(self) -> dict[str, Any]:
        return {
            name: node.effective_state() for name, node in self.nodes.items()
        }

    def converged(self) -> bool:
        states = list(self.effective_states().values())
        spec = self.coordination.spec
        return all(spec.state_eq(states[0], s) for s in states[1:])

    def integrity_holds(self) -> bool:
        spec = self.coordination.spec
        return all(
            spec.invariant(state)
            for state in self.effective_states().values()
        )

    def failures(self) -> list[str]:
        """Crashed background workers across the cluster (bugs)."""
        return [
            failure
            for node in self.nodes.values()
            for failure in node.failures
        ]

    def check_refinement(self, trace: Iterable[Any],
                         dropped: int = 0) -> AbstractMachine:
        """Replay this run against the abstract semantics (Lemma 3).

        The cluster keeps no log: pass ``recorder.events()`` and
        ``recorder.dropped()`` of the recorder whose ``probe_factory``
        built it.  A truncated trace, or one without a transition
        although nodes applied calls, raises rather than pass vacuously.
        """
        events = concrete_events(trace, dropped)
        if not events and any(self.applied_totals().values()):
            raise GuardViolation(
                "REPLAY",
                "the trace holds no transition but the cluster applied "
                "calls: build it with probe_factory=recorder.probe_factory",
            )
        checker = RefinementChecker(self.coordination, self.node_names())
        return checker.replay(events)

    # -- elastic membership ------------------------------------------------

    def add_node(self, name: str, cpu_cores: int = 2,
                 transfer: bool = True) -> HambandNode:
        """Scale-out: join ``name`` into the running cluster.

        The joiner starts refusing requests and flips live once its
        authoritative state transfer (the same engine restarts and heals
        use) completes under the frontier barrier.  See
        :func:`~repro.runtime.membership.join_cluster` for the knobs.
        """
        return join_cluster(
            self, name, cpu_cores=cpu_cores, transfer=transfer
        )

    def remove_node(self, name: str) -> HambandNode:
        """Scale-in: remove ``name`` (fail-stop + unwire + epoch bump);
        removing a group leader forces a clean re-election."""
        return leave_cluster(self, name)

    # -- failure injection -------------------------------------------------

    def suspend_heartbeat(self, name: str) -> None:
        """The paper's failure injection: the node stops serving (its
        requests get redirected to live nodes) and its silent heartbeat
        makes peers suspect it — while its registered memory stays
        remotely accessible, as RDMA failure semantics allow."""
        self.nodes[name].failed = True
        self.nodes[name].heartbeat.suspend()

    def crash(self, name: str) -> None:
        """Full fail-stop: heartbeat silent and RDMA unreachable.

        An in-flight reliable broadcast at the crashed node stops at its
        next step and leaves the backup slot set — exactly the half-
        delivered state the suspicion-driven recovery path repairs."""
        self.suspend_heartbeat(name)
        self.nodes[name].broadcast.halted = True
        self.fabric.nodes[name].crash()

    def restart(self, name: str, catch_up: bool = True) -> None:
        """Bring a crashed node back: fabric reachable, heartbeat
        beating, requests accepted again.

        With ``catch_up`` (the default) the node runs its supervised
        rejoin pass — re-discover leaders, repair every F ring and L log
        copy, refresh summary slots — so it converges with the cluster.
        ``catch_up=False`` deliberately skips recovery (the negative
        control for the trace checker: the restarted node stays behind
        and the run fails convergence)."""
        node = self.nodes[name]
        self.fabric.nodes[name].recover()
        node.broadcast.halted = False
        node.heartbeat.resume()
        node.failed = False
        if catch_up:
            node.start_rejoin()

    def partition(self, side_a: list[str], side_b: list[str]) -> None:
        """Cut every fabric link between the two sides."""
        self.fabric.partition(side_a, side_b)

    def heal(self) -> None:
        self.fabric.heal_all()


def submit_redirected(env: Environment, cluster: Any, node: Any,
                      method: str, arg: Any = None,
                      follow_leader: bool = False,
                      error: Optional[SubmitError] = None,
                      attempts: int = 50):
    """Submit at ``node``, following leader redirects: the paper's
    "conflicting calls are automatically redirected to the
    corresponding leader node(s)".  The one redirect policy of the
    closed loop, the open loop and the transaction coordinator.

    A generator returning ``(ok, value)``: ``ok`` is True once a node
    serves the call (``value`` is its response), False when it is
    refused as impermissible, and None when ``attempts`` run out.  A
    give-up reports ``giveup("redirect", method)`` to the probe of the
    node last addressed, if it has one.

    ``follow_leader`` marks a conflicting call: those wait out leader
    changes (paper §5: they "have to wait until the leader-change
    protocol elects the new leader").  ``error`` is the failure of a
    first attempt the caller made inline; the loop starts by handling
    it, so attempts and waits match a call that started here.

    ``cluster`` is duck-typed: ``node(name)``, raising ``KeyError`` for
    a node that is no longer a member, and ``node_names()``.
    """
    target = node
    for _attempt in range(attempts):
        if error is None:
            if getattr(target, "failed", False):
                # Crashed/failed node: the paper redirects its clients
                # to the live nodes rather than erroring out.
                live = [
                    name for name in cluster.node_names()
                    if not getattr(cluster.node(name), "failed", False)
                ]
                if live:
                    target = cluster.node(live[0])
            if follow_leader and hasattr(target, "current_leader"):
                leader = target.current_leader(method)
                try:
                    target = cluster.node(leader)
                except KeyError:
                    # The believed leader scaled in; wait out
                    # re-election.
                    yield env.timeout(REDIRECT_WAIT_US)
                    continue
            try:
                value = yield target.submit(method, arg)
                return True, value
            except ImpermissibleError:
                return False, None
            except SubmitError as exc:
                error = exc
        if isinstance(error, NotLeaderError):
            try:
                redirect = cluster.node(error.leader)
            except KeyError:
                yield env.timeout(REDIRECT_WAIT_US)  # a departed node
            else:
                if (redirect is target
                        or redirect.current_leader(method) != redirect.name):
                    # Mid leader change: the named node does not lead
                    # yet (or named itself), so hopping on would burn
                    # the attempts in no time.
                    yield env.timeout(REDIRECT_WAIT_US)
                target = redirect
        else:
            yield env.timeout(REDIRECT_WAIT_US)  # e.g. mid-failover
        error = None
    probe = getattr(target, "probe", None)
    if probe is not None:
        probe.giveup("redirect", method)
    return None, None
