"""The closed-loop workload driver (paper §5 "Platform and setup").

One client per node issues requests back to back.  Update calls are
drawn from the data type's generator and spread uniformly; calls on
conflicting methods are redirected to the current leader, exactly as
the paper's harness does ("calls on conflicting methods are
automatically redirected to the corresponding leader node(s); all the
other calls including conflict-free and query calls are divided equally
between the nodes").  Queries interleave per the update ratio.

The driver works unchanged against :class:`HambandCluster`, the SMR
deployment (same class, all-conflicting coordination), and the
message-passing baseline (duck-typed: no leaders there).

Failure injection: ``fail_node``/``fail_at_fraction`` suspends a node's
heartbeat partway through the run and redirects its client's remaining
requests to the next available node — the paper's §5 methodology.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core import Category
from ..runtime.cluster import submit_redirected
from ..runtime.errors import ImpermissibleError, SubmitError
from ..sim import Environment
from .generators import (
    bank_accounts,
    make_generator,
    make_txn_generator,
    setup_calls,
    sharded_setup_calls,
)
from .metrics import LatencySeries, RunResult

__all__ = [
    "DriverConfig",
    "ShardedDriverConfig",
    "run_sharded_workload",
    "run_workload",
]


@dataclass
class DriverConfig:
    workload: str  # generator/spec name
    total_ops: int = 1200
    update_ratio: float = 0.25
    seed: int = 1
    system_label: str = "hamband"
    #: Closed-loop concurrency: how many independent clients each node
    #: serves (the paper uses several client threads per node).
    clients_per_node: int = 1
    #: Suspend this node's heartbeat (None = no failure injection)...
    fail_node: Optional[str] = None
    #: ...once this fraction of each client's ops has been issued.
    fail_at_fraction: float = 0.3
    quiesce_timeout_us: float = 5_000_000.0


def run_workload(env: Environment, cluster: Any,
                 config: DriverConfig) -> RunResult:
    """Drive ``cluster`` to completion and return measurements.

    Runs the simulation to quiescence internally; the environment must
    be the one the cluster was built on.
    """
    names = cluster.node_names()
    state = _RunState()
    coordination = getattr(cluster, "coordination", None)

    # Prologue: create referenced rows, outside the measured window.
    prologue = setup_calls(config.workload)
    if prologue:
        done = env.process(
            _run_prologue(env, cluster, names, prologue, state)
        )
        env.run(until=done)
        if not done.ok:
            raise done.value

    start = env.now
    n_clients = len(names) * config.clients_per_node
    per_client = config.total_ops // n_clients
    clients = [
        env.process(
            _client(
                env,
                cluster,
                coordination,
                name,
                per_client,
                config,
                state,
                client_index=index,
            ),
            name=f"client:{name}:{index}",
        )
        for name in names
        for index in range(config.clients_per_node)
    ]
    for client in clients:
        env.run(until=client)
        if not client.ok:
            raise client.value
    target = state.base_updates + state.succeeded_updates
    quiesce = env.process(
        cluster.quiesce(target, timeout_us=config.quiesce_timeout_us)
    )
    replicated_at = env.run(until=quiesce)
    crashed = getattr(cluster, "failures", lambda: [])()
    if crashed:
        raise RuntimeError(f"background workers crashed: {crashed}")
    return RunResult(
        system=config.system_label,
        workload=config.workload,
        n_nodes=len(names),
        total_calls=state.total_calls,
        update_calls=state.succeeded_updates,
        rejected_calls=state.rejected,
        start_us=start,
        replicated_us=replicated_at,
        latency=state.latency,
        per_method=state.per_method,
        redirect_giveups=state.giveups,
    )


@dataclass
class _RunState:
    total_calls: int = 0
    succeeded_updates: int = 0
    base_updates: int = 0  # prologue updates, excluded from metrics
    rejected: int = 0
    giveups: int = 0
    latency: LatencySeries = field(default_factory=LatencySeries)
    per_method: dict[str, LatencySeries] = field(default_factory=dict)

    def record(self, method: str, elapsed: float) -> None:
        self.latency.add(elapsed)
        series = self.per_method.get(method)
        if series is None:
            series = self.per_method[method] = LatencySeries()
        series.add(elapsed)


def _run_prologue(env, cluster, names, prologue, state):
    for i, (method, arg) in enumerate(prologue):
        node = cluster.node(names[i % len(names)])
        yield from submit_redirected(env, cluster, node, method, arg)
        state.base_updates += 1
    # Let the prologue replicate before measuring.
    yield env.timeout(200.0)


def _client(env, cluster, coordination, name, n_ops, config, state,
            client_index=0):
    # Distinct per-client stream identity keeps causal tags (OR-set,
    # cart) and LWW tiebreaks unique across a node's clients.
    rng_stream = make_generator(
        config.workload, config.seed, f"{name}#{client_index}"
    )
    rng = random.Random(f"{config.seed}:mix:{name}:{client_index}")
    # Hoisted out of the per-op loop: the spec's method sets and each
    # method's category are fixed for the run.
    spec = _spec_of(cluster)
    updates = spec.updates
    queries = tuple(spec.query_names())
    leader_bound = _leader_bound_methods(spec, coordination)
    current = name
    fail_after = (
        int(n_ops * config.fail_at_fraction)
        if config.fail_node is not None
        else None
    )
    names = cluster.node_names()
    for i in range(n_ops):
        if (
            fail_after is not None
            and i == fail_after
            and name == names[0]
            and client_index == 0
        ):
            cluster.suspend_heartbeat(config.fail_node)
        if config.fail_node is not None and current == config.fail_node:
            # Redirect to the next available node (paper §5).
            alive = [n for n in names if n != config.fail_node]
            current = alive[names.index(name) % len(alive)]
        try:
            node = cluster.node(current)
        except KeyError:
            # The target scaled in mid-run (elastic membership): move
            # this client to a remaining node, like the fail redirect.
            remaining = cluster.node_names()
            current = remaining[names.index(name) % len(remaining)]
            node = cluster.node(current)
        if rng.random() < config.update_ratio:
            method, arg = next(rng_stream)
        else:
            method, arg = queries[rng.randrange(len(queries))], None
        issued_at = env.now
        if method in leader_bound or getattr(node, "failed", False):
            ok, _ = yield from submit_redirected(
                env, cluster, node, method, arg, method in leader_bound
            )
        else:
            try:
                yield node.submit(method, arg)
                ok = True
            except ImpermissibleError:
                ok = False
            except SubmitError as error:
                ok, _ = yield from submit_redirected(
                    env, cluster, node, method, arg, error=error
                )
        state.total_calls += 1
        state.record(method, env.now - issued_at)
        if ok:
            if method in updates:
                state.succeeded_updates += 1
        else:
            state.rejected += 1
            if ok is None:
                state.giveups += 1


def _spec_of(cluster):
    """The data-type spec a cluster coordinates (duck-typed)."""
    coordination = getattr(cluster, "coordination", None)
    return coordination.spec if coordination is not None else cluster.spec


def _leader_bound_methods(spec, coordination) -> frozenset:
    """The update methods whose calls chase their group's leader —
    resolved once per client, since a method's category is fixed."""
    if coordination is None:
        return frozenset()
    return frozenset(
        method for method in spec.updates
        if coordination.category(method) is Category.CONFLICTING
    )


# -- sharded (keyed, transactional) workloads -------------------------------


@dataclass
class ShardedDriverConfig:
    """The cross-shard bank workload (SafarDB-style txn mix).

    A fixed pool of clients issues transactions against a
    :class:`~repro.runtime.ShardedCluster` of ``bankmap`` shards via a
    :class:`~repro.runtime.TxnCoordinator`.  ``txn_mix`` splits the
    stream between all-commuting payroll deposits (fire-and-forget)
    and transfers whose withdraw constituent takes the ordered
    lock/commit path.  The client pool is held constant across shard
    counts, so throughput differences come from the topology, not the
    offered concurrency.

    Issuance is a bounded-outstanding open loop: each client keeps up
    to ``max_outstanding`` transactions in flight before awaiting the
    oldest.  That is the point of commutativity-driven commits — a
    client need not await an all-commuting txn before issuing the
    next — and it keeps throughput replication-limited rather than
    issuance-latency-limited.  ``max_outstanding=1`` recovers the
    strict closed loop.
    """

    total_txns: int = 300
    txn_mix: float = 0.0
    seed: int = 1
    system_label: str = "hamband"
    workload_label: str = "sharded-bank"
    clients: int = 16
    max_outstanding: int = 8
    #: Pin accounts round-robin across shards (a pre-partitioned
    #: keyspace, as a real bank would provision).  Off leaves placement
    #: to the consistent-hash ring, whose statistical skew over a few
    #: dozen keys lets the hottest shard dominate the scaling curve.
    pin_accounts: bool = True
    accounts_per_shard: int = 8
    initial_balance: int = 200
    payroll_ops: int = 2
    quiesce_timeout_us: float = 5_000_000.0


def run_sharded_workload(env: Environment, sharded, coordinator,
                         config: ShardedDriverConfig) -> RunResult:
    """Drive ``sharded`` through ``coordinator`` to completion.

    Routes the prologue and every constituent call by key, tracks
    per-shard update targets from the coordinator's issue receipts, and
    quiesces every shard — the paper's replication-complete throughput
    condition, per shard.  ``total_calls`` counts constituent calls
    (not transactions) so throughput stays comparable with the
    single-cluster driver's ops/us.
    """
    state = _RunState()
    accounts = bank_accounts(
        config.accounts_per_shard * sharded.n_shards
    )
    if config.pin_accounts:
        for index, account in enumerate(accounts):
            sharded.router.pin(account, index % sharded.n_shards)
    #: Per-shard applied-update targets for quiesce.
    targets = {index: 0 for index in range(sharded.n_shards)}

    prologue = env.process(
        _sharded_prologue(env, sharded, accounts, config, targets)
    )
    env.run(until=prologue)
    if not prologue.ok:
        raise prologue.value

    start = env.now
    per_client = max(1, config.total_txns // config.clients)
    clients = [
        env.process(
            _txn_client(
                env, coordinator, accounts, per_client, config, state,
                targets, index,
            ),
            name=f"txn-client:{index}",
        )
        for index in range(config.clients)
    ]
    for client in clients:
        env.run(until=client)
        if not client.ok:
            raise client.value
    quiesce = env.process(
        sharded.quiesce(targets, timeout_us=config.quiesce_timeout_us)
    )
    replicated_at = env.run(until=quiesce)
    crashed = sharded.failures()
    if crashed:
        raise RuntimeError(f"background workers crashed: {crashed}")
    return RunResult(
        system=config.system_label,
        workload=config.workload_label,
        n_nodes=len(sharded.node_names()),
        total_calls=state.total_calls,
        update_calls=state.succeeded_updates,
        rejected_calls=state.rejected,
        start_us=start,
        replicated_us=replicated_at,
        latency=state.latency,
        per_method=state.per_method,
    )


def _sharded_prologue(env, sharded, accounts, config, targets):
    """Open and fund every account on its own shard (outside the
    measured window), bumping that shard's quiesce target."""
    for key, method, arg in sharded_setup_calls(
        accounts, initial_balance=config.initial_balance
    ):
        shard_index = sharded.shard_of(key)
        shard = sharded.shard(shard_index)
        node = shard.node(shard.node_names()[0])
        yield from submit_redirected(env, shard, node, method, arg)
        targets[shard_index] += 1
    # Let the prologue replicate before measuring.
    yield env.timeout(200.0)


def _txn_client(env, coordinator, accounts, n_txns, config, state,
                targets, client_index):
    stream = make_txn_generator(
        config.seed, f"client{client_index}", accounts,
        txn_mix=config.txn_mix, payroll_ops=config.payroll_ops,
    )
    from ..runtime import TxnOp

    window = max(1, config.max_outstanding)
    pending: deque = deque()
    for _ in range(n_txns):
        kind, ops = next(stream)
        proc = coordinator.submit(
            TxnOp(key, method, arg) for key, method, arg in ops
        )
        pending.append((proc, env.now, kind, len(ops)))
        if len(pending) >= window:
            yield from _await_txn(env, pending.popleft(), state, targets)
    while pending:
        yield from _await_txn(env, pending.popleft(), state, targets)


def _await_txn(env, entry, state, targets):
    proc, issued_at, kind, n_ops = entry
    outcome = yield proc
    state.total_calls += n_ops
    state.record(f"txn:{kind}", env.now - issued_at)
    state.succeeded_updates += len(outcome.issued)
    state.rejected += outcome.rejected
    for shard_index, _method, _origin, _rid in outcome.issued:
        targets[shard_index] += 1
