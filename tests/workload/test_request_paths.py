"""The client request paths: the simulated schedule they produce, the
process-free query path, and the drivers' inline first attempt."""

import hashlib
import json
import math

import pytest

from repro.core import Category, QueryDef
from repro.datatypes import (
    bankmap_spec,
    counter_spec,
    courseware_spec,
    gset_spec,
)
from repro.runtime import (
    HambandCluster,
    ImpermissibleError,
    NotLeaderError,
    ShardedCluster,
    SubmitError,
    TxnCoordinator,
)
from repro.runtime.applier import QUERY_CPU_US
from repro.sim import Environment, Event, Process
from repro.workload import (
    DriverConfig,
    OpenLoopConfig,
    ShardedDriverConfig,
    run_open_loop,
    run_sharded_workload,
    run_workload,
)


def canonical(value):
    """A JSON form of a replica state independent of set/dict order."""
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(v) for v in value), key=repr)
    if isinstance(value, dict):
        return sorted(
            ([canonical(k), canonical(v)] for k, v in value.items()),
            key=repr,
        )
    return value


def schedule_digest(result, cluster) -> str:
    return hashlib.sha256(json.dumps([
        result.latency.samples, canonical(cluster.effective_states()),
    ]).encode()).hexdigest()


def sharded_schedule_digest(result, sharded) -> str:
    states = {
        f"s{index}/{name}": state
        for index, shard in enumerate(sharded.shards)
        for name, state in shard.effective_states().items()
    }
    return hashlib.sha256(json.dumps([
        result.latency.samples, canonical(states),
    ]).encode()).hexdigest()


class TestSchedulePin:
    """Every latency sample and final state of small runs on one-core
    nodes, where requests contend for the CPU.

    The three seed-1 constants were recorded before queries, CPU
    charges and the drivers' first attempt stopped being processes; the
    seed-3 open-loop ones before thinned arrivals stopped being timers
    and admitted requests stopped being processes.  Moving a request's
    events to other ``(time, seq)`` slots changes them.
    """

    def test_gset_mostly_queries(self):
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), 4, cpu_cores=1)
        result = run_workload(env, cluster, DriverConfig(
            workload="gset", total_ops=800, update_ratio=0.05, seed=1,
            clients_per_node=3,
        ))
        assert schedule_digest(result, cluster) == GSET_READ_DIGEST

    def test_courseware_half_updates(self):
        env = Environment()
        cluster = HambandCluster.build(
            env, courseware_spec(), 4, cpu_cores=1
        )
        result = run_workload(env, cluster, DriverConfig(
            workload="courseware", total_ops=400, update_ratio=0.5, seed=1,
            clients_per_node=2,
        ))
        assert schedule_digest(result, cluster) == COURSEWARE_DIGEST

    def test_counter_flash_crowd_open_loop(self):
        env = Environment()
        cluster = HambandCluster.build(env, counter_spec(), 4, cpu_cores=1)
        result = run_open_loop(env, cluster, OpenLoopConfig(
            workload="counter", offered_load_ops_per_us=3.0,
            duration_us=300.0, update_ratio=0.5, seed=1,
            arrival_curve="flash-crowd", n_sessions=1000, n_tenants=4,
        ))
        assert schedule_digest(result, cluster) == COUNTER_SERVE_DIGEST

    @pytest.mark.parametrize(
        ("workload", "spec", "curve", "load", "per_tenant"),
        [
            ("counter", counter_spec, "steady", 3.0, 0),
            ("counter", counter_spec, "burst", 3.0, 0),
            ("counter", counter_spec, "diurnal", 3.0, 0),
            # 865 arrivals shed by the per-tenant cap.
            ("counter", counter_spec, "flash-crowd", 6.0, 2),
            # Leader-bound CONF calls through the redirect path.
            ("courseware", courseware_spec, "flash-crowd", 1.0, 0),
            ("gset", gset_spec, "burst", 2.0, 0),
        ],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_open_loop_curves(self, workload, spec, curve, load,
                              per_tenant):
        """Recorded while every admitted request was its own process
        and every thinned candidate its own timer."""
        env = Environment()
        cluster = HambandCluster.build(env, spec(), 4, cpu_cores=1)
        result = run_open_loop(env, cluster, OpenLoopConfig(
            workload=workload, offered_load_ops_per_us=load,
            duration_us=300.0, update_ratio=0.5, seed=3,
            arrival_curve=curve, n_sessions=1000, n_tenants=4,
            max_outstanding_per_tenant=per_tenant,
        ))
        # ``replicated_us`` pins where the drain handed over to quiesce.
        assert (
            schedule_digest(result, cluster), result.replicated_us,
            result.dropped_arrivals,
        ) == OPEN_LOOP_PINS[(workload, curve, load)]

    def test_sharded_bank_coordinator(self):
        """Transactions through the coordinator's per-call redirect
        loop: withdraws chase their shard's leader.  Recorded before
        the coordinator shared the drivers' redirect policy."""
        env = Environment()
        sharded = ShardedCluster.build(
            env, bankmap_spec(), n_shards=2, n_nodes=4, cpu_cores=1,
        )
        result = run_sharded_workload(
            env, sharded, TxnCoordinator(sharded),
            ShardedDriverConfig(total_txns=320, txn_mix=0.2, seed=1),
        )
        assert (
            sharded_schedule_digest(result, sharded), result.replicated_us,
        ) == SHARDED_BANK_PIN


GSET_READ_DIGEST = (
    "7e97f0a556b3186a9c11b96e7c0a2392c932004db3ec6d35322d0b793d469c74"
)
COURSEWARE_DIGEST = (
    "fe1ec4c27000238e538d0faa19ab84f9367462d90ef1cf674f07c7c962616f81"
)
COUNTER_SERVE_DIGEST = (
    "33c7e2c7abda155435dd131f1788ce4ccb9e6f2c29774f29286a1993ea1bd356"
)
SHARDED_BANK_PIN = (
    "6d73391c4b083db19809d490d58172f4205dc4b8d5b767b2c1385bf296d27408",
    456.1513999999976,
)
OPEN_LOOP_PINS = {
    ("counter", "steady", 3.0): (
        "199477d8e1a65864e98af3524e09034831c7aec752760da07ef8562c7e42ad42",
        300.49299799359005, 0),
    ("counter", "burst", 3.0): (
        "235abb7a34b69d7841f04198f923249487e5a4544c6deddea6729fde58a6248b",
        310.33147812282203, 0),
    ("counter", "diurnal", 3.0): (
        "aafcf0a803b75a9c0264c85fffa74fc765a9f4561600930242a8c491ce761b06",
        310.20330670454257, 0),
    ("counter", "flash-crowd", 6.0): (
        "a6cf1b145d4f71157b26df5ceee712e2dee59294a42340a96ee9139d9505ed79",
        310.0995965644054, 865),
    ("courseware", "flash-crowd", 1.0): (
        "dece7072350420ca3fda95efe02e5ead510c77c21546f8552e87bc2f14bdd888",
        538.2557005616889, 0),
    ("gset", "burst", 2.0): (
        "91504a1e090a6467441368165ff32b2c20acb62a2c73e21a593777554b29d2d1",
        300.03542741752995, 0),
}


@pytest.fixture
def gset_cluster():
    env = Environment()
    cluster = HambandCluster.build(env, gset_spec(), 3, cpu_cores=1)
    return env, cluster, cluster.node(cluster.node_names()[0])


class TestQueryPath:
    def test_query_is_a_plain_event(self, gset_cluster):
        env, _cluster, node = gset_cluster
        request = node.submit("size")
        assert type(request) is Event
        assert not isinstance(request, Process)
        assert env.run(until=request) == 0

    def test_query_behind_a_busy_cpu_waits_fifo(self, gset_cluster):
        env, _cluster, node = gset_cluster
        cost = QUERY_CPU_US
        blocker = node.rnode.cpu.hold(5.0)
        first = node.submit("size")
        second = node.submit("elements")
        done = []
        first.callbacks.append(lambda ev: done.append(("first", env.now)))
        second.callbacks.append(lambda ev: done.append(("second", env.now)))
        env.run(until=second)
        assert blocker.processed
        assert [tag for tag, _ in done] == ["first", "second"]
        assert done[0][1] >= 5.0 + cost
        assert done[1][1] >= done[0][1] + cost

    def test_failing_query_fails_the_event_for_the_client(
        self, gset_cluster
    ):
        env, _cluster, node = gset_cluster

        def boom(_arg, _state):
            raise ValueError("query blew up")

        node.applier.spec.queries["size"] = QueryDef("size", boom)

        def client():
            try:
                yield node.submit("size")
            except ValueError as exc:
                return str(exc)

        seen = env.process(client())
        assert env.run(until=seen) == "query blew up"
        assert node.failures == []


# -- the drivers' inline first attempt ---------------------------------------


class _StubNode:
    """Serves each call after 1 us, or fails it per ``script``: one
    exception (or None) per call, then success."""

    def __init__(self, env, name, script=(), leader=None):
        self.env = env
        self.name = name
        self.script = list(script)
        self.leader = leader or name
        self.calls = 0

    def current_leader(self, _method):
        return self.leader

    def submit(self, method, arg=None):
        self.calls += 1
        error = self.script.pop(0) if self.script else None
        if error is None:
            return self.env.timeout(1.0)
        return self.env.event().fail(error)


class _StubCoordination:
    def __init__(self, spec, conflicting=()):
        self.spec = spec
        self.conflicting = set(conflicting)

    def category(self, method):
        if method in self.conflicting:
            return Category.CONFLICTING
        return Category.IRREDUCIBLE_CONFLICT_FREE


class _StubCluster:
    """``clients`` get a client each; ``nodes`` may hold more (a leader
    nobody is pointed at directly)."""

    def __init__(self, env, nodes, clients, conflicting=()):
        self.env = env
        self.nodes = nodes
        self.clients = clients
        self.coordination = _StubCoordination(gset_spec(), conflicting)

    def node_names(self):
        return list(self.clients)

    def node(self, name):
        return self.nodes[name]

    def quiesce(self, _target, timeout_us=0.0):
        yield self.env.timeout(0)
        return self.env.now


def _closed(cluster, **config):
    return run_workload(cluster.env, cluster, DriverConfig(
        workload="gset", update_ratio=1.0, seed=1, **config,
    ))


def _open(cluster, **overrides):
    config = dict(
        workload="gset", offered_load_ops_per_us=0.05, duration_us=400.0,
        update_ratio=1.0, seed=1, n_sessions=8,
    )
    config.update(overrides)
    return run_open_loop(cluster.env, cluster, OpenLoopConfig(**config))


class TestInlineFirstSubmit:
    def test_closed_loop_submit_error_waits_once(self):
        env = Environment()
        node = _StubNode(env, "p0", [SubmitError("mid-failover")])
        result = _closed(_StubCluster(env, {"p0": node}, ["p0"]),
                         total_ops=1)
        assert node.calls == 2
        assert result.latency.samples == [51.0]
        assert result.update_calls == 1

    def test_closed_loop_impermissible_is_rejected(self):
        env = Environment()
        node = _StubNode(env, "p0", [ImpermissibleError("no")] * 3)
        result = _closed(_StubCluster(env, {"p0": node}, ["p0"]),
                         total_ops=3)
        assert node.calls == 3
        assert result.rejected_calls == 3
        assert result.update_calls == 0

    def test_closed_loop_leader_bound_follows_the_redirect(self):
        env = Environment()
        follower = _StubNode(env, "p1", [NotLeaderError("add", "p0")])
        leader = _StubNode(env, "p0")
        result = _closed(
            _StubCluster(env, {"p0": leader, "p1": follower}, ["p1"],
                         conflicting={"add"}),
            total_ops=1,
        )
        assert (follower.calls, leader.calls) == (1, 1)
        assert result.latency.samples == [1.0]

    def test_open_loop_submit_error_waits_once(self):
        env = Environment()
        node = _StubNode(env, "p0", [SubmitError("mid-failover")])
        result = _open(_StubCluster(env, {"p0": node}, ["p0"]))
        assert result.total_calls > 1
        assert node.calls == result.total_calls + 1
        slowest = sorted(result.latency.samples)[-2:]
        assert slowest == pytest.approx([1.0, 51.0])

    def test_open_loop_impermissible_is_rejected(self):
        env = Environment()
        node = _StubNode(env, "p0", [ImpermissibleError("no")] * 1000)
        result = _open(_StubCluster(env, {"p0": node}, ["p0"]))
        assert node.calls == result.total_calls > 0
        assert result.rejected_calls == result.total_calls

    def test_open_loop_leader_bound_follows_the_redirect(self):
        env = Environment()
        follower = _StubNode(env, "p1", [NotLeaderError("add", "p0")] * 1000)
        leader = _StubNode(env, "p0")
        result = _open(_StubCluster(
            env, {"p0": leader, "p1": follower}, ["p1"], conflicting={"add"},
        ))
        assert follower.calls == leader.calls == result.total_calls > 0
        samples = result.latency.samples
        assert samples == pytest.approx([1.0] * len(samples))


class _CatchingUpNode(_StubNode):
    """A campaign winner still catching up: until ``leads_at`` it names
    the old leader and redirects every call there."""

    def __init__(self, env, name, old_leader, leads_at):
        super().__init__(env, name)
        self.old_leader = old_leader
        self.leads_at = leads_at

    def current_leader(self, _method):
        if self.env.now < self.leads_at:
            return self.old_leader
        return self.name

    def submit(self, method, arg=None):
        if self.env.now < self.leads_at:
            self.calls += 1
            return self.env.event().fail(
                NotLeaderError(method, self.old_leader)
            )
        return super().submit(method, arg)


class TestRedirectDuringLeaderChange:
    def test_redirect_to_a_node_that_does_not_lead_yet_waits(self):
        """The old leader already names the candidate, the candidate
        still names the old leader: the client waits out the catch-up
        instead of burning its 50 redirects in no sim time."""
        env = Environment()
        old = _StubNode(env, "p0", leader="p1")
        candidate = _CatchingUpNode(env, "p1", "p0", leads_at=200.0)
        result = _closed(
            _StubCluster(env, {"p0": old, "p1": candidate}, ["p0"],
                         conflicting={"add"}),
            total_ops=1,
        )
        assert result.rejected_calls == 0
        assert candidate.calls == 5  # at t = 0, 50, 100, 150 and 200
        assert result.latency.samples == [201.0]


def _never_leading(env):
    """A client pointed at ``p0``, which names ``p1`` as leader, while
    ``p1`` never takes over and redirects every call back."""
    old = _StubNode(env, "p0", leader="p1")
    candidate = _CatchingUpNode(env, "p1", "p0", leads_at=math.inf)
    return _StubCluster(env, {"p0": old, "p1": candidate}, ["p0"],
                        conflicting={"add"})


class TestRedirectGiveUps:
    def test_closed_loop_counts_every_give_up(self):
        env = Environment()
        result = _closed(_never_leading(env), total_ops=3)
        assert result.total_calls == 3
        assert result.redirect_giveups == 3
        assert result.rejected_calls == 3
        assert result.update_calls == 0
        assert "[3 redirect give-ups]" in result.summary_row()

    def test_open_loop_counts_every_give_up(self):
        env = Environment()
        result = _open(_never_leading(env))
        assert result.total_calls > 0
        assert result.redirect_giveups == result.total_calls
        assert result.rejected_calls == result.total_calls
        assert result.update_calls == 0

    @pytest.mark.parametrize("loop", ["closed", "open"])
    def test_a_query_that_gives_up_is_rejected(self, loop):
        env = Environment()
        node = _StubNode(env, "p0", [SubmitError("mid-failover")] * 10_000)
        cluster = _StubCluster(env, {"p0": node}, ["p0"])
        if loop == "closed":
            result = run_workload(env, cluster, DriverConfig(
                workload="gset", update_ratio=0.0, seed=1, total_ops=2,
            ))
        else:
            result = _open(cluster, update_ratio=0.0)
        assert result.total_calls > 0
        assert result.redirect_giveups == result.total_calls
        assert result.rejected_calls == result.total_calls

    def test_healthy_run_prints_no_give_ups(self):
        env = Environment()
        result = _open(_StubCluster(env, {"p0": _StubNode(env, "p0")},
                                    ["p0"]))
        assert result.redirect_giveups == 0
        assert "give-up" not in result.summary_row()


class _SilentNode(_StubNode):
    """Accepts every call and never answers it."""

    def submit(self, method, arg=None):
        self.calls += 1
        return self.env.event()


class _BrokenNode(_StubNode):
    """Fails every call with an error that is not a SubmitError."""

    def submit(self, method, arg=None):
        self.calls += 1
        return self.env.event().fail(ValueError("node bug"))


class TestOpenLoopEnd:
    def test_drain_gives_up_after_the_quiesce_timeout(self):
        env = Environment()
        node = _SilentNode(env, "p0")
        with pytest.raises(TimeoutError) as raised:
            _open(_StubCluster(env, {"p0": node}, ["p0"]),
                  quiesce_timeout_us=1_000.0)
        assert node.calls > 0
        assert f"{node.calls} still outstanding" in str(raised.value)
        # The last arrival lands just past 400 us; then one bounded wait.
        assert 1_400.0 <= env.now < 1_500.0

    @pytest.mark.parametrize("conflicting", [(), ("add",)])
    def test_an_unexpected_error_propagates(self, conflicting):
        """Raised on the callback path and in the redirect process."""
        env = Environment()
        node = _BrokenNode(env, "p0")
        with pytest.raises(ValueError, match="node bug"):
            _open(_StubCluster(env, {"p0": node}, ["p0"],
                               conflicting=set(conflicting)))
