"""Tests for leader-side decision batching (conf_batch > 1)."""

import pytest

from repro.core import Call
from repro.datatypes import account_spec, courseware_spec, movie_spec
from repro.rdma import Opcode
from repro.runtime import HambandCluster, RuntimeConfig, TraceRecorder
from repro.runtime.wire import WireCodec
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload

CODEC = WireCodec()


class TestBatchWireFormat:
    def test_roundtrip(self):
        entries = [
            (Call("a", 1, "p1", 1), {("p1", "x"): 2}),
            (Call("b", "arg", "p1", 2), {}),
        ]
        encoded = CODEC.encode_call_batch(entries)
        assert CODEC.decode_call_batch(encoded) == entries

    def test_empty_batch(self):
        assert CODEC.decode_call_batch(CODEC.encode_call_batch([])) == []


def build_recorded(spec, conf_batch, n=3):
    env = Environment()
    recorder = TraceRecorder(env)
    cluster = HambandCluster.build(
        env, spec, n_nodes=n, config=RuntimeConfig(conf_batch=conf_batch),
        probe_factory=recorder.probe_factory,
    )
    return env, cluster, recorder


def build(spec, conf_batch, n=3):
    return build_recorded(spec, conf_batch, n)[:2]


class TestBatchedExecution:
    def test_burst_of_conflicting_calls_converges(self):
        env, cluster, recorder = build_recorded(movie_spec(), conf_batch=8)
        leader = cluster.node("p1").current_leader("addCustomer")
        requests = [
            cluster.node(leader).submit("addCustomer", f"c{i}")
            for i in range(10)
        ]
        for request in requests:
            env.run(until=request)
        env.run(until=env.now + 400)
        assert cluster.converged()
        cluster.check_refinement(recorder.events(), recorder.dropped())

    def test_batching_reduces_log_writes(self):
        """A burst decided in batches posts fewer L-ring writes."""

        def writes_for(conf_batch):
            env, cluster = build(movie_spec(), conf_batch=conf_batch)
            leader = cluster.node("p1").current_leader("addCustomer")
            before = cluster.fabric.stats.ops[Opcode.WRITE]
            requests = [
                cluster.node(leader).submit("addCustomer", f"c{i}")
                for i in range(12)
            ]
            for request in requests:
                env.run(until=request)
            env.run(until=env.now + 300)
            assert cluster.converged()
            return cluster.fabric.stats.ops[Opcode.WRITE] - before

        assert writes_for(conf_batch=8) < writes_for(conf_batch=1)

    def test_batched_run_still_refines(self):
        env, cluster, recorder = build_recorded(account_spec(), conf_batch=4)
        result = run_workload(
            env,
            cluster,
            DriverConfig(workload="account", total_ops=240, update_ratio=0.6),
        )
        assert cluster.converged()
        abstract = cluster.check_refinement(recorder.events(), recorder.dropped())
        assert abstract.integrity_holds()

    def test_dependencies_respected_within_batches(self):
        """courseware: enroll batched right behind its addCourse still
        applies in order at followers."""
        env, cluster, recorder = build_recorded(
            courseware_spec(), conf_batch=8
        )
        result = run_workload(
            env,
            cluster,
            DriverConfig(
                workload="courseware", total_ops=400, update_ratio=0.6
            ),
        )
        assert cluster.converged()
        assert cluster.integrity_holds()
        abstract = cluster.check_refinement(recorder.events(), recorder.dropped())
        assert abstract.integrity_holds()

    def test_impermissible_call_does_not_poison_batch(self):
        env, cluster = build(
            account_spec(), conf_batch=4
        )
        env.run(until=cluster.node("p2").submit("deposit", 10))
        leader = cluster.node("p1").current_leader("withdraw")
        good1 = cluster.node(leader).submit("withdraw", 3)
        bad = cluster.node(leader).submit("withdraw", 1000)
        good2 = cluster.node(leader).submit("withdraw", 4)
        env.run(until=good1)
        env.run(until=good2)
        env.run(until=env.now + 2500)  # let the bad one exhaust retries
        assert cluster.converged()
        assert cluster.effective_states()[leader] == 3
