"""Tests for reader-ack flow control and writer backpressure."""

import pytest

from repro.datatypes import account_spec, gset_spec
from repro.runtime import HambandCluster
from repro.sim import Environment


@pytest.fixture(autouse=True)
def slow_reader(monkeypatch):
    """Every reader polls lazily, so a small ring overruns."""
    monkeypatch.setattr("repro.runtime.config.POLL_INTERVAL_US", 20.0)
    monkeypatch.setattr("repro.runtime.applier.POLL_HOT_US", 5.0)


@pytest.fixture
def tiny_rings(monkeypatch):
    """A deliberately small ring, acknowledged every two slots."""
    monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 8)
    monkeypatch.setattr("repro.runtime.config.ACK_EVERY", 2)


class TestBackpressure:
    @pytest.mark.usefixtures("tiny_rings")
    def test_burst_larger_than_ring_completes_without_loss(self):
        """24 records through an 8-slot ring: the writer must pace
        itself on the reader's acks instead of lapping it."""
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        requests = [
            cluster.node("p1").submit("add", f"e{i}") for i in range(24)
        ]
        for request in requests:
            env.run(until=request)
        env.run(until=env.now + 3000)
        assert cluster.converged()
        states = set(cluster.effective_states().values())
        assert states == {frozenset(f"e{i}" for i in range(24))}

    @pytest.mark.usefixtures("tiny_rings")
    def test_backpressure_shows_up_as_latency_not_corruption(self):
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        durations = []
        for i in range(24):
            start = env.now
            env.run(until=cluster.node("p1").submit("add", f"e{i}"))
            durations.append(env.now - start)
        env.run(until=env.now + 3000)
        assert cluster.converged()
        # Early submissions fly; later ones wait for reader drain.
        assert max(durations[10:]) > min(durations[:4])

    @pytest.mark.usefixtures("tiny_rings")
    def test_conflicting_log_backpressure(self):
        """The Mu log applies the same pacing toward follower rings."""
        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=3)
        env.run(until=cluster.node("p2").submit("deposit", 1000))
        leader = cluster.node("p1").current_leader("withdraw")
        requests = [
            cluster.node(leader).submit("withdraw", 1) for _ in range(24)
        ]
        for request in requests:
            env.run(until=request)
        env.run(until=env.now + 5000)
        assert cluster.converged()
        assert cluster.effective_states()[leader] == 1000 - 24

    @pytest.mark.usefixtures("tiny_rings")
    def test_suspected_reader_does_not_wedge_writer(self, monkeypatch):
        """A dead reader stops acking; the writer must fall back to
        ring-sizing mode instead of blocking forever."""
        monkeypatch.setattr(
            "repro.runtime.transport.BACKPRESSURE_WAIT_US", 5.0
        )
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        cluster.crash("p3")
        env.run(until=env.now + 2000)  # let p1 suspect p3
        requests = [
            cluster.node("p1").submit("add", f"e{i}") for i in range(24)
        ]
        for request in requests:
            env.run(until=request)
        env.run(until=env.now + 3000)
        survivors = ["p1", "p2"]
        states = {
            n: cluster.node(n).effective_state() for n in survivors
        }
        assert states["p1"] == states["p2"]
        assert len(states["p1"]) == 24

    @pytest.mark.usefixtures("tiny_rings")
    def test_flow_control_rearms_after_partition_heals(self, monkeypatch):
        """Regression: the ack fallback must not be permanent.

        When a peer is partitioned away the writer falls back to
        ring-sizing mode (``reader_acked = None``) and — with a tiny
        ring — laps the cut-off reader.  After the partition heals the
        reader must detect the lap loudly, resync to the writer's
        surviving window, and start acking again; the writer must then
        re-arm ack-paced flow control from the first fresh ack instead
        of free-running against that reader forever.  (Records
        overwritten during the cut are lost to the lapped reader — the
        runtime sizes rings against that — so survivors converge on
        everything while the healed node converges from the resync
        point onward.)"""
        monkeypatch.setattr(
            "repro.runtime.transport.BACKPRESSURE_WAIT_US", 5.0
        )
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        cluster.partition(["p1", "p2"], ["p3"])
        env.run(until=env.now + 2000)  # p1 suspects p3
        requests = [
            cluster.node("p1").submit("add", f"e{i}") for i in range(24)
        ]
        for request in requests:
            env.run(until=request)
        env.run(until=env.now + 1000)
        writer = cluster.node("p1").transport.f_writers["p3"]
        assert writer.reader_acked is None  # fell back as designed
        cluster.heal()
        env.run(until=env.now + 6000)  # clear suspicion + resync
        for i in range(24, 36):
            env.run(until=cluster.node("p1").submit("add", f"e{i}"))
        env.run(until=env.now + 3000)
        assert writer.reader_acked is not None, (
            "flow control never re-armed after heal"
        )
        probe_p1 = cluster.node("p1").stats()["probe"]
        assert probe_p1.get("flow_rearms", {}).get("F->p3", 0) >= 1
        probe_p3 = cluster.node("p3").stats()["probe"]
        assert probe_p3.get("ring_resyncs", {}).get("F:p1", 0) >= 1
        # Re-armed means throttled again: the writer's lead over the
        # reader's acks is bounded by the ring size once more.
        assert writer.tail - writer.reader_acked <= 8
        assert not cluster.failures()  # the lap never crashed a worker
        # Survivors hold everything; the healed node is live again and
        # holds at least the writer's surviving window.
        everything = frozenset(f"e{i}" for i in range(36))
        states = cluster.effective_states()
        assert states["p1"] == states["p2"] == everything
        assert frozenset(f"e{i}" for i in range(28, 36)) <= states["p3"]

    def test_big_rings_never_stall_the_writer(self):
        """A ring longer than the burst has credit for all of it: the
        writer never waits on an ack, lazy readers or not."""
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        for i in range(30):
            env.run(until=cluster.node("p1").submit("add", f"e{i}"))
        env.run(until=env.now + 1000)
        assert cluster.converged()
        probe = cluster.node("p1").stats()["probe"]
        assert sum(probe["backpressure_stalls"].values()) == 0
