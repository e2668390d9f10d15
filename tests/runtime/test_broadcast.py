"""Unit tests for RDMA reliable broadcast."""

import pytest

from repro.rdma import Access, Fabric
from repro.runtime import ReliableBroadcast
from repro.runtime.broadcast import BACKUP_SIZE
from repro.sim import Environment


@pytest.fixture
def setup():
    env = Environment()
    fabric = Fabric.build(env, 3)
    endpoints = {
        name: ReliableBroadcast(fabric.nodes[name])
        for name in fabric.node_names()
    }
    targets = {}
    for name in fabric.node_names():
        targets[name] = fabric.nodes[name].register("inbox", 64)
    return env, fabric, endpoints, targets


def run_proc(env, gen):
    proc = env.process(gen)
    env.run()
    if not proc.ok:
        raise proc.value
    return proc.value


class TestBroadcast:
    def test_message_lands_at_all_targets(self, setup):
        env, fabric, endpoints, targets = setup
        source = fabric.nodes["p1"]

        def proc(env):
            writes = [
                (source.qp_to(peer), targets[peer], 0, b"payload!")
                for peer in ("p2", "p3")
            ]
            results = yield from endpoints["p1"].broadcast(b"payload!", writes)
            return results

        results = run_proc(env, proc(env))
        assert all(wc.ok for wc in results)
        assert targets["p2"].read(0, 8) == b"payload!"
        assert targets["p3"].read(0, 8) == b"payload!"

    def test_backup_cleared_after_success(self, setup):
        env, fabric, endpoints, targets = setup
        source = fabric.nodes["p1"]

        def proc(env):
            writes = [(source.qp_to("p2"), targets["p2"], 0, b"m")]
            yield from endpoints["p1"].broadcast(b"m", writes)

        run_proc(env, proc(env))

        def fetch(env):
            result = yield from endpoints["p2"].fetch_backup_of("p1")
            return result

        assert run_proc(env, fetch(env)) is None

    def test_backup_readable_while_in_flight(self, setup):
        """The agreement window: backup holds the message mid-broadcast."""
        env, fabric, endpoints, targets = setup
        source = fabric.nodes["p1"]
        observed = []

        def sender(env):
            writes = [(source.qp_to("p2"), targets["p2"], 0, b"pending")]
            yield from endpoints["p1"].broadcast(b"pending", writes)

        def prober(env):
            yield env.timeout(0.3)  # mid-flight
            result = yield from endpoints["p3"].fetch_backup_of("p1")
            observed.append(result)

        env.process(sender(env))
        env.process(prober(env))
        env.run()
        assert observed == [b"pending"]

    def test_crashed_source_leaves_recoverable_backup(self, setup):
        env, fabric, endpoints, targets = setup
        # Simulate a crash mid-broadcast: backup written, writes never sent.
        endpoints["p1"]._write_backup(b"orphan")
        fabric.nodes["p1"].crash()
        # p1's region memory survives for remote reads in our model only
        # if the node is alive; a full crash loses it.  Recover instead
        # from the suspended-heartbeat case: node alive, thread stopped.
        fabric.nodes["p1"].recover()

        def fetch(env):
            result = yield from endpoints["p2"].fetch_backup_of("p1")
            return result

        assert run_proc(env, fetch(env)) == b"orphan"

    def test_fetch_from_crashed_node_returns_none(self, setup):
        env, fabric, endpoints, _targets = setup
        endpoints["p1"]._write_backup(b"lost")
        fabric.nodes["p1"].crash()

        def fetch(env):
            result = yield from endpoints["p2"].fetch_backup_of("p1")
            return result

        assert run_proc(env, fetch(env)) is None

    def test_oversized_message_rejected(self, setup):
        env, _fabric, endpoints, _targets = setup
        with pytest.raises(ValueError, match="exceeds"):
            endpoints["p1"]._write_backup(b"x" * (BACKUP_SIZE + 1))

    def test_backup_kept_when_write_abandoned_unsuspected(self, setup):
        """Regression: giving up on a LIVE (un-suspected) peer must NOT
        clear the backup slot — the message is possibly half-delivered
        and the backup is what lets survivors finish the delivery."""
        env, fabric, endpoints, targets = setup
        source = fabric.nodes["p1"]
        fabric.cut_link("p1", "p2")  # p2 unreachable but NOT suspected

        def proc(env):
            writes = [
                (source.qp_to(peer), targets[peer], 0, b"half")
                for peer in ("p2", "p3")
            ]
            results = yield from endpoints["p1"].broadcast(
                b"half", writes,
                is_suspected=lambda peer: False,
                max_retries=2, retry_us=1.0,
            )
            return results

        run_proc(env, proc(env))
        # p3 (reachable) got the message; p2 did not.
        assert targets["p3"].read(0, 4) == b"half"
        assert targets["p2"].read(0, 4) != b"half"

        def fetch(env):
            result = yield from endpoints["p3"].fetch_backup_of("p1")
            return result

        assert run_proc(env, fetch(env)) == b"half"

    def test_backup_kept_without_suspicion_oracle(self, setup):
        """No oracle to consult: a failed write abandons immediately and
        the backup must stay recoverable."""
        env, fabric, endpoints, targets = setup
        source = fabric.nodes["p1"]
        fabric.cut_link("p1", "p2")

        def proc(env):
            writes = [(source.qp_to("p2"), targets["p2"], 0, b"orphaned")]
            yield from endpoints["p1"].broadcast(b"orphaned", writes)

        run_proc(env, proc(env))

        def fetch(env):
            result = yield from endpoints["p3"].fetch_backup_of("p1")
            return result

        assert run_proc(env, fetch(env)) == b"orphaned"

    def test_backup_cleared_when_failed_peer_is_suspected(self, setup):
        """Crash-stop: a suspected peer is owed nothing, so a broadcast
        that only failed toward suspects completes and clears its
        backup."""
        env, fabric, endpoints, targets = setup
        source = fabric.nodes["p1"]
        fabric.cut_link("p1", "p2")

        def proc(env):
            writes = [
                (source.qp_to(peer), targets[peer], 0, b"done")
                for peer in ("p2", "p3")
            ]
            yield from endpoints["p1"].broadcast(
                b"done", writes,
                is_suspected=lambda peer: peer == "p2",
            )

        run_proc(env, proc(env))

        def fetch(env):
            result = yield from endpoints["p3"].fetch_backup_of("p1")
            return result

        assert run_proc(env, fetch(env)) is None
