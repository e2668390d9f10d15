"""Unit tests for queue-pair verbs over the simulated fabric."""

import pytest

from repro.rdma import Access, Fabric, Opcode, RdmaConfig, WcStatus
from repro.sim import Environment


@pytest.fixture
def cluster():
    env = Environment()
    fabric = Fabric.build(env, 2)
    return env, fabric


def run_proc(env, gen):
    proc = env.process(gen)
    env.run()
    if not proc.ok:
        raise proc.value
    return proc.value


class TestWrite:
    def test_one_sided_write_lands_remotely(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("slot", 32)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            completion = yield from qp.write(target, 0, b"payload")
            return completion

        completion = run_proc(env, proc(env))
        assert completion.ok
        assert target.read(0, 7) == b"payload"

    def test_write_takes_wire_plus_ack_time(self, cluster):
        env, fabric = cluster
        cfg = fabric.config
        target = fabric.nodes["p2"].register("slot", 32)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            yield from qp.write(target, 0, b"x")
            return env.now

        end = run_proc(env, proc(env))
        expected = (
            cfg.post_cpu_us + cfg.tx_time(1) + cfg.wire_us + cfg.ack_us
        )
        assert end == pytest.approx(expected)

    def test_data_visible_before_sender_completion(self, cluster):
        """The remote sees the write one ack before the sender's CQE."""
        env, fabric = cluster
        cfg = fabric.config
        target = fabric.nodes["p2"].register("slot", 32)
        qp = fabric.nodes["p1"].qp_to("p2")
        seen_at = []

        def observer(env):
            while not target.read(0, 1) != b"\x00":
                yield env.timeout(0.01)
            seen_at.append(env.now)

        def writer(env):
            yield from qp.write(target, 0, b"z")
            return env.now

        env.process(observer(env))
        w = env.process(writer(env))
        env.run()
        assert seen_at[0] < w.value

    def test_writes_on_one_qp_are_ordered(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("slot", 8)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            # Post both without waiting; RC applies them in order.
            first = qp.post_write(target, 0, b"AAAA")
            second = qp.post_write(target, 0, b"BBBB")
            yield first
            yield second

        run_proc(env, proc(env))
        assert target.read(0, 4) == b"BBBB"

    def test_write_to_wrong_owner_rejected(self, cluster):
        env, fabric = cluster
        own_region = fabric.nodes["p1"].register("mine", 8)
        qp = fabric.nodes["p1"].qp_to("p2")
        from repro.rdma import RdmaAccessError

        with pytest.raises(RdmaAccessError):
            qp.post_write(own_region, 0, b"x")

    def test_write_without_remote_write_flag_fails(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register(
            "ro", 8, access=Access.LOCAL | Access.REMOTE_READ
        )
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            completion = yield from qp.write(target, 0, b"x")
            return completion

        completion = run_proc(env, proc(env))
        assert completion.status is WcStatus.REMOTE_ACCESS_ERROR
        assert target.read(0, 1) == b"\x00"

    def test_out_of_bounds_remote_write_fails_cleanly(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("slot", 4)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            completion = yield from qp.write(target, 2, b"xxxx")
            return completion

        completion = run_proc(env, proc(env))
        assert completion.status is WcStatus.REMOTE_ACCESS_ERROR


class TestRead:
    def test_one_sided_read(self, cluster):
        env, fabric = cluster
        source = fabric.nodes["p2"].register("slot", 16)
        source.write(4, b"secret")
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            completion = yield from qp.read(source, 4, 6)
            return completion

        completion = run_proc(env, proc(env))
        assert completion.ok
        assert completion.data == b"secret"

    def test_read_costs_round_trip(self, cluster):
        env, fabric = cluster
        cfg = fabric.config
        source = fabric.nodes["p2"].register("slot", 16)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            yield from qp.read(source, 0, 8)
            return env.now

        end = run_proc(env, proc(env))
        assert end >= cfg.post_cpu_us + 2 * cfg.wire_us


class TestCas:
    def test_cas_success_swaps(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("word", 8)
        target.write_u64(0, 7)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            completion = yield from qp.cas(target, 0, expected=7, swap=99)
            return completion

        completion = run_proc(env, proc(env))
        assert completion.ok
        assert completion.data == 7
        assert target.read_u64(0) == 99

    def test_cas_failure_leaves_value(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("word", 8)
        target.write_u64(0, 5)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            completion = yield from qp.cas(target, 0, expected=7, swap=99)
            return completion

        completion = run_proc(env, proc(env))
        assert completion.data == 5
        assert target.read_u64(0) == 5

    def test_cas_slower_than_write(self, cluster):
        """The paper's single-writer rationale: atomics cost more."""
        env, fabric = cluster
        target = fabric.nodes["p2"].register("word", 8)
        qp = fabric.nodes["p1"].qp_to("p2")

        def write_proc(env):
            yield from qp.write(target, 0, b"\x01" * 8)
            return env.now

        write_end = run_proc(env, write_proc(env))

        env2 = Environment()
        fabric2 = Fabric.build(env2, 2)
        target2 = fabric2.nodes["p2"].register("word", 8)
        qp2 = fabric2.nodes["p1"].qp_to("p2")

        def cas_proc(env):
            yield from qp2.cas(target2, 0, 0, 1)
            return env.now

        cas_end = run_proc(env2, cas_proc(env2))
        assert cas_end > write_end


class TestWriteStamp:
    def test_landed_remote_write_and_cas_advance_the_stamp(self, cluster):
        """Ring readers skip re-parsing while a region's stamp stands
        still, so every remotely landed mutation has to move it — and a
        read, a refused write and a CAS that did not swap must not."""
        env, fabric = cluster
        target = fabric.nodes["p2"].register("word", 16)
        qp = fabric.nodes["p1"].qp_to("p2")
        stamps = [target.stamp]

        def proc(env):
            yield from qp.write(target, 0, (7).to_bytes(8, "little"))
            stamps.append(target.stamp)
            yield from qp.cas(target, 0, expected=7, swap=99)
            stamps.append(target.stamp)
            yield from qp.read(target, 0, 16)
            yield from qp.cas(target, 0, expected=7, swap=5)  # no swap
            wc = yield from qp.write(target, 12, b"too long")
            assert not wc.ok
            stamps.append(target.stamp)

        run_proc(env, proc(env))
        assert target.read_u64(0) == 99
        assert stamps[0] < stamps[1] < stamps[2] == stamps[3]


class TestSendRecv:
    def test_two_sided_roundtrip(self, cluster):
        env, fabric = cluster
        qp12 = fabric.nodes["p1"].qp_to("p2")
        qp21 = fabric.nodes["p2"].qp_to("p1")

        def sender(env):
            yield from qp12.send(b"ping")

        def receiver(env):
            incoming = yield from qp21.recv()
            return incoming

        env.process(sender(env))
        r = env.process(receiver(env))
        env.run()
        assert r.value.payload == b"ping"
        assert r.value.src == "p1"

    def test_sends_preserve_order(self, cluster):
        env, fabric = cluster
        qp12 = fabric.nodes["p1"].qp_to("p2")
        qp21 = fabric.nodes["p2"].qp_to("p1")
        got = []

        def sender(env):
            for i in range(3):
                yield from qp12.send(bytes([i]))

        def receiver(env):
            for _ in range(3):
                incoming = yield from qp21.recv()
                got.append(incoming.payload[0])

        env.process(sender(env))
        env.process(receiver(env))
        env.run()
        assert got == [0, 1, 2]


class TestFailures:
    def test_write_to_crashed_node_errors(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("slot", 8)
        qp = fabric.nodes["p1"].qp_to("p2")
        fabric.nodes["p2"].crash()

        def proc(env):
            completion = yield from qp.write(target, 0, b"x")
            return completion

        completion = run_proc(env, proc(env))
        assert completion.status is WcStatus.REMOTE_OPERATION_ERROR
        assert target.read(0, 1) == b"\x00"

    def test_recovered_node_accepts_writes(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("slot", 8)
        qp = fabric.nodes["p1"].qp_to("p2")
        fabric.nodes["p2"].crash()
        fabric.nodes["p2"].recover()

        def proc(env):
            completion = yield from qp.write(target, 0, b"x")
            return completion

        assert run_proc(env, proc(env)).ok

    def test_permission_revocation_blocks_writes(self, cluster):
        """Mu's mechanism: the host revokes a stale leader's write right."""
        env, fabric = cluster
        target = fabric.nodes["p2"].register("log", 16)
        qp21 = fabric.nodes["p2"].qp_to("p1")
        qp12 = fabric.nodes["p1"].qp_to("p2")
        qp21.revoke_peer_write()

        def proc(env):
            completion = yield from qp12.write(target, 0, b"stale")
            return completion

        completion = run_proc(env, proc(env))
        assert completion.status is WcStatus.PERMISSION_ERROR
        assert target.read(0, 5) == b"\x00" * 5

    def test_permission_regrant_restores_writes(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("log", 16)
        qp21 = fabric.nodes["p2"].qp_to("p1")
        qp12 = fabric.nodes["p1"].qp_to("p2")
        qp21.revoke_peer_write()
        qp21.grant_peer_write()

        def proc(env):
            completion = yield from qp12.write(target, 0, b"fresh")
            return completion

        assert run_proc(env, proc(env)).ok

    def test_permission_does_not_block_reads(self, cluster):
        env, fabric = cluster
        source = fabric.nodes["p2"].register("log", 16)
        source.write(0, b"visible")
        qp21 = fabric.nodes["p2"].qp_to("p1")
        qp12 = fabric.nodes["p1"].qp_to("p2")
        qp21.revoke_peer_write()

        def proc(env):
            completion = yield from qp12.read(source, 0, 7)
            return completion

        completion = run_proc(env, proc(env))
        assert completion.ok
        assert completion.data == b"visible"


class TestFabric:
    def test_build_full_mesh(self):
        env = Environment()
        fabric = Fabric.build(env, 4)
        assert fabric.node_names() == ["p1", "p2", "p3", "p4"]
        for a in fabric.node_names():
            for b in fabric.node_names():
                if a != b:
                    assert fabric.nodes[a].qp_to(b).remote.name == b

    def test_duplicate_node_rejected(self):
        env = Environment()
        fabric = Fabric(env)
        fabric.add_node("p1")
        with pytest.raises(ValueError):
            fabric.add_node("p1")

    def test_duplicate_region_rejected(self):
        env = Environment()
        fabric = Fabric.build(env, 2)
        fabric.nodes["p1"].register("r", 8)
        with pytest.raises(ValueError):
            fabric.nodes["p1"].register("r", 8)

    def test_stats_count_ops_and_bytes(self, cluster):
        env, fabric = cluster
        target = fabric.nodes["p2"].register("slot", 64)
        qp = fabric.nodes["p1"].qp_to("p2")

        def proc(env):
            yield from qp.write(target, 0, b"12345678")
            yield from qp.read(target, 0, 4)

        run_proc(env, proc(env))
        assert fabric.stats.ops[Opcode.WRITE] == 1
        assert fabric.stats.bytes[Opcode.WRITE] == 8
        assert fabric.stats.ops[Opcode.READ] == 1
        assert fabric.stats.one_sided_ops == 2
        assert fabric.stats.two_sided_ops == 0
