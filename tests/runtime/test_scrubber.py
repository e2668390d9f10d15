"""Background scrubber: at-rest ring corruption is found and healed.

The consumption-time CRC paths cannot see corruption that lands (or is
planted) in a slot *after* the reader consumed it — but those slots are
exactly what hole repair and rejoin catch-up read from.  These tests
corrupt consumed records directly in a replica's memory and assert the
scrubber restores them from the authoritative copy — including a
different record that passes its CRC, which only the scrubber's byte
comparison can catch.
"""

from repro.datatypes import gset_spec
from repro.runtime import HambandCluster, RingWriter, RuntimeConfig
from repro.sim import Environment


def _scrubbing_cluster(scrub_interval_us=20.0):
    env = Environment()
    config = RuntimeConfig(
        force_buffered=True,  # push adds through the F rings
        scrub_interval_us=scrub_interval_us,
    )
    cluster = HambandCluster.build(
        env, gset_spec(), n_nodes=3, config=config
    )
    return env, cluster


def _populate(env, cluster, n=6):
    for i in range(n):
        env.run(until=cluster.node("p1").submit("add", i))
    env.run(until=env.now + 500.0)


def _corrupt_consumed_slot(node, origin="p1"):
    """Flip one payload byte of an already-consumed F record at rest.

    Returns (offset, pristine slot bytes) for the healed-state check.
    """
    reader = node.transport.f_readers[origin]
    assert reader.head > 0, "no consumed records to corrupt"
    offset = reader.offset_of(reader.head - 1)
    pristine = bytes(reader.region.read(offset, reader.slot_size))
    corrupted = bytearray(pristine)
    corrupted[5] ^= 0xFF  # a payload byte: canary stays plausible
    reader.region.write(offset, bytes(corrupted))
    return offset, pristine


class TestScrubber:
    def test_heals_at_rest_corruption(self):
        env, cluster = _scrubbing_cluster()
        _populate(env, cluster)
        node = cluster.node("p2")
        offset, pristine = _corrupt_consumed_slot(node)
        env.run(until=env.now + 2000.0)
        reader = node.transport.f_readers["p1"]
        healed = bytes(reader.region.read(offset, node.config.slot_size))
        assert healed == pristine, "scrubber did not restore the slot"
        assert sum(node.probe.snapshot()["slot_repairs"].values()) >= 1
        assert sum(node.probe.snapshot()["scrub_passes"].values()) >= 1
        assert not cluster.failures()

    def test_catches_divergence_even_without_crc(self):
        """A well-formed, CRC-valid record with a different payload at a
        consumed index parses fine — only the scrubber's byte comparison
        against the authoritative copy can catch it."""
        env, cluster = _scrubbing_cluster()
        _populate(env, cluster)
        node = cluster.node("p2")
        reader = node.transport.f_readers["p1"]
        index = reader.head - 1
        pristine = reader.record_at(index)
        impostor = RingWriter(reader.slots, reader.slot_size)
        impostor.tail = index
        record = impostor.build(b"not the authoritative payload")
        reader.region.write(reader.offset_of(index), record)
        assert reader.record_at(index) == record  # parseable, divergent
        env.run(until=env.now + 2000.0)
        assert reader.record_at(index) == pristine
        assert sum(node.probe.snapshot()["slot_repairs"].values()) >= 1

    def test_disabled_by_default(self):
        env = Environment()
        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3,
            config=RuntimeConfig(force_buffered=True),
        )
        _populate(env, cluster, n=3)
        env.run(until=env.now + 1000.0)
        assert all(
            sum(node.probe.snapshot()["scrub_passes"].values()) == 0
            for node in cluster.nodes.values()
        )

    def test_scrub_is_deterministic(self):
        def one_run():
            env, cluster = _scrubbing_cluster()
            _populate(env, cluster)
            node = cluster.node("p2")
            _corrupt_consumed_slot(node)
            env.run(until=5000.0)
            return {
                name: n.probe.snapshot().get("slot_repairs", {})
                for name, n in cluster.nodes.items()
            }

        assert one_run() == one_run()


def _scrubbed(node):
    return [repairer.ring for repairer in node.scrubber._targets]


class TestScrubberRearm:
    """Membership changes must re-arm the scrub rotation (regression:
    the target list was computed once at construction, so a joiner's
    ring was never scrubbed and a departed peer's frozen ring spun in
    the rotation forever)."""

    def test_joiner_ring_enters_the_rotation(self):
        env, cluster = _scrubbing_cluster()
        _populate(env, cluster, n=3)
        incumbent = cluster.node("p2")
        assert "F:p4" not in _scrubbed(incumbent)
        cluster.add_node("p4")
        env.run(until=env.now + 500.0)
        assert "F:p4" in _scrubbed(incumbent)

    def test_departed_ring_leaves_the_rotation(self):
        env, cluster = _scrubbing_cluster()
        _populate(env, cluster, n=3)
        incumbent = cluster.node("p2")
        assert "F:p3" in _scrubbed(incumbent)
        cluster.remove_node("p3")
        # The drainable-history reader survives; the scrub target must not.
        assert "p3" in incumbent.transport.f_readers
        assert "F:p3" not in _scrubbed(incumbent)

    def test_heals_corruption_in_a_joiner_ring(self):
        """End to end: corruption planted in the JOINER's replicated F
        ring — a ring that did not exist when the scrubber armed — is
        found and healed."""
        env, cluster = _scrubbing_cluster()
        _populate(env, cluster, n=3)
        cluster.add_node("p4")
        env.run(until=env.now + 500.0)
        for i in range(10, 16):
            env.run(until=cluster.node("p4").submit("add", i))
        env.run(until=env.now + 500.0)
        node = cluster.node("p2")
        offset, pristine = _corrupt_consumed_slot(node, origin="p4")
        env.run(until=env.now + 3000.0)
        reader = node.transport.f_readers["p4"]
        healed = bytes(reader.region.read(offset, node.config.slot_size))
        assert healed == pristine, "joiner ring slot was not healed"
        assert not cluster.failures()
