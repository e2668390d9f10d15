"""One ring repairer: an F ring and an L log are repaired alike.

Each case damages one record of one ring copy — a peer's F ring, or a
follower's copy of a synchronization group's L log — and checks what
the repairer leaves behind: the slot holds the authoritative record
again, and the counters and ``repair`` trace events are the same on
both ring kinds, up to the ring's label.
"""

import pytest

from repro.datatypes import courseware_spec
from repro.runtime import (
    HambandCluster,
    RingReader,
    RingWriter,
    RuntimeConfig,
    TraceRecorder,
)
from repro.runtime.applier import POLL_IDLE_MAX_US
from repro.runtime.config import POLL_INTERVAL_US, f_region
from repro.runtime.transport import HOLE_PATIENCE
from repro.sim import Environment, FaultDecision

KINDS = ("F", "L")
#: The sections a repair may touch, compared across ring kinds.
SECTIONS = ("hole_repairs", "crc_rejects", "slot_repairs", "torn_detected",
            "scrub_passes")


class RingUnderRepair:
    """A 3-node courseware cluster and one ring copy to damage: p1's F
    ring at p2 (``registerStudent`` is conflict-free and unreduced) or
    the course group's L log at a follower of its leader."""

    def __init__(self, kind: str, n_nodes: int = 3, **config):
        self.env = Environment()
        self.recorder = TraceRecorder(self.env)
        self.cluster = HambandCluster.build(
            self.env, courseware_spec(), n_nodes=n_nodes,
            config=RuntimeConfig(**config),
            probe_factory=self.recorder.probe_factory,
        )
        self.recorder.attach(self.cluster.coordination)
        gid = self.cluster.coordination.sync_group("addCourse").gid
        if kind == "F":
            self.writer, self.target = "p1", "p2"
            self.method, self.ring = "registerStudent", "F:p1"
            self.node = self.cluster.node(self.target)
            self.reader = self.node.transport.f_readers[self.writer]
        else:
            self.writer = self.cluster.leaders[gid]
            self.target = next(
                n for n in self.cluster.node_names() if n != self.writer
            )
            self.method, self.ring = "addCourse", f"L:{gid}"
            self.node = self.cluster.node(self.target)
            self.reader = self.node.transport.l_readers[gid]
        self._calls = 0

    def submit(self, fault=None):
        """Issue one call whose record lands in the ring, its write to
        the target mutated by ``fault`` (a FaultDecision); returns the
        record's index."""
        index = self.writer_tail()
        armed = [fault]

        def hook(op, src, dst, nbytes):
            if (armed[0] is not None and op == "write"
                    and src == self.writer and dst == self.target
                    and nbytes > 8):  # a record, not a flow-control ack
                decision, armed[0] = armed[0], None
                return decision
            return None

        self.cluster.fabric.fault_hook = hook
        self._calls += 1
        done = self.cluster.node(self.writer).submit(
            self.method, f"x{self._calls}"
        )
        self.env.run(until=done)
        self.cluster.fabric.fault_hook = None
        return index

    def writer_tail(self) -> int:
        """The next index the writer claims in the target's copy."""
        writer = self.cluster.node(self.writer)
        if self.ring.startswith("F:"):
            return writer.transport.f_writers[self.target].tail
        gid = self.ring[2:]
        return writer.conflict.mu_groups[gid]._writers[self.target].tail

    def authoritative(self, index: int) -> bytes:
        """The record at ``index`` in the writer's own copy."""
        writer = self.cluster.node(self.writer)
        if self.ring.startswith("F:"):
            reader = RingReader(writer.rnode.regions[f_region(self.writer)],
                                self.reader.slots, self.reader.slot_size)
        else:
            reader = writer.transport.l_readers[self.ring[2:]]
        return reader.record_at(index)

    def outcome(self):
        """Counters and repair events, the ring's label made generic."""
        snapshot = self.node.probe.snapshot()
        counters = {
            section: {
                ("R" if key == self.ring else key): value
                for key, value in snapshot.get(section, {}).items()
            }
            for section in SECTIONS
        }
        repairs = [
            (e.name, "R" if e.method == self.ring else e.method, e.rid)
            for e in self.recorder.events()
            if e.kind == "repair" and e.origin == self.target
        ]
        return counters, repairs


@pytest.fixture(params=KINDS)
def kind(request):
    return request.param


def _counters(**sections):
    return {section: sections.get(section, {}) for section in SECTIONS}


class TestOneRepairer:
    def test_hole_ahead_of_the_head_is_filled(self, kind):
        ring = RingUnderRepair(kind)
        ring.submit()
        lost = ring.submit(FaultDecision("torn", cut=0))  # lands nothing
        ring.submit()  # lands ahead of the hole
        assert ring.reader.record_at(lost) is None
        ring.env.run(until=ring.env.now + 2000.0)
        assert ring.reader.record_at(lost) == ring.authoritative(lost)
        assert ring.reader.head == lost + 2
        assert ring.outcome() == (_counters(hole_repairs={"R": 1}), [])
        assert not ring.cluster.failures()

    def test_damaged_head_with_nothing_ahead_is_refilled(self, kind):
        """A flipped record flag makes the last record read as "not
        landed", and nothing lands after it to trip the probe ahead."""
        ring = RingUnderRepair(kind)
        ring.submit()
        damaged = ring.submit(FaultDecision("corrupt", flips=((3, 0x80),)))
        assert ring.reader.record_at(damaged) is None
        ring.env.run(until=ring.env.now + 2000.0)
        assert ring.reader.record_at(damaged) == ring.authoritative(damaged)
        assert ring.outcome() == (
            _counters(hole_repairs={"R": 1}, slot_repairs={"R": 1}),
            [("bitflip", "R", damaged)],
        )

    def test_crc_rejected_record_is_refetched(self, kind):
        ring = RingUnderRepair(kind)
        ring.submit()
        corrupt = ring.submit(FaultDecision("corrupt", flips=((6, 0x01),)))
        ring.env.run(until=ring.env.now + 500.0)
        assert ring.reader.record_at(corrupt) == ring.authoritative(corrupt)
        assert ring.reader.head == corrupt + 1
        assert ring.outcome() == (
            _counters(crc_rejects={"R": 1}, slot_repairs={"R": 1}),
            [("bitflip", "R", corrupt)],
        )

    def test_scrubber_heals_an_at_rest_divergence(self, kind):
        """A different, CRC-valid record planted in a consumed slot
        parses fine; only the byte comparison against the authority
        catches it."""
        ring = RingUnderRepair(kind, scrub_interval_us=20.0)
        for _ in range(3):
            ring.submit()
        ring.env.run(until=ring.env.now + 100.0)
        index = ring.reader.head - 1
        impostor = RingWriter(ring.reader.slots, ring.reader.slot_size)
        impostor.tail = index
        ring.reader.region.write(
            ring.reader.offset_of(index), impostor.build(b"not it")
        )
        before = ring.node.probe.snapshot()["scrub_passes"].get(ring.ring, 0)
        ring.env.run(until=ring.env.now + 1000.0)
        assert ring.reader.record_at(index) == ring.authoritative(index)
        counters, repairs = ring.outcome()
        assert counters.pop("scrub_passes")["R"] > before
        expected = _counters(slot_repairs={"R": 1})
        del expected["scrub_passes"]
        assert (counters, repairs) == (expected, [("torn", "R", index)])


class TestPatience:
    def test_an_l_log_hole_is_detected_as_soon_as_an_f_ring_hole(self):
        """Under the default idle backoff (1 us polls backing off to
        8 us) both ring kinds probe ahead after HOLE_PATIENCE poll
        intervals of simulated time, not after that many sweeps."""
        waits = {}
        for kind in KINDS:
            ring = RingUnderRepair(kind)
            ring.submit()
            ring.submit(FaultDecision("torn", cut=0))
            ring.submit()
            idle_from = ring.env.now
            probe = ring.node.probe
            while not probe.snapshot()["hole_repairs"]:
                assert ring.env.now - idle_from < 4 * HOLE_PATIENCE
                ring.env.run(until=ring.env.now + 1.0)
            waits[kind] = ring.env.now - idle_from
        patience_us = HOLE_PATIENCE * POLL_INTERVAL_US
        slack_us = 2 * POLL_IDLE_MAX_US
        for wait in waits.values():
            assert abs(wait - patience_us) <= slack_us, waits
        assert abs(waits["F"] - waits["L"]) <= slack_us, waits


class TestIdleRing:
    def test_a_lapped_idle_ring_starts_no_repair(self, kind, monkeypatch):
        """Once a ring has wrapped, its idle head slot holds last lap's
        record: an idle writer, like a virgin head, not a hole."""
        monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 8)
        ring = RingUnderRepair(kind)
        for _ in range(11):
            ring.submit()
        ring.env.run(until=ring.env.now + 100.0)
        assert ring.reader.head == 11
        assert any(ring.reader.slot_bytes(ring.reader.head))
        ring.env.run(until=ring.env.now + 8 * HOLE_PATIENCE)
        assert ring.outcome() == (_counters(), [])
        assert not ring.cluster.failures()


class TestReconcile:
    def test_new_leader_adopts_a_record_the_live_old_leader_lacks(self):
        """Mu writes the leader's own log copy only after a majority of
        followers acked, so a campaign may find the old leader alive,
        unsuspected and first among the sources, yet missing a record
        a majority holds: the new leader must adopt that record, not
        end its tail before it and overwrite it."""
        ring = RingUnderRepair("L", n_nodes=5)
        gid = ring.ring[2:]
        ring.submit()
        index = ring.submit(FaultDecision("torn", cut=0))  # misses us
        record = ring.authoritative(index)
        holders = [
            name for name in ring.cluster.node_names()
            if name not in (ring.writer, ring.target)
            and ring.cluster.node(name).transport.l_readers[gid]
            .record_at(index) == record
        ]
        assert len(holders) == 3  # a majority of the five copies
        # The old leader's own write of the record is still pending.
        old_leader = ring.cluster.node(ring.writer)
        old_leader.transport.l_readers[gid].quarantine(index)
        assert ring.reader.record_at(index) is None
        mu = ring.node.conflict.mu_groups[gid]
        won = ring.env.process(mu.campaign(set()))
        ring.env.run(until=won)
        assert won.value
        assert ring.reader.record_at(index) == record
        assert {w.tail for w in mu._writers.values()} == {index + 1}
