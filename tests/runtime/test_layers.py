"""Unit tests for the runtime layers used standalone (no façade).

Each layer must be constructible and exercisable on a bare fabric:
that is the point of the decomposition — transports, apply engines,
and probes can be swapped or measured without a full HambandNode.
"""

import pytest

from repro.core import Call, Coordination, concrete_events
from repro.datatypes import account_spec, counter_spec, gset_spec
from repro.rdma import Fabric
from repro.runtime import (
    ApplyEngine,
    CountingProbe,
    RingTransport,
    RuntimeConfig,
    RuntimeProbe,
    TracingProbe,
)
from repro.runtime.applier import POLL_HOT_US, POLL_IDLE_MAX_US
from repro.runtime.config import (
    POLL_INTERVAL_US,
    f_ack_region,
    f_region,
    l_region,
    s_region,
)
from repro.runtime.heartbeat import PeerHealth
from repro.sim import Environment


def bare_transport(spec, n_nodes=3, probe=None,
                   is_suspected=lambda peer: False):
    env = Environment()
    coordination = Coordination.analyze(spec)
    fabric = Fabric.build(env, n_nodes)
    names = fabric.node_names()
    transports = {
        name: RingTransport(
            fabric.nodes[name], coordination, names, RuntimeConfig(),
            PeerHealth(), probe, is_suspected=is_suspected,
        )
        for name in names
    }
    return env, coordination, fabric, transports


def run_gen(env, generator):
    """Drive one generator to completion inside the simulation."""
    done = env.process(generator)
    env.run(until=done)
    return done.value if hasattr(done, "value") else None


class TestCountingProbe:
    def test_noop_base_snapshot_is_empty(self):
        probe = RuntimeProbe()
        probe.trace_apply("FREE", "add", "p1", 1)
        probe.count("backpressure_stalls", "F->p2")
        assert probe.snapshot() == {}

    def test_counters_accumulate(self):
        probe = CountingProbe()
        probe.trace_apply("FREE", "add", "p1", 1)
        probe.trace_apply("FREE", "add", "p1", 2)
        probe.trace_apply("CONF_APP", "enroll", "p2", 1)
        probe.count("conflict_retries", "g0")
        probe.count("conflict_batches", "g0")
        probe.peak("conflict_batch_max", "g0", 3)
        probe.count("conflict_batches", "g0")
        probe.peak("conflict_batch_max", "g0", 2)
        probe.peak("ring_highwater", "F->p2", 5)
        probe.peak("ring_highwater", "F->p2", 2)  # high-water keeps the max
        snap = probe.snapshot()
        assert snap["applies"] == {"FREE": 2, "CONF_APP": 1}
        assert snap["conflict_retries"] == {"g0": 1}
        assert snap["conflict_batches"] == {"g0": 2}
        assert snap["conflict_batch_max"] == {"g0": 3}
        assert snap["ring_highwater"] == {"F->p2": 5}

    def test_repairs_count_in_their_trace_hook(self):
        probe = CountingProbe()
        probe.trace_repair("F:p1", 7, "bitflip")
        probe.trace_repair("F:p1", 8, "torn")
        assert probe.snapshot()["slot_repairs"] == {"F:p1": 2}

    def test_recoveries_publish_a_plain_total(self):
        probe = CountingProbe()
        assert probe.snapshot()["recoveries"] == 0
        probe.count("recoveries", "FREE_APP")
        probe.count("recoveries", "FREE_APP")
        assert probe.snapshot()["recoveries"] == 2

    def test_unknown_section_raises(self):
        with pytest.raises(KeyError):
            CountingProbe().count("no_such_section", "x")

    def test_snapshot_is_a_copy(self):
        probe = CountingProbe()
        probe.trace_apply("FREE", "add", "p1", 1)
        snap = probe.snapshot()
        probe.trace_apply("FREE", "add", "p1", 2)
        assert snap["applies"] == {"FREE": 1}


class TestRingTransportStandalone:
    def test_registers_all_regions(self):
        _env, coordination, fabric, transports = bare_transport(
            account_spec()
        )
        node = fabric.nodes["p1"]
        for peer in ("p2", "p3"):
            assert f_region(peer) in node.regions
            assert f_ack_region(peer) in node.regions
        for group in coordination.sync_groups():
            assert l_region(group.gid) in node.regions
        for summarizer in coordination.spec.summarizers:
            for owner in ("p1", "p2", "p3"):
                assert s_region(summarizer.group, owner) in node.regions

    def test_ring_views_cover_peers_and_groups(self):
        _env, coordination, _fabric, transports = bare_transport(
            account_spec()
        )
        transport = transports["p1"]
        assert sorted(transport.f_readers) == ["p2", "p3"]
        assert sorted(transport.f_writers) == ["p2", "p3"]
        assert sorted(transport.l_readers) == sorted(
            g.gid for g in coordination.sync_groups()
        )

    def test_render_and_remote_write_then_drain(self):
        """A record rendered at p1, written into p2's copy of p1's F
        ring, drains at p2 through an apply sink."""
        env, _coordination, fabric, transports = bare_transport(gset_spec())
        probe = CountingProbe()
        sender, receiver = transports["p1"], transports["p2"]
        receiver.probe = probe

        call = Call("add", "x", "p1", 1)
        packet = sender.codec.encode_call_packet(call, {})

        applied = []

        class Sink:
            def has_seen(self, key):
                return False

            def dep_ok(self, dep):
                return True

            def apply(self, got, rule):
                applied.append((got, rule))
                yield env.timeout(0.01)

        def scenario():
            offset, record = yield from sender.render_with_backpressure(
                sender.f_writers["p2"], f_ack_region("p2"), packet,
            )
            node = fabric.nodes["p1"]
            qp = node.qp_to("p2")
            yield from qp.write(
                node.region_of("p2", f_region("p1")), offset, record
            )
            progressed = yield from receiver.drain(
                receiver.f_readers["p1"], "FREE_APP", Sink(), label="F<-p1"
            )
            assert progressed

        run_gen(env, scenario())
        assert applied == [(call, "FREE_APP")]
        # Drained counts are their own counter now; ring_highwater is
        # reserved for occupancy (tail - acked) measured at the writer.
        assert probe.snapshot()["records_drained"].get("F<-p1") == 1

    def test_backpressure_blocks_until_acked_and_counts_stalls(
        self, monkeypatch
    ):
        """With a 4-slot ring and no acks coming back, the 5th render
        stalls; posting an ack releases it."""
        monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 4)
        monkeypatch.setattr("repro.runtime.config.ACK_EVERY", 1)
        env, _coordination, fabric, transports = bare_transport(gset_spec())
        probe = CountingProbe()
        sender = transports["p1"]
        sender.probe = probe
        writer = sender.f_writers["p2"]
        payload = b"x" * 16

        def fill():
            for _ in range(4):
                yield from sender.render_with_backpressure(
                    writer, f_ack_region("p2"), payload
                )

        run_gen(env, fill())
        assert writer.tail == 4

        released = []

        def fifth():
            yield from sender.render_with_backpressure(
                writer, f_ack_region("p2"), payload
            )
            released.append(env.now)

        env.process(fifth())
        env.run(until=env.now + 20)
        assert not released  # still stalled
        assert sum(probe.snapshot()["backpressure_stalls"].values()) > 0
        # The reader's ack arrives (simulated as a local write).
        fabric.nodes["p1"].regions[f_ack_region("p2")].write(
            0, (2).to_bytes(8, "little")
        )
        env.run(until=env.now + 20)
        assert released

    def test_suspected_reader_releases_backpressure(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 2)
        monkeypatch.setattr("repro.runtime.config.ACK_EVERY", 1)
        suspected = set()
        env, _coordination, _fabric, transports = bare_transport(
            gset_spec(), is_suspected=suspected.__contains__
        )
        sender = transports["p1"]
        writer = sender.f_writers["p2"]

        def scenario():
            for _ in range(2):
                yield from sender.render_with_backpressure(
                    writer, f_ack_region("p2"), b"y"
                )
            # Ring full, reader suspected: must not block.
            suspected.add("p2")
            yield from sender.render_with_backpressure(
                writer, f_ack_region("p2"), b"y"
            )

        probe = CountingProbe()
        sender.probe = probe
        run_gen(env, scenario())
        assert writer.tail == 3
        assert writer.reader_acked is None  # throttling disabled
        # Releasing a suspected reader is not a give-up.
        assert probe.snapshot()["giveups"] == {}

    def test_backpressure_limit_is_a_counted_giveup(self, monkeypatch):
        """A reader that is not suspected but never acks: after
        ``BACKPRESSURE_LIMIT`` waits the writer disarms flow control,
        with one ``backpressure`` count and one ``giveup`` event."""
        monkeypatch.setattr("repro.runtime.transport.BACKPRESSURE_LIMIT", 3)
        monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 2)
        monkeypatch.setattr("repro.runtime.config.ACK_EVERY", 1)
        env, _coordination, _fabric, transports = bare_transport(gset_spec())
        sender = transports["p1"]
        probe = sender.probe = TracingProbe(lambda: env.now, "p1")
        writer = sender.f_writers["p2"]

        def scenario():
            for _ in range(3):
                yield from sender.render_with_backpressure(
                    writer, f_ack_region("p2"), b"y"
                )

        run_gen(env, scenario())
        assert writer.tail == 3
        assert writer.reader_acked is None  # throttling disabled
        snapshot = probe.snapshot()
        assert snapshot["backpressure_stalls"] == {"F->p2": 4}
        assert snapshot["giveups"] == {"backpressure": 1}
        events = [e for e in probe.events if e.kind == "giveup"]
        assert [(e.name, e.origin) for e in events] == [
            ("backpressure", "p2")
        ]

    def hole_probes(self, waits):
        """The sweeps (1-based) of an idle ring, each made after one of
        ``waits``, at which the hole detector probes ahead."""
        env, _coordination, _fabric, transports = bare_transport(gset_spec())
        transport = transports["p1"]
        reader = transport.f_readers["p2"]
        looked = []
        record_at = reader.record_at
        reader.record_at = lambda index: looked.append(index) or record_at(index)
        probed = []
        for sweep, waited_us in enumerate(waits, start=1):
            before = len(looked)
            repaired = run_gen(
                env, transport.f_repairers["p2"].detect(waited_us)
            )
            assert not repaired  # the writer is idle: nothing lies ahead
            if len(looked) > before:
                probed.append(sweep)
        return probed

    def test_hole_detector_patience_is_256_poll_intervals(self):
        """A poller that has not backed off (hot, or one poll interval
        per sweep) probes at every 256th miss, as it always did; one
        backed off to 8 us waits the same ~256 us of simulated time, 32
        sweeps, not 256 sweeps ~ 2 ms."""
        assert POLL_INTERVAL_US == 1.0
        for waited_us in (0.0, POLL_HOT_US, POLL_INTERVAL_US):
            assert self.hole_probes([waited_us] * 600) == [256, 512]
        assert self.hole_probes([POLL_IDLE_MAX_US] * 100) == [
            32, 64, 96
        ]
        # ... and on the way there each sweep counts the sweeps it skipped.
        ramp = [1.0, 2.0, 4.0] + [8.0] * 40
        assert self.hole_probes(ramp) == [3 + 32]

    def test_hole_patience_reads_the_poll_interval_at_call_time(
            self, monkeypatch):
        """The patience is counted in poll intervals of the constant's
        value when the detector runs, not when the ring was built."""
        env, _coordination, _fabric, transports = bare_transport(gset_spec())
        monkeypatch.setattr("repro.runtime.config.POLL_INTERVAL_US", 2.0)
        repairer = transports["p1"].f_repairers["p2"]
        for _sweep in range(63):
            run_gen(env, repairer.detect(8.0))
        assert repairer.waited == 63 * 4


class TestApplyEngineStandalone:
    def make_engine(self, spec, n_nodes=3):
        env, coordination, fabric, transports = bare_transport(spec, n_nodes)
        probe = TracingProbe(lambda: env.now, "p1")
        engine = ApplyEngine(
            fabric.nodes["p1"], coordination, RuntimeConfig(), probe, {},
        )
        engine.init_summaries(fabric.node_names())
        return env, engine, probe

    def test_apply_buffered_advances_sigma_a_and_log(self):
        env, engine, probe = self.make_engine(gset_spec())
        call = Call("add", "x", "p2", 1)
        run_gen(env, engine.apply(call, "FREE_APP"))
        assert "x" in engine.sigma
        assert engine.applied[("p2", "add")] == 1
        assert engine.has_seen(call.key())
        assert [
            e.rule for e in concrete_events(probe.events)
        ] == ["FREE_APP"]
        assert probe.snapshot()["applies"] == {"FREE_APP": 1}

    def test_dep_projection_and_check(self):
        env, engine, _probe = self.make_engine(account_spec())
        # No deposits applied anywhere: projection over Dep(withdraw)
        # is empty and trivially satisfied.
        assert engine.dep_projection("withdraw") == {}
        assert engine.dep_ok({})
        assert not engine.dep_ok({("p2", "deposit"): 1})

    def test_invariant_with_summaries(self):
        env, engine, _probe = self.make_engine(account_spec())
        assert engine.invariant_with_summaries(0)
        assert not engine.invariant_with_summaries(-1)

    def test_category_respects_force_buffered(self):
        env, coordination, fabric, _transports = bare_transport(
            counter_spec()
        )
        from repro.core import Category

        engine = ApplyEngine(
            fabric.nodes["p1"], coordination,
            RuntimeConfig(force_buffered=True),
        )
        engine.init_summaries(fabric.node_names())
        assert engine.category("add") is Category.IRREDUCIBLE_CONFLICT_FREE

    def test_make_call_monotonic_rids(self):
        env, engine, _probe = self.make_engine(gset_spec())
        first = engine.make_call("add", "a")
        second = engine.make_call("add", "b")
        assert first.origin == "p1"
        assert second.rid > first.rid
