"""Chaos integration: fault plans ride out, recovery converges.

Three layers of assurance:

1. every named CI fault plan, driven through :func:`run_harness`, settles
   to a converged cluster and passes the offline trace checker;
2. a crashed-and-restarted node catches up to the exact state of the
   survivors (summary transfer + ring replay through the rejoin pass);
3. the negative control: deliberately disabling the recovery paths on
   the restarted node makes the very same scenario FAIL the checker —
   proof the checker actually gates recovery, rather than passing
   vacuously.
"""

from dataclasses import replace

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.cli import main
from repro.datatypes import counter_spec, gset_spec
from repro.runtime import (
    HambandCluster,
    RuntimeConfig,
    TraceChecker,
    TraceRecorder,
    ringbuffer,
    statexfer,
)
from repro.sim import PLAN_NAMES, Environment, FaultPlan

OPS = 400
HORIZON_US = 500.0


def _config(workload):
    return ExperimentConfig(
        system="hamband",
        workload=workload,
        n_nodes=4,
        total_ops=OPS,
        update_ratio=0.25,
        seed=2,
    )


class TestChaosMatrix:
    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    @pytest.mark.parametrize("workload", ["gset", "courseware"])
    def test_named_plan_converges_and_checks(self, plan_name, workload):
        plan = FaultPlan.named(plan_name, horizon_us=HORIZON_US)
        run = run_harness(_config(workload), plan=plan)
        assert run.settled, f"{plan_name}/{workload} never settled"
        assert run.injector.log, "the plan injected nothing"
        report = run.check()
        assert report.ok, report.summary()
        totals = set(run.cluster.applied_totals().values())
        assert len(totals) == 1

    def test_seeded_plan_is_reproducible(self):
        plan = FaultPlan.from_seed(7, horizon_us=HORIZON_US)
        first = run_harness(_config("gset"), plan=plan)
        second = run_harness(_config("gset"), plan=plan)
        assert first.injector.log == second.injector.log
        assert first.check().ok


def _build_recorded_gset(n_nodes=3, config=None):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 18)
    cluster = HambandCluster.build(
        env, gset_spec(), n_nodes=n_nodes, config=config,
        probe_factory=recorder.probe_factory,
    )
    recorder.attach(cluster.coordination)
    return env, recorder, cluster


def _add(env, cluster, name, value):
    env.run(until=cluster.node(name).submit("add", value))


def _check(recorder, cluster):
    checker = TraceChecker(
        cluster.coordination, processes=cluster.node_names()
    )
    return checker.check(recorder.events(), dropped=recorder.dropped())


def _crash_restart_scenario(env, cluster, catch_up=True, resync=True,
                            missed=4, restart_cpu_speed=1.0):
    """Shared scenario: adds, crash p3, ``missed`` adds it misses,
    restart — with p3's CPU at ``restart_cpu_speed`` of full speed for
    the first 4 ms back (a box limping back from a reboot).  p3 heals by
    its rejoin pass (``catch_up``) or by the resync a peer requests on
    seeing it back (``resync``); either alone suffices.  The hole
    detector cannot heal it: p3's missing records end each ring, so it
    finds no record ahead of a hole."""
    survivors = ["p1", "p2"]
    for i in range(4):
        _add(env, cluster, cluster.node_names()[i % 3], i)
    env.run(until=env.now + 300.0)

    cluster.crash("p3")
    env.run(until=env.now + 500.0)  # heartbeat silence -> suspicion
    for i in range(missed):
        _add(env, cluster, survivors[i % 2], 100 + i)
    env.run(until=env.now + 500.0)

    if not resync:
        cluster.node("p3").control.on_resync = None
    cpu = cluster.node("p3").rnode.cpu
    cpu.speed = restart_cpu_speed
    cluster.restart("p3", catch_up=catch_up)
    env.run(until=env.now + 4000.0)
    cpu.speed = 1.0


class TestRestartCatchUp:
    def test_restarted_node_reaches_identical_state(self):
        env, recorder, cluster = _build_recorded_gset()
        _crash_restart_scenario(env, cluster, catch_up=True)

        assert not cluster.failures()
        totals = cluster.applied_totals()
        assert len(set(totals.values())) == 1, totals
        spec = cluster.coordination.spec
        states = cluster.effective_states()
        assert spec.state_eq(states["p3"], states["p1"])
        assert spec.state_eq(states["p3"], states["p2"])
        report = _check(recorder, cluster)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("catch_up,resync", [(True, False), (False, True)],
                             ids=["rejoin-only", "resync-only"])
    def test_either_recovery_path_alone_heals(self, catch_up, resync):
        """The negative control below must sever both paths."""
        env, recorder, cluster = _build_recorded_gset()
        _crash_restart_scenario(env, cluster, catch_up=catch_up,
                                resync=resync)

        totals = cluster.applied_totals()
        assert len(set(totals.values())) == 1, totals
        report = _check(recorder, cluster)
        assert report.ok, report.summary()

    def test_negative_control_without_recovery_fails_checker(self):
        """Disable the rejoin/catch-up machinery: the restarted node
        stays behind forever and the checker must say so."""
        env, recorder, cluster = _build_recorded_gset()
        _crash_restart_scenario(env, cluster, catch_up=False, resync=False)

        totals = cluster.applied_totals()
        assert totals["p3"] < totals["p1"], (
            "without recovery p3 must miss the adds issued while down"
        )
        report = _check(recorder, cluster)
        assert not report.ok, (
            "checker passed a run whose recovery was disabled — the "
            "chaos gate would be vacuous"
        )
        assert any(
            violation.kind == "convergence"
            for violation in report.violations
        ), report.summary()

    def test_frontier_barrier_timeout_is_a_counted_giveup(self, monkeypatch):
        """A barrier shorter than one poll cannot see a restarted node
        whose CPU runs at a fifth of full speed apply the eight adds it
        missed: the rejoin pass gives up waiting, and says so — one
        ``xfer_barrier`` count and one ``giveup`` trace event, at the
        restarted node only.  The late flip still converges.  (At full
        speed the poll loop may drain the few installed records in the
        microseconds between the last ring fill and the barrier's look,
        depending on where its back-off sleep happens to end.)"""
        monkeypatch.setattr(statexfer, "XFER_BARRIER_US", 1.0)
        env, recorder, cluster = _build_recorded_gset()
        _crash_restart_scenario(env, cluster, catch_up=True, missed=8,
                                restart_cpu_speed=0.2)

        for name in cluster.node_names():
            giveups = cluster.node(name).stats()["probe"]["giveups"]
            assert giveups == ({"xfer_barrier": 1} if name == "p3" else {})
        events = [e for e in recorder.events() if e.kind == "giveup"]
        assert [(e.node, e.name, e.origin) for e in events] == [
            ("p3", "xfer_barrier", "restart")
        ]
        assert _check(recorder, cluster).ok


# -- silent-corruption resilience ---------------------------------------


def _probe_total(run, key):
    section = run.cluster.stats()["cluster"]["probe"].get(key) or {}
    return sum(section.values())


class TestCorruptionResilience:
    """Checksummed rings detect silent corruption; the repair paths heal
    it; and the negative control proves the CRC layer is what carries
    the run, not luck."""

    def test_corrupt_plan_detects_repairs_and_checks(self):
        plan = FaultPlan.named("corrupt-5pct", horizon_us=HORIZON_US)
        run = run_harness(_config("gset"), plan=plan)
        assert run.settled
        assert run.injector.counts().get("corrupt", 0) > 0
        # The corruption was detected (CRC rejects) and healed (slot
        # repairs) — both must be live in this gated scenario.
        assert _probe_total(run, "crc_rejects") > 0
        assert _probe_total(run, "slot_repairs") > 0
        report = run.check()
        assert report.ok, report.summary()
        # The checker correlates injected => repaired from the trace.
        assert report.faults.get("corrupt", 0) > 0
        assert sum(report.repairs.values()) > 0, report.summary()

    def test_torn_plan_classifies_torn_writes(self):
        plan = FaultPlan.named("torn-writes", horizon_us=HORIZON_US)
        run = run_harness(_config("gset"), plan=plan)
        assert run.settled
        assert run.injector.counts().get("torn", 0) > 0
        report = run.check()
        assert report.ok, report.summary()

    def test_negative_control_integrity_off_fails_checker(self, monkeypatch):
        """The same corruption campaign with CRC verification patched
        out must FAIL the checker: corrupted records reach the applied
        state (or wedge a ring) and the cluster diverges.  This is the
        proof the CRC layer is load-bearing."""
        monkeypatch.setattr(ringbuffer, "_crc_ok", lambda *a: True)
        plan = FaultPlan.named("corrupt-5pct", horizon_us=HORIZON_US)
        run = run_harness(_config("gset"), plan=plan)
        assert run.injector.counts().get("corrupt", 0) > 0
        report = run.check()
        assert not report.ok, (
            "checker passed a corruption run with CRC verification "
            "patched out — the CRC layer would be unverifiable"
        )

    def test_flag_flipped_head_record_is_repaired(self):
        """The final record of a burst lands with its length MSB (the
        record flag) cleared at a live reader's head.  It must read as
        a hole, not be delivered, and the head-slot repair path must
        refill it from the writer's mirror and converge."""
        env = Environment()
        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3,
            config=RuntimeConfig(force_buffered=True),  # via F rings
        )
        for i in range(3):
            _add(env, cluster, "p1", i)
        env.run(until=env.now + 200.0)
        node = cluster.node("p2")
        reader = node.transport.f_readers["p1"]
        index = reader.head
        target = reader.offset_of(index)
        land = reader.region.write
        flipped = []

        def write(offset, payload):
            if not flipped and offset == target:
                payload = bytearray(payload)
                payload[3] ^= 0x80  # clear the record flag, nothing else
                flipped.append(offset)
            land(offset, bytes(payload))

        reader.region.write = write
        _add(env, cluster, "p1", 99)
        env.run(until=env.now + 50.0)
        assert flipped, "the record never landed at p2's head"
        # Not delivered: the head waits at a hole.
        assert reader.head == index and reader.record_at(index) is None
        env.run(until=env.now + 3000.0)
        assert sum(node.probe.snapshot()["slot_repairs"].values()) >= 1
        assert not cluster.failures()
        assert cluster.converged()
        assert set(cluster.applied_totals().values()) == {4}

    def test_scrubber_runs_under_corruption_and_checks(self):
        plan = FaultPlan.named("corrupt-5pct", horizon_us=HORIZON_US)
        config = replace(_config("gset"), scrub_interval_us=25.0)
        run = run_harness(config, plan=plan)
        assert run.settled
        assert _probe_total(run, "scrub_passes") > 0
        report = run.check()
        assert report.ok, report.summary()

    def test_same_seed_same_corruption_same_trace(self):
        """Byte-identical traces for the same seed: corruption draws
        come from the plan's substreams, not global state."""
        plan = FaultPlan.named("corrupt-crash", horizon_us=HORIZON_US)
        first = run_harness(_config("gset"), plan=plan)
        second = run_harness(_config("gset"), plan=plan)
        assert first.injector.log == second.injector.log
        first_events = [e for e in first.recorder.events()]
        second_events = [e for e in second.recorder.events()]
        assert first_events == second_events


# -- summary-slot repair ----------------------------------------------------------


class TestSummarySlotRepair:
    """A torn or corrupted summary slot is never replaced by anything but
    its owner's next summary write; a quiet owner writes none, so the
    reader re-reads the slot from its owner once the hole-detector
    patience runs out."""

    def _damaged(self, node_name="p1", owner="p2"):
        env = Environment()
        cluster = HambandCluster.build(env, counter_spec(), n_nodes=3)
        env.run(until=cluster.node(owner).submit("add", 5))
        env.run(until=env.now + 50.0)
        node = cluster.node(node_name)
        slot = node.applier.summary_readers[("adds", owner)]
        assert slot.read() is not None
        region = slot.region
        region.write(13, bytes([region.data[13] ^ 0x10]))  # same seq
        assert slot.read() is None and slot.damaged
        return env, cluster, node, slot

    def test_damaged_slot_is_re_read_from_its_owner(self):
        env, cluster, node, slot = self._damaged()
        env.run(until=env.now + 1000.0)
        assert slot.read() is not None and not slot.damaged
        snapshot = node.probe.snapshot()
        assert snapshot["slot_repairs"] == {"S:adds:p2": 1}
        assert snapshot["crc_rejects"] == {"S:adds:p2": 1}
        assert set(cluster.applied_totals().values()) == {1}
        assert {n.effective_state() for n in cluster.nodes.values()} == {5}

    def test_no_repair_before_the_patience_runs_out(self):
        env, _cluster, node, slot = self._damaged()
        env.run(until=env.now + 20.0)
        assert slot.damaged
        assert not node.probe.snapshot().get("slot_repairs")


class TestSummarySlotChaosCommands:
    """The REDUCE path under silent corruption, through the CLI: these
    runs used to exit 2 with ``settled: NO`` (a damaged slot stayed
    unreadable forever)."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "counter", "--faults", "corrupt-5pct", "--check",
         "--seed", "1"],
        ["chaos", "counter", "--faults", "corrupt-5pct", "--check",
         "--seed", "3"],
        ["chaos", "counter", "--faults", "corrupt-crash", "--nodes", "4",
         "--ops", "600", "--horizon", "600", "--live-check", "--check"],
    ])
    def test_counter_corruption_settles_and_checks(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "settled: yes" in out
        assert "gave up" not in out
