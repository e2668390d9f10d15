"""Elastic membership end to end: join, leave, and the shared engine.

The claims under test:

* a node joined into a live cluster bulk-reads the committed F-ring
  prefixes and the L log from authoritative copies, flips live at
  parity, and the run passes the offline checker — with the
  ``member_join`` / ``state_xfer`` events visible in the trace;
* scaling in the current conflict leader forces a re-election the
  remaining quorum rides out, and the checkers excuse the departed
  node from convergence;
* the negative control — a joiner flipped live with the transfer
  disabled and the self-heal seams severed — FAILS the checker, so
  the membership gate is not vacuous;
* ``HambandCluster.restart`` and ``ShardedCluster.restart`` both
  delegate to the same :class:`StateTransfer` engine and land the
  restarted node on byte-identical state;
* the seed-7 L-ring regression: a minority node partitioned across a
  leader change (the ``shard-isolate`` overlap) converges after the
  heal — the exact scenario that used to wedge on the stale leader's
  write permission.
"""

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.datatypes import SPEC_FACTORIES, gset_spec
from repro.runtime import (
    HambandCluster,
    ShardedCluster,
    StateTransfer,
    StreamingChecker,
    TraceChecker,
    TraceRecorder,
    encode_value,
)
from repro.sim import Environment, FaultPlan


def _recorded(spec, n_nodes=3):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 18)
    cluster = HambandCluster.build(
        env, spec, n_nodes=n_nodes,
        probe_factory=recorder.probe_factory,
    )
    recorder.attach(cluster.coordination)
    return env, recorder, cluster


def _add(env, cluster, name, value, method="add"):
    env.run(until=cluster.node(name).submit(method, value))


def _check(recorder, cluster):
    checker = TraceChecker(
        cluster.coordination, processes=cluster.node_names()
    )
    return checker.check(recorder.events(), dropped=recorder.dropped())


def _member_names(recorder):
    return [e.name for e in recorder.events() if e.kind == "member"]


class TestScaleOut:
    def test_join_converges_and_checks(self):
        env, recorder, cluster = _recorded(gset_spec())
        for i in range(6):
            _add(env, cluster, f"p{1 + i % 3}", i)
        env.run(until=env.now + 300.0)

        joiner = cluster.add_node("p4")
        assert joiner.failed, "joiner must refuse requests mid-transfer"
        env.run(until=env.now + 6000.0)
        assert not joiner.failed, "transfer never flipped the joiner live"
        for i in range(4):
            _add(env, cluster, f"p{1 + i % 4}", 100 + i)
        env.run(until=env.now + 2000.0)

        assert not cluster.failures()
        totals = cluster.applied_totals()
        assert len(set(totals.values())) == 1, totals
        states = cluster.effective_states()
        assert encode_value(states["p4"]) == encode_value(states["p1"])
        assert cluster.epoch.version == 1
        assert "p4" in cluster.epoch.members
        names = _member_names(recorder)
        assert "member_join" in names and "state_xfer" in names
        report = _check(recorder, cluster)
        assert report.ok, report.summary()

    def test_negative_control_join_without_transfer_fails_checker(self):
        """Disable the transfer: the joiner flips live provably behind
        and the checker must say so — proof the membership gate is not
        vacuous.  Nothing else heals it: the history it lacks ends each
        ring, so the hole detector finds no record ahead of a hole, and
        no peer asks it to resync."""
        env, recorder, cluster = _recorded(gset_spec())
        for i in range(6):
            _add(env, cluster, f"p{1 + i % 3}", i)
        env.run(until=env.now + 300.0)

        cluster.add_node("p4", transfer=False)
        env.run(until=env.now + 6000.0)

        totals = cluster.applied_totals()
        assert totals["p4"] < totals["p1"], (
            "without the transfer the joiner must miss the history"
        )
        report = _check(recorder, cluster)
        assert not report.ok, (
            "checker passed a join whose state transfer was disabled — "
            "the membership gate would be vacuous"
        )
        assert any(
            violation.kind == "convergence"
            for violation in report.violations
        ), report.summary()


class TestScaleIn:
    def test_leader_leave_reelects_and_converges(self):
        env, recorder, cluster = _recorded(
            SPEC_FACTORIES["courseware"](), n_nodes=4
        )
        for i in range(6):
            _add(env, cluster, f"p{1 + i % 4}", f"s{i}",
                 method="registerStudent")
        env.run(until=env.now + 300.0)

        observer = cluster.node("p1")
        gids = sorted(observer.conflict.mu_groups)
        assert gids, "courseware must have sync groups"
        victim = observer.conflict.leader_of(gids[0])
        observer = cluster.node(
            next(n for n in cluster.node_names() if n != victim)
        )
        cluster.remove_node(victim)
        assert victim in cluster.departed
        assert cluster.epoch.version == 1
        assert victim not in cluster.epoch.members

        # The staggered campaign machinery must elect a live leader.
        deadline = env.now + 20_000.0
        while env.now < deadline:
            leaders = {
                observer.conflict.leader_of(gid)
                for gid in observer.conflict.mu_groups
            }
            if victim not in leaders and leaders <= set(cluster.nodes):
                break
            env.run(until=env.now + 200.0)
        else:
            pytest.fail(f"no re-election away from {victim}")

        survivors = cluster.node_names()
        for i in range(4):
            _add(env, cluster, survivors[i % len(survivors)], f"t{i}",
                 method="registerStudent")
        env.run(until=env.now + 2000.0)

        assert not cluster.failures()
        assert cluster.converged()
        assert "member_leave" in _member_names(recorder)
        report = _check(recorder, cluster)
        assert report.ok, report.summary()


OPS = 400
HORIZON_US = 800.0


def _config(workload, n_nodes, seed=2):
    return ExperimentConfig(
        system="hamband",
        workload=workload,
        n_nodes=n_nodes,
        total_ops=OPS,
        update_ratio=0.25,
        seed=seed,
    )


class TestMembershipPresets:
    """The two checker-gated chaos-matrix entries, driven exactly as CI
    drives them (streaming checker live, offline checker after)."""

    def test_scale_out_during_partition_checks(self):
        plan = FaultPlan.named(
            "scale-out-partition", n_nodes=3, horizon_us=HORIZON_US
        )
        run = run_harness(_config("gset", 3), plan=plan, live_check=True)
        assert run.settled, "scale-out run never settled"
        assert run.injector.counts().get("join") == 1
        assert "p4" in run.cluster.nodes
        assert run.cluster.epoch.version == 1
        assert run.stream_report is not None and run.stream_report.ok, (
            run.stream_report.summary() if run.stream_report else "no report"
        )
        report = run.check()
        assert report.ok, report.summary()
        names = [
            e.name for e in run.recorder.events() if e.kind == "member"
        ]
        assert "member_join" in names and "state_xfer" in names

    def test_scale_in_leader_checks(self):
        plan = FaultPlan.named(
            "scale-in-leader", n_nodes=4, horizon_us=HORIZON_US
        )
        run = run_harness(_config("courseware", 4), plan=plan, live_check=True)
        assert run.settled, "scale-in run never settled"
        assert run.injector.counts().get("leave") == 1
        departed = run.injector.log[0][2]
        assert departed in run.cluster.departed
        assert len(run.cluster.nodes) == 3
        # The remaining quorum elected leaders among themselves.
        observer = run.cluster.nodes[sorted(run.cluster.nodes)[0]]
        for gid in observer.conflict.mu_groups:
            assert observer.conflict.leader_of(gid) in run.cluster.nodes
        assert run.stream_report is not None and run.stream_report.ok, (
            run.stream_report.summary() if run.stream_report else "no report"
        )
        report = run.check()
        assert report.ok, report.summary()
        names = [
            e.name for e in run.recorder.events() if e.kind == "member"
        ]
        assert "member_leave" in names


class TestRestartParity:
    """Both restart paths delegate to the one StateTransfer engine and
    land the restarted node on byte-identical state."""

    @pytest.fixture
    def transfer_spy(self, monkeypatch):
        reasons = []
        original = StateTransfer.run

        def spy(self, *args, **kwargs):
            reasons.append(kwargs.get("reason", "state-transfer"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StateTransfer, "run", spy)
        return reasons

    def test_flat_restart_uses_engine_and_matches_bytes(
        self, transfer_spy
    ):
        env, recorder, cluster = _recorded(gset_spec())
        for i in range(4):
            _add(env, cluster, f"p{1 + i % 3}", i)
        env.run(until=env.now + 300.0)
        cluster.crash("p3")
        env.run(until=env.now + 500.0)
        for i in range(4):
            _add(env, cluster, ["p1", "p2"][i % 2], 100 + i)
        env.run(until=env.now + 500.0)
        cluster.restart("p3")
        env.run(until=env.now + 6000.0)

        assert "restart" in transfer_spy
        assert not cluster.failures()
        states = cluster.effective_states()
        assert encode_value(states["p3"]) == encode_value(states["p1"])
        report = _check(recorder, cluster)
        assert report.ok, report.summary()

    def test_sharded_restart_uses_the_same_engine(self, transfer_spy):
        env = Environment()
        cluster = ShardedCluster.build(
            env, gset_spec(), n_shards=2, n_nodes=3
        )
        for i in range(4):
            env.run(
                until=cluster.node(f"s0/p{1 + i % 3}").submit("add", i)
            )
        env.run(until=env.now + 300.0)
        cluster.crash("s0/p3")
        env.run(until=env.now + 500.0)
        for i in range(4):
            env.run(
                until=cluster.node(f"s0/p{1 + i % 2}").submit(
                    "add", 100 + i
                )
            )
        env.run(until=env.now + 500.0)
        cluster.restart("s0/p3")
        env.run(until=env.now + 6000.0)

        assert "restart" in transfer_spy
        assert not cluster.failures()
        shard = cluster.shard(0)
        states = shard.effective_states()
        assert encode_value(states["p3"]) == encode_value(states["p1"])


@pytest.fixture(scope="module")
def seed7_run():
    """The exact L-ring reproducer: seed 7, sharded bank with a 0.5 txn
    mix, and the overlapped shard-isolate schedule — partition a
    minority in shard 0, crash the conflict leader *while the partition
    is up*, restart it into the degraded shard, then heal."""
    config = ExperimentConfig(
        system="hamband",
        workload="sharded-bank",
        n_nodes=3,
        total_ops=OPS,
        seed=7,
        n_shards=4,
        txn_mix=0.5,
    )
    plan = FaultPlan.named(
        "shard-isolate", seed=7, n_nodes=3, horizon_us=HORIZON_US
    )
    return run_harness(config, plan=plan)


class TestSeed7LRingRegression:
    """Before the authoritative state-transfer rejoin, this exact run
    wedged: the partitioned minority node kept granting the OLD leader
    Mu write permission across the leader change and leader-ordered
    records bounced off it forever."""

    def test_settles_and_offline_checker_clean(self, seed7_run):
        run = seed7_run
        assert run.result is not None, "seed-7 run did not quiesce"
        assert run.settled, "seed-7 run never settled (the L-ring wedge)"
        report = run.check()
        assert report.ok, report.summary()

    def test_plan_is_the_overlapped_schedule(self, seed7_run):
        kinds = [a.kind for a in seed7_run.plan.actions]
        assert kinds == ["partition", "crash", "restart", "heal"]
        times = [a.at_us for a in seed7_run.plan.actions]
        # The crash lands inside the partition window — the overlap IS
        # the regression (a sequenced schedule never hits the gap).
        assert times[1] < times[3]

    def test_streaming_checker_clean_per_shard(self, seed7_run):
        run = seed7_run
        shard_events = run.recorder.shard_events()
        assert shard_events, "no per-shard events recorded"
        for index, events in sorted(shard_events.items()):
            shard = run.cluster.shard(index)
            checker = StreamingChecker(
                shard.coordination,
                processes=shard.node_names(),
                strict_seq=False,
            )
            for event in events:
                checker.feed(event)
            report = checker.finish()
            assert report.ok, f"s{index}: {report.summary()}"
