"""Gray-failure integration: fail-slow faults, adaptive detection,
hedging, and slow-leader demotion — end to end.

Four layers of assurance:

1. every gray fault preset, driven through :func:`run_harness`,
   settles, converges, and passes BOTH the offline trace checker and
   the streaming live checker;
2. the mitigation is load-bearing: a fail-slow leader is demoted by a
   quorum of data-plane health detectors, while a control on the
   *identical* plan with degraded classification switched off never
   notices (the victim's heartbeat keeps beating — that is the gray
   failure);
3. determinism: same seed ⇒ byte-identical injector log and trace
   events;
4. unit seams: the retry cap and the hedged read are exercised
   directly against an armed injector, proving the probe counters the
   docs and the bench gate rely on actually fire where claimed.
"""

import math

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.datatypes import gset_spec
from repro.rdma import WcStatus
from repro.runtime import HambandCluster, heartbeat
from repro.runtime.config import OP_RETRY_LIMIT, f_region
from repro.sim import GRAY_PLAN_NAMES, Environment, FaultAction, FaultInjector, FaultPlan

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


def _probe_total(run, key):
    section = run.cluster.stats()["cluster"]["probe"].get(key) or {}
    return sum(section.values())


def _leaders(run, witness="p2"):
    node = run.cluster.node(witness)
    return {g: node.conflict.leader_of(g) for g in node.conflict.mu_groups}


class TestGrayChaosMatrix:
    @pytest.mark.parametrize("plan_name", GRAY_PLAN_NAMES)
    @pytest.mark.parametrize("workload", ["gset", "courseware"])
    def test_gray_plan_converges_and_checks_both_ways(
        self, plan_name, workload
    ):
        """Offline checker AND streaming checker, in one run."""
        plan = FaultPlan.named(plan_name, horizon_us=HORIZON_US)
        run = run_harness(_config(workload), plan=plan, live_check=True)
        assert run.settled, f"{plan_name}/{workload} never settled"
        assert run.injector.log, "the plan injected nothing"
        assert run.stream_report is not None and run.stream_report.ok, (
            run.stream_report.summary()
            if run.stream_report else "no stream report"
        )
        report = run.check()
        assert report.ok, report.summary()
        totals = set(run.cluster.applied_totals().values())
        assert len(totals) == 1


class TestSlowLeaderDemotion:
    def test_slow_leader_is_demoted(self):
        """The adaptive path: data-plane latency classifies the leader
        degraded, a quorum of votes carries the demotion, and the
        group re-elects away from the victim."""
        plan = FaultPlan.named("gray-leader", horizon_us=HORIZON_US)
        run = run_harness(_config("courseware"), plan=plan)
        assert run.settled
        leaders = _leaders(run)
        assert "p1" not in leaders.values(), (
            f"slow leader p1 still leads: {leaders}"
        )
        assert _probe_total(run, "peer_degraded") > 0
        assert run.check().ok

    def test_without_degraded_classification_nobody_notices(
        self, monkeypatch
    ):
        """Negative control: the identical plan with degraded
        classification switched off.  The victim's heartbeat keeps
        beating, so nothing is suspected, nothing is demoted — and the
        run still converges (slowly).  This is the proof the health
        tracker is load-bearing, not the fault being fatal on its own."""
        monkeypatch.setattr(heartbeat, "DEGRADED_FACTOR", math.inf)
        plan = FaultPlan.named("gray-leader", horizon_us=HORIZON_US)
        run = run_harness(_config("courseware"), plan=plan)
        assert run.settled
        leaders = _leaders(run)
        assert "p1" in leaders.values(), (
            f"the slow leader should keep leading: {leaders}"
        )
        assert _probe_total(run, "peer_degraded") == 0
        assert run.check().ok


class TestDeterminism:
    @pytest.mark.parametrize("plan_name", GRAY_PLAN_NAMES)
    def test_same_seed_same_trace(self, plan_name):
        """The gray machinery (phi suspicion, jittered retries, hedged
        reads) is seeded: the injector draws from plan substreams and
        the retry jitter from per-node seed substreams, never global
        state, so the same seed gives a byte-identical schedule."""
        plan = FaultPlan.named(plan_name, horizon_us=HORIZON_US)
        first = run_harness(_config("gset"), plan=plan)
        second = run_harness(_config("gset"), plan=plan)
        assert first.injector.log == second.injector.log
        assert list(first.recorder.events()) == list(
            second.recorder.events()
        )


# -- unit seams: retry cap and hedged reads -------------------------------


def _build_cluster(n_nodes):
    env = Environment()
    cluster = HambandCluster.build(env, gset_spec(), n_nodes=n_nodes)
    return env, cluster


def _arm(cluster, *actions):
    plan = FaultPlan(seed=3, name="unit", actions=tuple(actions))
    injector = FaultInjector(plan)
    injector.arm(cluster)
    return injector


class TestRetryWrite:
    def test_retries_run_to_the_attempt_cap(self):
        env, cluster = _build_cluster(2)
        _arm(cluster, FaultAction(
            at_us=0.0, kind="opfail", target="node:p2",
            until_us=100_000.0, rate=1.0,
        ))
        node = cluster.node("p1")
        done = []

        def driver():
            qp = node.rnode.qp_to("p2")
            region = node.rnode.region_of("p2", f_region("p1"))
            wc = yield from node.transport.retry_write(
                qp, region, 0, b"\x00" * 8, label="unit"
            )
            done.append(wc)

        env.process(driver(), name="unit-retry")
        env.run(until=50_000.0)
        assert done
        # One op_retry per failed attempt, final attempt included.
        counts = node.probe.snapshot()
        assert (counts["op_retries"].get("unit", 0)
                == OP_RETRY_LIMIT + 1)


class TestHedgedRead:
    def test_slow_primary_triggers_hedge_and_backup_wins(self):
        """A fail-slow window on the primary source stretches the first
        read past the hedge delay; the backup read is posted and wins.
        """
        env, cluster = _build_cluster(3)
        _arm(cluster, FaultAction(
            at_us=0.0, kind="slow", target="node:p2",
            until_us=100_000.0, rate=1.0, mult=50.0,
        ))
        node = cluster.node("p1")
        results = []

        def driver():
            # p2's F ring is replicated on p3: both hold the region.
            wc, source = yield from node.transport.hedged_read(
                ["p2", "p3"], f_region("p2"), 0,
                node.config.slot_size, label="unit",
            )
            results.append((wc.status, source))

        env.process(driver(), name="unit-hedge")
        env.run(until=5_000.0)
        assert results == [(WcStatus.SUCCESS, "p3")]
        assert node.probe.snapshot()["hedged_reads"].get("unit", 0) == 1
        assert node.probe.snapshot()["hedge_wins"].get("unit", 0) == 1

    def test_fast_primary_never_hedges(self):
        env, cluster = _build_cluster(3)
        node = cluster.node("p1")
        results = []

        def driver():
            wc, source = yield from node.transport.hedged_read(
                ["p2", "p3"], f_region("p2"), 0,
                node.config.slot_size, label="unit",
            )
            results.append((wc.status, source))

        env.process(driver(), name="unit-hedge")
        env.run(until=5_000.0)
        assert results == [(WcStatus.SUCCESS, "p2")]
        assert node.probe.snapshot()["hedged_reads"].get("unit", 0) == 0
        assert node.probe.snapshot()["hedge_wins"].get("unit", 0) == 0
