"""Gray-failure integration: fail-slow faults, adaptive detection,
hedging, and slow-leader demotion — end to end.

Four layers of assurance:

1. every gray fault preset, driven through :func:`run_harness` under the
   adaptive (phi-accrual) detector, settles, converges, and passes BOTH
   the offline trace checker and the streaming live checker;
2. the mitigation is load-bearing: under ``fd_mode="phi"`` a fail-slow
   leader is demoted by a quorum of data-plane health detectors, while
   the fixed-timeout control on the *identical* plan never notices
   (the victim's heartbeat keeps beating — that is the gray failure);
3. byte-compat: in fixed mode the gray machinery is fully dormant —
   same seed ⇒ byte-identical injector log and trace events;
4. unit seams: the retry budget and the hedged read are exercised
   directly against an armed injector, proving the probe counters the
   docs and the bench gate rely on actually fire where claimed.
"""

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.datatypes import gset_spec
from repro.rdma import WcStatus
from repro.runtime import HambandCluster, RuntimeConfig
from repro.runtime.config import f_region
from repro.sim import GRAY_PLAN_NAMES, Environment, FaultAction, FaultInjector, FaultPlan

OPS = 400
HORIZON_US = 500.0


def _config(workload, fd_mode="phi"):
    return ExperimentConfig(
        system="hamband",
        workload=workload,
        n_nodes=4,
        total_ops=OPS,
        update_ratio=0.25,
        seed=2,
        fd_mode=fd_mode,
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
    def test_phi_mode_demotes_the_slow_leader(self):
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

    def test_fixed_mode_never_notices_the_gray_failure(self):
        """Negative control: the identical plan under the fixed timeout.
        The victim's heartbeat keeps beating, so nothing is suspected,
        nothing is demoted — and the run still converges (slowly).
        This is the proof the phi detector is load-bearing, not the
        fault being fatal on its own."""
        plan = FaultPlan.named("gray-leader", horizon_us=HORIZON_US)
        run = run_harness(_config("courseware", fd_mode="fixed"), plan=plan)
        assert run.settled
        leaders = _leaders(run)
        assert "p1" in leaders.values(), (
            f"fixed mode should keep the slow leader: {leaders}"
        )
        assert _probe_total(run, "peer_degraded") == 0
        assert _probe_total(run, "hedged_reads") == 0
        assert run.check().ok


class TestFixedModeByteCompat:
    @pytest.mark.parametrize("plan_name", GRAY_PLAN_NAMES)
    def test_same_seed_same_trace_in_fixed_mode(self, plan_name):
        """With the gray machinery dormant the run is still seeded and
        byte-identical — the injector draws from plan substreams, not
        global state, and no phi-only code path perturbs the schedule.
        """
        plan = FaultPlan.named(plan_name, horizon_us=HORIZON_US)
        first = run_harness(_config("gset", fd_mode="fixed"), plan=plan)
        second = run_harness(_config("gset", fd_mode="fixed"), plan=plan)
        assert first.injector.log == second.injector.log
        assert list(first.recorder.events()) == list(
            second.recorder.events()
        )


# -- unit seams: retry budget and hedged reads ----------------------------


def _build_cluster(n_nodes, fd_mode="phi", **overrides):
    env = Environment()
    config = RuntimeConfig(fd_mode=fd_mode, **overrides)
    cluster = HambandCluster.build(
        env, gset_spec(), n_nodes=n_nodes, config=config
    )
    return env, cluster


def _arm(cluster, *actions):
    plan = FaultPlan(seed=3, name="unit", actions=tuple(actions))
    injector = FaultInjector(plan)
    injector.arm(cluster)
    return injector


class TestRetryBudget:
    def test_budget_exhaustion_is_distinct_from_retry(self):
        """A permanent opfail window exhausts the cumulative-backoff
        budget: ``op_retry`` fires per attempt, and the budget
        surfaces separately as ``retry_budget_exhausted``."""
        env, cluster = _build_cluster(2, retry_budget_us=6.0)
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
        env.run(until=5_000.0)
        assert done and done[0].status is not WcStatus.SUCCESS
        counts = node.probe.snapshot()
        assert counts["op_retries"].get("unit", 0) >= 1
        assert counts["retry_budget_exhausted"].get("unit", 0) == 1

    def test_without_budget_retries_run_to_the_attempt_cap(self):
        env, cluster = _build_cluster(2, retry_budget_us=0.0)
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
                == node.config.op_retry_limit + 1)
        assert counts["retry_budget_exhausted"].get("unit", 0) == 0


class TestHedgedRead:
    def test_slow_primary_triggers_hedge_and_backup_wins(self):
        """A fail-slow window on the primary source stretches the first
        read past the hedge delay; the backup read is posted and wins.
        """
        env, cluster = _build_cluster(3, hedge_delay_us=8.0)
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
        env, cluster = _build_cluster(3, hedge_delay_us=8.0)
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
