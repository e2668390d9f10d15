"""Sharded topology under faults: the isolation claim, end to end.

The ``shard-isolate`` preset partitions a minority inside one victim
shard (shard 0) of a sharded bank deployment, crashes the txn
coordinator's conflict leader *while the partition is still up*,
restarts it into the degraded shard, and only then heals — all while a
mixed commuting/conflicting transaction stream runs.  The overlap is
deliberate: the restarted node must rejoin through the authoritative
state-transfer path (the old sequenced preset never exercised the
L-ring gap).  The claims under test:

* the victim shard recovers and every per-shard obligation holds;
* cross-shard atomicity holds over the whole run;
* commuting transactions touching only *healthy* shards keep
  committing inside the fault window — isolated-shard faults must not
  stall them.
"""

import pytest

from repro.bench import ExperimentConfig
from repro.bench.runner import run_harness
from repro.sim import SHARDED_PLAN_NAMES, FaultPlan, resolve_plan

#: The sharded prologue (open + fund every account, then a 200us
#: replication pause) runs to ~285us of sim time; this horizon puts the
#: preset's fault window (0.20h-0.65h) squarely over live txn traffic.
HORIZON_US = 800.0


def _config(txn_mix=0.3, seed=5):
    return ExperimentConfig(
        system="hamband",
        workload="sharded-bank",
        n_nodes=3,
        total_ops=600,
        seed=seed,
        n_shards=4,
        txn_mix=txn_mix,
    )


def _fault_window(plan):
    times = [a.at_us for a in plan.actions]
    return min(times), max(times)


@pytest.fixture(scope="module")
def isolate_run():
    plan = FaultPlan.named(
        "shard-isolate", seed=5, n_nodes=3, horizon_us=HORIZON_US
    )
    return plan, run_harness(_config(), plan=plan)


class TestShardIsolate:
    def test_preset_is_registered(self):
        assert "shard-isolate" in SHARDED_PLAN_NAMES
        plan = resolve_plan(
            "shard-isolate", seed=1, n_nodes=3, horizon_us=HORIZON_US
        )
        assert plan.name == "shard-isolate"
        kinds = [a.kind for a in plan.actions]
        assert kinds == ["partition", "crash", "restart", "heal"]

    def test_converges_and_checks_under_shard_isolate(self, isolate_run):
        _plan, run = isolate_run
        assert run.settled
        assert run.result is not None, "did not quiesce"
        report = run.check()
        assert report.ok, report.summary()
        # The plan actually fired, and only against shard 0.
        counts = run.injector.counts()
        assert counts.get("crash") == 1 and counts.get("partition") == 1
        stats = run.cluster.stats()
        assert stats["s0"]["cluster"]["probe"]["faults"]
        for index in range(1, run.cluster.n_shards):
            shard_probe = stats[f"s{index}"]["cluster"]["probe"]
            assert not shard_probe["faults"]

    def test_mixed_stream_commits_or_aborts_cleanly(self, isolate_run):
        _plan, run = isolate_run
        counters = run.coordinator.counters
        assert counters["txns_locked"] > 0
        assert counters["txns_commuting"] > 0
        assert counters["commits"] > 0
        assert (
            counters["commits"] + counters["aborts"]
            == counters["txns_commuting"] + counters["txns_locked"]
        )

    def test_healthy_shards_commit_through_the_fault_window(
        self, isolate_run
    ):
        plan, run = isolate_run
        assert run.result is not None
        lo, hi = _fault_window(plan)
        in_window = [
            event for event in run.recorder.txn_events()
            if event.name == "COMMIT" and lo <= event.t <= hi
        ]
        assert in_window, "no commits at all inside the fault window"
        # Commuting txns confined to healthy shards during the window.
        healthy_commits = [
            event for event in in_window
            if event.method == "commuting"
            and "s0" not in event.gid.split("+")
        ]
        assert healthy_commits, (
            "isolated-shard faults stalled commuting txns on healthy "
            "shards"
        )
