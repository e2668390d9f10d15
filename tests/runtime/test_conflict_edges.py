"""Conflict-path edge cases isolated by the layer split.

Two rare interleavings that used to hide inside the god-class:

1. **Demotion mid-batch** (``conf_batch > 1``): a deposed leader with a
   whole decision batch in flight must fail *every* queued client with
   a redirect, leave no transition in the recorded run, and keep σ
   untouched — the all-or-nothing commit discipline of the speculative
   accept.

2. **Hole detection after leader change**: a deposed leader that never
   processed the election (partitioned away) has a hole in its L-log
   copy; once the new leader's later records land beyond the hole, the
   exponential-probe hole detector must notice and trigger a
   self-repair that catches the node up.
"""

import pytest

from repro.core import concrete_events
from repro.datatypes import account_spec
from repro.runtime import (
    HambandCluster,
    NotLeaderError,
    RuntimeConfig,
    SubmitError,
    TraceRecorder,
)
from repro.sim import Environment


def deposed_leader_cluster(env, config=None, probe_factory=None):
    """A 4-node account cluster whose initial leader has been deposed
    by a partition-triggered election, then healed.  Returns (cluster,
    gid, old_leader, new_leader); the old leader still believes it
    leads."""
    cluster = HambandCluster.build(
        env, account_spec(), n_nodes=4, config=config,
        probe_factory=probe_factory,
    )
    env.run(until=cluster.node("p2").submit("deposit", 100))
    env.run(until=env.now + 200)
    gid = cluster.coordination.sync_group("withdraw").gid
    old_leader = cluster.leaders[gid]
    others = [n for n in cluster.node_names() if n != old_leader]
    cluster.partition([old_leader], others)
    env.run(until=env.now + 4000)  # suspicion + election on the majority
    cluster.heal()
    env.run(until=env.now + 1000)  # heartbeats clear suspicions
    new_leader = cluster.node(others[0]).current_leader("withdraw")
    assert new_leader != old_leader
    # The heal-path state transfer (correctly) teaches the deposed
    # leader who really leads now.  These tests need the rarer state —
    # a leader whose *belief* is stale while the followers have already
    # revoked its write permission — so re-impose the stale view
    # explicitly: belief only; the peers' revocations stay in force.
    mu = cluster.node(old_leader).conflict.mu_groups[gid]
    mu.leader = old_leader
    mu.is_leader = True
    assert cluster.node(old_leader).current_leader("withdraw") == old_leader
    return cluster, gid, old_leader, new_leader


class TestDemotionMidBatch:
    def test_whole_batch_fails_atomically_at_deposed_leader(self):
        """conf_batch=4: the deposed leader accepts a 3-call batch
        speculatively, fails replication on revoked permissions, and
        must (a) redirect every client, (b) contribute no CONF
        transition for the batch it posted, (c) leave σ untouched."""
        env = Environment()
        recorder = TraceRecorder(env)
        cluster, gid, old_leader, new_leader = deposed_leader_cluster(
            env, config=RuntimeConfig(conf_batch=4),
            probe_factory=recorder.probe_factory,
        )
        trace_before = len(recorder.events())
        requests = [
            cluster.node(old_leader).submit("withdraw", 1) for _ in range(3)
        ]
        outcomes = []
        for request in requests:
            with pytest.raises(SubmitError) as info:
                env.run(until=request)
            outcomes.append(info.value)
        # (a) every queued client bounced with a useful redirect.
        redirects = [o for o in outcomes if isinstance(o, NotLeaderError)]
        assert redirects, "at least one client must get the redirect"
        assert all(r.leader == new_leader for r in redirects)
        # (b) the batch was posted (its L xfers are in the trace) but
        # never committed, so the run's transitions hold no CONF for it.
        batch_trace = recorder.events()[trace_before:]
        posted = [
            e for e in batch_trace
            if e.kind == "xfer" and e.name == f"L:{gid}"
            and e.node == old_leader
        ]
        assert posted
        conf_events = [
            e for e in concrete_events(batch_trace)
            if e.rule == "CONF" and e.process == old_leader
        ]
        assert conf_events == []
        # (c) no partial application anywhere: the balance is intact.
        env.run(until=env.now + 1000)
        assert cluster.node(new_leader).effective_state() == 100
        # The failed batch never counts as decided.
        probe = cluster.node(old_leader).stats()["probe"]
        assert probe["conflict_batches"].get(gid, 0) == 0

    def test_new_leader_batches_after_takeover(self):
        """After the failover, the new leader's worker batches a burst
        in one decision and the run still converges."""
        env = Environment()
        cluster, gid, _old_leader, new_leader = deposed_leader_cluster(
            env, config=RuntimeConfig(conf_batch=4)
        )
        requests = [
            cluster.node(new_leader).submit("withdraw", 2) for _ in range(4)
        ]
        for request in requests:
            env.run(until=request)
        env.run(until=env.now + 3000)
        probe = cluster.node(new_leader).stats()["probe"]
        assert probe["conflict_batches"].get(gid, 0) >= 1
        assert probe["conflict_batch_max"].get(gid, 0) > 1
        live = [n for n in cluster.node_names()]
        states = {n: cluster.node(n).effective_state() for n in live}
        assert states[new_leader] == 100 - 8

    def test_requeued_call_survives_demotion(self):
        """A call parked on permissibility retries when the leader is
        deposed must still terminate (redirect), not hang."""
        env = Environment()
        cluster = HambandCluster.build(
            env, account_spec(), n_nodes=4,
            config=RuntimeConfig(conf_batch=2, conf_retry_limit=100000),
        )
        env.run(until=env.now + 100)
        gid = cluster.coordination.sync_group("withdraw").gid
        old_leader = cluster.leaders[gid]
        others = [n for n in cluster.node_names() if n != old_leader]
        # Impermissible (balance 0): parks in the retry loop.
        parked = cluster.node(old_leader).submit("withdraw", 5)
        env.run(until=env.now + 50)
        assert cluster.node(old_leader).stats()["probe"][
            "conflict_retries"
        ].get(gid, 0) > 0
        cluster.partition([old_leader], others)
        env.run(until=env.now + 4000)  # the majority elects a new leader
        cluster.heal()
        with pytest.raises(SubmitError):
            env.run(until=parked)


class TestHoleDetectionAfterLeaderChange:
    def test_partitioned_ex_leader_repairs_log_hole(self):
        """The ex-leader's L copy has holes (records decided while it
        was cut off were never written to it).  New records landing
        beyond the hole must trip the detector and the self-repair
        catch-up."""
        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=4)
        env.run(until=cluster.node("p2").submit("deposit", 100))
        env.run(until=env.now + 200)
        gid = cluster.coordination.sync_group("withdraw").gid
        old_leader = cluster.leaders[gid]
        others = [n for n in cluster.node_names() if n != old_leader]
        # Record 0: decided by the old leader (applied at commit; its
        # own ring keeps a copy as a repair source).
        env.run(until=cluster.node(old_leader).submit("withdraw", 10))
        env.run(until=env.now + 300)
        cluster.partition([old_leader], others)
        env.run(until=env.now + 4000)
        new_leader = cluster.node(others[0]).current_leader("withdraw")
        # Record(s) decided while the ex-leader is unreachable: a hole
        # in its copy forever (the write was lost).
        env.run(until=cluster.node(new_leader).submit("withdraw", 10))
        # The heal path now runs the unified state transfer, which would
        # repair the hole up front.  This test exercises the *detector*
        # (probe-ahead on live traffic), so sever the heal-resync seams
        # at the ex-leader and leave the hole in place.
        exl = cluster.node(old_leader)
        exl.detector.on_clear = None
        exl.control.on_resync = None
        cluster.heal()
        env.run(until=env.now + 1000)
        # The ex-leader learns the new leader (failed submit + discovery)
        # and thereby grants it write permission on its L region.
        failed = cluster.node(old_leader).submit("withdraw", 1)
        with pytest.raises(SubmitError):
            env.run(until=failed)
        assert (
            cluster.node(old_leader).current_leader("withdraw") == new_leader
        )
        # New records now land in the ex-leader's ring BEYOND the hole.
        env.run(until=cluster.node(new_leader).submit("withdraw", 10))
        env.run(until=cluster.node(new_leader).submit("withdraw", 10))
        # Give the poller its patience to probe ahead.
        env.run(until=env.now + 6000)
        assert cluster.node(old_leader).effective_state() == 100 - 40
        probe = cluster.node(old_leader).stats()["probe"]
        assert probe["hole_repairs"].get(f"L:{gid}", 0) >= 1
        assert cluster.failures() == []
