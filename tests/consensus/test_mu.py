"""Tests for the Mu-style consensus: replication, permissions, failover."""

import pytest

from repro.datatypes import account_spec, courseware_spec, movie_spec
from repro.rdma import WcStatus
from repro.runtime import HambandCluster, NotLeaderError, RuntimeConfig
from repro.sim import Environment, FaultDecision


def build(spec, n=4, **kwargs):
    env = Environment()
    cluster = HambandCluster.build(env, spec, n_nodes=n, **kwargs)
    return env, cluster


def finish(env, event):
    return env.run(until=event)


class TestReplication:
    def test_decision_reaches_all_followers(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p2").submit("deposit", 50))
        leader = cluster.node("p1").current_leader("withdraw")
        finish(env, cluster.node(leader).submit("withdraw", 5))
        env.run(until=env.now + 300)
        assert cluster.effective_states() == {
            n: 45 for n in cluster.node_names()
        }

    def test_decided_counter_advances(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p1").submit("deposit", 50))
        leader = cluster.node("p1").current_leader("withdraw")
        mu = cluster.node(leader).conflict.mu_groups[
            cluster.coordination.sync_group("withdraw").gid
        ]
        before = mu.decided
        finish(env, cluster.node(leader).submit("withdraw", 1))
        assert mu.decided == before + 1

    def test_followers_have_no_write_permission_initially(self):
        env, cluster = build(account_spec())
        gid = cluster.coordination.sync_group("withdraw").gid
        leader = cluster.leaders[gid]
        follower = next(n for n in cluster.node_names() if n != leader)
        from repro.consensus.mu import mu_channel

        qp = cluster.fabric.nodes[follower].qp_to(leader, mu_channel(gid))
        # The follower's outgoing Mu QP toward anyone must be blocked.
        other = next(
            n for n in cluster.node_names() if n not in (leader, follower)
        )
        qp2 = cluster.fabric.nodes[follower].qp_to(other, mu_channel(gid))
        assert not qp2.write_permitted

    def test_majority_sufficient_with_one_dead_follower(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p1").submit("deposit", 50))
        leader = cluster.node("p1").current_leader("withdraw")
        dead = next(n for n in cluster.node_names() if n != leader)
        cluster.crash(dead)
        finish(env, cluster.node(leader).submit("withdraw", 5))
        env.run(until=env.now + 300)
        survivors = [n for n in cluster.node_names() if n != dead]
        states = {
            n: cluster.node(n).effective_state() for n in survivors
        }
        assert states == {n: 45 for n in survivors}


class TestLeaderChange:
    def test_follower_campaigns_and_wins(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p2").submit("deposit", 100))
        gid = cluster.coordination.sync_group("withdraw").gid
        old_leader = cluster.leaders[gid]
        finish(env, cluster.node(old_leader).submit("withdraw", 5))
        env.run(until=env.now + 200)
        cluster.crash(old_leader)
        env.run(until=env.now + 3000)  # detect + campaign
        survivors = [n for n in cluster.node_names() if n != old_leader]
        new_leader = cluster.node(survivors[0]).current_leader("withdraw")
        assert new_leader != old_leader
        assert all(
            cluster.node(n).current_leader("withdraw") == new_leader
            for n in survivors
        )

    def test_new_leader_serves_after_failover(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p2").submit("deposit", 100))
        gid = cluster.coordination.sync_group("withdraw").gid
        old_leader = cluster.leaders[gid]
        cluster.crash(old_leader)
        env.run(until=env.now + 3000)
        survivors = [n for n in cluster.node_names() if n != old_leader]
        new_leader = cluster.node(survivors[0]).current_leader("withdraw")
        finish(env, cluster.node(new_leader).submit("withdraw", 30))
        env.run(until=env.now + 500)
        states = {n: cluster.node(n).effective_state() for n in survivors}
        assert states == {n: 70 for n in survivors}

    def test_deposed_leader_loses_write_permission(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p2").submit("deposit", 100))
        gid = cluster.coordination.sync_group("withdraw").gid
        old_leader = cluster.leaders[gid]
        # Only the heartbeat stops (not the full failure injection):
        # the old leader keeps serving, so its next replication attempt
        # exercises the permission-revocation path.
        cluster.nodes[old_leader].heartbeat.suspend()
        env.run(until=env.now + 3000)
        survivors = [n for n in cluster.node_names() if n != old_leader]
        new_leader = cluster.node(survivors[0]).current_leader("withdraw")
        assert new_leader != old_leader
        # The deposed leader's next replication attempt is rejected.
        request = cluster.node(old_leader).submit("withdraw", 1)
        with pytest.raises(Exception):
            finish(env, request)
        mu = cluster.node(old_leader).conflict.mu_groups[gid]
        assert not mu.is_leader

    def test_committed_entries_survive_failover(self):
        """Entries the old leader replicated are applied by the new one."""
        env, cluster = build(account_spec())
        finish(env, cluster.node("p2").submit("deposit", 100))
        gid = cluster.coordination.sync_group("withdraw").gid
        old_leader = cluster.leaders[gid]
        for _ in range(3):
            finish(env, cluster.node(old_leader).submit("withdraw", 10))
        # Crash immediately; followers may not have applied yet.
        cluster.crash(old_leader)
        env.run(until=env.now + 4000)
        survivors = [n for n in cluster.node_names() if n != old_leader]
        states = {n: cluster.node(n).effective_state() for n in survivors}
        assert states == {n: 70 for n in survivors}

    def test_conflict_free_traffic_unaffected_by_leader_failure(self):
        env, cluster = build(courseware_spec())
        gid = cluster.coordination.sync_group("enroll").gid
        leader = cluster.leaders[gid]
        cluster.crash(leader)
        env.run(until=env.now + 500)
        other = next(n for n in cluster.node_names() if n != leader)
        before = env.now
        finish(env, cluster.node(other).submit("registerStudent", "s9"))
        # An irreducible conflict-free call completes in a few us even
        # while the conflicting group has no live leader.
        assert env.now - before < 20

    def test_new_leader_survives_stale_predecessor_permission_error(self):
        """A heartbeat-suspended (but alive) old leader never votes, so
        it still rejects the new leader's writes — a stray permission
        error that must NOT depose a leader holding a majority."""
        env, cluster = build(courseware_spec())
        gid = cluster.coordination.sync_group("enroll").gid
        old_leader = cluster.leaders[gid]
        cluster.suspend_heartbeat(old_leader)  # alive, just suspected
        env.run(until=env.now + 3000)
        survivors = [n for n in cluster.node_names() if n != old_leader]
        new_leader = cluster.node(survivors[0]).current_leader("enroll")
        assert new_leader != old_leader
        # Several decisions in a row: each sees the stale node's
        # permission error and must keep the leadership anyway.
        for i in range(3):
            finish(
                env, cluster.node(new_leader).submit("addCourse", f"c{i}")
            )
        mu = cluster.node(new_leader).conflict.mu_groups[gid]
        assert mu.is_leader

    def test_campaign_giveup_is_counted_and_traced(self, monkeypatch):
        """Every campaign loses: each candidate gives up after its
        retry limit while the suspect still leads, and says so — one
        ``campaign`` count in ``giveups`` and one ``giveup`` trace event
        per candidate, tagged with the group."""
        from repro.consensus.mu import MuGroup
        from repro.runtime import TraceRecorder
        from repro.runtime.conflict import CAMPAIGN_RETRY_LIMIT

        campaigns = []

        def always_lose(mu, suspected):
            campaigns.append(mu.node.name)
            yield mu.env.timeout(1.0)
            return False

        monkeypatch.setattr(MuGroup, "campaign", always_lose)
        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, courseware_spec(), n_nodes=4,
            probe_factory=recorder.probe_factory,
        )
        recorder.attach(cluster.coordination)
        gid = cluster.coordination.sync_group("enroll").gid
        leader = cluster.leaders[gid]
        cluster.suspend_heartbeat(leader)
        env.run(until=env.now + 10_000)
        candidates = [n for n in cluster.node_names() if n != leader]
        assert sorted(campaigns) == sorted(
            candidates * CAMPAIGN_RETRY_LIMIT
        )
        for name in candidates:
            node = cluster.node(name)
            assert node.current_leader("enroll") == leader
            giveups = node.stats()["probe"]["giveups"]
            assert giveups == {"campaign": 1}
        events = [e for e in recorder.events() if e.kind == "giveup"]
        assert sorted(e.node for e in events) == candidates
        assert {(e.name, e.origin, e.gid) for e in events} == {
            ("campaign", leader, gid)
        }

    def test_two_groups_fail_over_independently(self):
        env, cluster = build(movie_spec())
        gid_customers = cluster.coordination.sync_group("addCustomer").gid
        gid_movies = cluster.coordination.sync_group("addMovie").gid
        leader_c = cluster.leaders[gid_customers]
        leader_m = cluster.leaders[gid_movies]
        assert leader_c != leader_m
        cluster.crash(leader_c)
        env.run(until=env.now + 3000)
        # The movies group keeps its leader.
        survivor = next(
            n for n in cluster.node_names() if n not in (leader_c, leader_m)
        )
        assert cluster.node(survivor).current_leader("addMovie") == leader_m
        assert cluster.node(survivor).current_leader("addCustomer") != leader_c
        finish(env, cluster.node(leader_m).submit("addMovie", "heat"))


class TestLeaderLogCopy:
    def test_record_damaged_at_every_follower_is_repaired_from_leader(self):
        """Both followers' copies of one decided record land corrupted:
        the leader's own log copy (written locally at commit, never on
        the wire) is the repair source, so nobody wedges at the hole."""
        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=3)
        finish(env, cluster.node("p2").submit("deposit", 100))
        env.run(until=env.now + 200)
        gid = cluster.coordination.sync_group("withdraw").gid
        leader = cluster.leaders[gid]
        armed = [True]

        def corrupt_leader_writes(op, src, dst, nbytes):
            if armed[0] and op == "write" and src == leader:
                return FaultDecision("corrupt", flips=((nbytes // 2, 1),))
            return None

        cluster.fabric.fault_hook = corrupt_leader_writes
        finish(env, cluster.node(leader).submit("withdraw", 10))
        armed[0] = False
        env.run(until=env.now + 2000)
        assert {
            cluster.node(name).effective_state()
            for name in cluster.node_names()
        } == {90}
        for name in cluster.node_names():
            if name == leader:
                continue
            probe = cluster.node(name).stats()["probe"]
            assert probe["crc_rejects"] == {f"L:{gid}": 1}
            assert probe["slot_repairs"] == {f"L:{gid}": 1}
