"""Tests for the SMR baseline (the all-conflicting coordination)."""

import pytest

from repro.core import Category
from repro.datatypes import account_spec, counter_spec, movie_spec
from repro.sim import Environment
from repro.smr import SmrCluster, smr_coordination


class TestSmrCoordination:
    def test_every_method_conflicting(self):
        coordination = smr_coordination(movie_spec())
        for method in coordination.relations.methods:
            assert coordination.category(method) is Category.CONFLICTING

    def test_single_sync_group(self):
        coordination = smr_coordination(movie_spec())
        groups = coordination.sync_groups()
        assert len(groups) == 1
        assert groups[0].methods == frozenset(coordination.relations.methods)

    def test_no_dependencies(self):
        """Total order preserves all orders: Dep is redundant."""
        coordination = smr_coordination(account_spec())
        assert all(
            not coordination.dep(m)
            for m in coordination.relations.methods
        )

    def test_complete_conflict_relation(self):
        coordination = smr_coordination(movie_spec())
        methods = coordination.relations.methods
        for u1 in methods:
            for u2 in methods:
                assert coordination.relations.conflict(u1, u2)


class TestSmrCluster:
    def test_even_commutative_updates_go_through_leader(self):
        env = Environment()
        cluster = SmrCluster.build_smr(env, counter_spec(), n_nodes=3)
        leader = cluster.node("p1").current_leader("add")
        follower = next(n for n in cluster.node_names() if n != leader)
        from repro.runtime import NotLeaderError

        request = cluster.node(follower).submit("add", 1)
        with pytest.raises(NotLeaderError):
            env.run(until=request)

    def test_strong_consistency_of_account(self):
        env = Environment()
        cluster = SmrCluster.build_smr(env, account_spec(), n_nodes=3)
        leader = cluster.node("p1").current_leader("deposit")
        env.run(until=cluster.node(leader).submit("deposit", 10))
        env.run(until=cluster.node(leader).submit("withdraw", 4))
        env.run(until=env.now + 300)
        assert cluster.effective_states() == {"p1": 6, "p2": 6, "p3": 6}

    def test_total_order_means_refinement_trivially_holds(self):
        from repro.runtime import TraceRecorder

        env = Environment()
        recorder = TraceRecorder(env)
        cluster = SmrCluster.build_smr(
            env, movie_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        leader = cluster.node("p1").current_leader("addMovie")
        for i in range(5):
            env.run(until=cluster.node(leader).submit("addMovie", f"m{i}"))
            env.run(
                until=cluster.node(leader).submit("deleteMovie", f"m{i}")
            )
        env.run(until=env.now + 400)
        assert cluster.converged()
        # The SMR run is itself a well-coordinated WRDT run.
        cluster.check_refinement(recorder.events(), recorder.dropped())

    def test_shared_spec_instances_are_isolated(self):
        """An SMR deployment and a Hamband deployment built from the
        same spec factory must not interfere."""
        from repro.runtime import HambandCluster

        env = Environment()
        smr = SmrCluster.build_smr(env, counter_spec(), n_nodes=3)
        ham = HambandCluster.build(env, counter_spec(), n_nodes=3)
        leader = smr.node("p1").current_leader("add")
        env.run(until=smr.node(leader).submit("add", 5))
        env.run(until=ham.node("p2").submit("add", 9))
        env.run(until=env.now + 300)
        assert set(smr.effective_states().values()) == {5}
        assert set(ham.effective_states().values()) == {9}
