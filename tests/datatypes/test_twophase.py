"""Unit tests for the 2P-Set."""

import pytest

from repro.core import Call, Category, Coordination
from repro.datatypes import twophase_set_spec


def apply_all(spec, state, calls):
    for call in calls:
        state = spec.apply_call(call, state)
    return state


class Test2PSet:
    def test_add_then_remove(self):
        spec = twophase_set_spec()
        state = apply_all(
            spec,
            spec.initial_state(),
            [Call("add", "x", "p", 1), Call("remove", "x", "p", 2)],
        )
        assert not spec.run_query("contains", "x", state)

    def test_remove_wins_regardless_of_order(self):
        """The 2P-Set bias: a removed element never comes back."""
        spec = twophase_set_spec()
        add = Call("add", "x", "p1", 1)
        remove = Call("remove", "x", "p2", 1)
        s1 = apply_all(spec, spec.initial_state(), [add, remove])
        s2 = apply_all(spec, spec.initial_state(), [remove, add])
        assert s1 == s2
        assert not spec.run_query("contains", "x", s1)

    def test_re_add_is_ineffective(self):
        spec = twophase_set_spec()
        state = apply_all(
            spec,
            spec.initial_state(),
            [
                Call("add", "x", "p", 1),
                Call("remove", "x", "p", 2),
                Call("add", "x", "p", 3),
            ],
        )
        assert not spec.run_query("contains", "x", state)

    def test_elements_query(self):
        spec = twophase_set_spec()
        state = apply_all(
            spec,
            spec.initial_state(),
            [
                Call("add", "x", "p", 1),
                Call("add", "y", "p", 2),
                Call("remove", "x", "p", 3),
            ],
        )
        assert spec.run_query("elements", None, state) == frozenset({"y"})

    def test_analysis_infers_conflict_freedom_without_declarations(self):
        """Unlike the OR-set, the 2P-Set's commutativity is structural,
        so bounded checking alone discovers it."""
        spec = twophase_set_spec()
        assert spec.declared_conflicts is None
        coordination = Coordination.analyze(spec)
        assert coordination.relations.conflicts == set()
        assert coordination.methods_in(
            Category.IRREDUCIBLE_CONFLICT_FREE
        ) == ["add", "remove"]

    def test_replicates_on_cluster(self):
        from repro.runtime import HambandCluster, TraceRecorder
        from repro.sim import Environment

        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, twophase_set_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        env.run(until=cluster.node("p1").submit("add", "x"))
        env.run(until=cluster.node("p2").submit("remove", "x"))
        env.run(until=cluster.node("p3").submit("add", "y"))
        env.run(until=env.now + 300)
        assert cluster.converged()
        query = cluster.node("p1").submit("elements")
        assert env.run(until=query) == frozenset({"y"})
        cluster.check_refinement(recorder.events(), recorder.dropped())
