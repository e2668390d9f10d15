"""Unit and property tests for the RGA sequence CRDT."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Call, Category, Coordination
from repro.datatypes.rga import rga_spec


def apply_all(spec, state, calls):
    for call in calls:
        state = spec.apply_call(call, state)
    return state


def ins(anchor, new_id, char, rid):
    return Call("insert", (anchor, new_id, char), new_id[1], rid)


class TestSequential:
    def test_typing_in_order(self):
        spec = rga_spec()
        a, b, c = (1, "p1"), (2, "p1"), (3, "p1")
        state = apply_all(
            spec,
            spec.initial_state(),
            [ins(None, a, "h", 1), ins(a, b, "i", 2), ins(b, c, "!", 3)],
        )
        assert spec.run_query("text", None, state) == "hi!"

    def test_insert_in_middle(self):
        spec = rga_spec()
        a, b, c = (1, "p1"), (2, "p1"), (3, "p1")
        state = apply_all(
            spec,
            spec.initial_state(),
            [ins(None, a, "a", 1), ins(a, b, "c", 2), ins(a, c, "b", 3)],
        )
        assert spec.run_query("text", None, state) == "abc"

    def test_delete_tombstones(self):
        spec = rga_spec()
        a, b = (1, "p1"), (2, "p1")
        state = apply_all(
            spec,
            spec.initial_state(),
            [
                ins(None, a, "x", 1),
                ins(a, b, "y", 2),
                Call("delete", a, "p1", 3),
            ],
        )
        assert spec.run_query("text", None, state) == "y"
        assert spec.run_query("length", None, state) == 1
        # The tombstone still anchors later inserts.
        c = (3, "p2")
        state = spec.apply_call(ins(a, c, "z", 1), state)
        assert spec.run_query("text", None, state) == "zy"

    def test_duplicate_insert_idempotent(self):
        spec = rga_spec()
        a = (1, "p1")
        call = ins(None, a, "x", 1)
        state = apply_all(spec, spec.initial_state(), [call, call])
        assert spec.run_query("text", None, state) == "x"


class TestConcurrentConvergence:
    def test_same_anchor_inserts_commute(self):
        """Two replicas type at the head concurrently: both orders of
        applying converge, with the newer id first."""
        spec = rga_spec()
        c1 = ins(None, (1, "p1"), "a", 1)
        c2 = ins(None, (1, "p2"), "b", 1)
        s12 = apply_all(spec, spec.initial_state(), [c1, c2])
        s21 = apply_all(spec, spec.initial_state(), [c2, c1])
        assert s12 == s21
        # (1, "p2") > (1, "p1"): p2's insert wins the head slot.
        assert spec.run_query("text", None, s12) == "ba"

    def test_insert_delete_commute(self):
        spec = rga_spec()
        a = (1, "p1")
        base = spec.apply_call(ins(None, a, "x", 1), spec.initial_state())
        insert = ins(a, (2, "p2"), "y", 1)
        delete = Call("delete", a, "p3", 1)
        assert apply_all(spec, base, [insert, delete]) == apply_all(
            spec, base, [delete, insert]
        )

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_causal_permutations_converge(self, seed):
        """Random causally-consistent delivery orders all converge."""
        spec = rga_spec()
        rng = random.Random(seed)
        # Three 'replicas' generate causally well-formed inserts/deletes.
        calls, known = [], [None]
        for counter in range(1, 10):
            origin = rng.choice(["p1", "p2", "p3"])
            if known[1:] and rng.random() < 0.25:
                target = rng.choice(known[1:])
                calls.append(Call("delete", target, origin, counter))
            else:
                anchor = rng.choice(known)
                new_id = (counter, origin)
                calls.append(ins(anchor, new_id, chr(97 + counter), counter))
                known.append(new_id)

        def causal_shuffle():
            # A delivery order where each call follows the calls it
            # could causally depend on (here: generation order of its
            # anchor/target); random otherwise.
            order, ready = [], list(calls)
            delivered_ids = {None}
            while ready:
                candidates = []
                for call in ready:
                    if call.method == "insert":
                        anchor = call.arg[0]
                        if anchor in delivered_ids:
                            candidates.append(call)
                    else:
                        if call.arg in delivered_ids:
                            candidates.append(call)
                call = rng.choice(candidates)
                ready.remove(call)
                order.append(call)
                if call.method == "insert":
                    delivered_ids.add(call.arg[1])
            return order

        reference = apply_all(spec, spec.initial_state(), causal_shuffle())
        for _ in range(4):
            other = apply_all(spec, spec.initial_state(), causal_shuffle())
            assert other == reference


class TestOnCluster:
    def test_analysis(self):
        coordination = Coordination.analyze(rga_spec())
        assert coordination.methods_in(Category.IRREDUCIBLE_CONFLICT_FREE) == [
            "delete",
            "insert",
        ]

    def test_collaborative_editing_session(self):
        from repro.runtime import HambandCluster, TraceRecorder
        from repro.sim import Environment

        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, rga_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        # p1 types "hi"; p2 concurrently types "yo" at the head.
        a, b = (1, "p1"), (2, "p1")
        env.run(until=cluster.node("p1").submit("insert", (None, a, "h")))
        env.run(until=cluster.node("p1").submit("insert", (a, b, "i")))
        c, d = (1, "p2"), (2, "p2")
        env.run(until=cluster.node("p2").submit("insert", (None, c, "y")))
        env.run(until=cluster.node("p2").submit("insert", (c, d, "o")))
        env.run(until=env.now + 400)
        assert cluster.converged()
        text = env.run(until=cluster.node("p3").submit("text"))
        assert sorted(text) == ["h", "i", "o", "y"]
        assert "hi" in text and "yo" in text  # each session stays intact
        cluster.check_refinement(recorder.events(), recorder.dropped())
