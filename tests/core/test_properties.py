"""Cross-cutting property tests over specs and the analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Call, Category, Coordination
from repro.core.compose import product
from repro.datatypes import (
    SPEC_FACTORIES,
    account_spec,
    counter_spec,
    courseware_spec,
)
from repro.datatypes.orset import orset_spec

ALL_FACTORIES = dict(SPEC_FACTORIES)
ALL_FACTORIES["orset"] = orset_spec


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
class TestAnalysisInvariants:
    def test_every_update_method_categorized(self, name):
        spec = ALL_FACTORIES[name]()
        coordination = Coordination.analyze(spec)
        assert set(coordination.categories) == set(spec.updates)
        assert all(
            isinstance(c, Category) for c in coordination.categories.values()
        )

    def test_conflict_relation_symmetric(self, name):
        coordination = Coordination.analyze(ALL_FACTORIES[name]())
        for u1 in coordination.relations.methods:
            for u2 in coordination.relations.methods:
                assert coordination.relations.conflict(
                    u1, u2
                ) == coordination.relations.conflict(u2, u1)

    def test_sync_groups_partition_conflicting_methods(self, name):
        coordination = Coordination.analyze(ALL_FACTORIES[name]())
        conflicting = coordination.relations.conflicting_methods()
        grouped = set()
        for group in coordination.sync_groups():
            assert not (grouped & group.methods)  # disjoint
            grouped |= group.methods
        assert grouped == conflicting

    def test_reducible_methods_have_summarizers_and_no_deps(self, name):
        spec = ALL_FACTORIES[name]()
        coordination = Coordination.analyze(spec)
        for method in coordination.methods_in(Category.REDUCIBLE):
            assert spec.summarizer_of(method) is not None
            assert not coordination.dep(method)
            assert coordination.sync_group(method) is None

    def test_analysis_stable_across_seeds(self, name):
        assert_stable_across_seeds(ALL_FACTORIES[name]())


COMPOSITES = {
    "account_x_courseware": lambda: product(
        "x", [account_spec(), courseware_spec()]
    ),
    "orset_x_counter": lambda: product("y", [orset_spec(), counter_spec()]),
}


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_composite_analysis_stable_across_seeds(name):
    assert_stable_across_seeds(COMPOSITES[name]())


def assert_stable_across_seeds(spec, seeds=range(64)):
    """Every sampler seed infers the same relations for ``spec``."""

    def relations(seed):
        r = Coordination.analyze(spec, seed=seed).relations
        return r.conflicts, r.dependencies, r.invariant_sufficient

    first = relations(seeds[0])
    assert [s for s in seeds[1:] if relations(s) != first] == []


class TestPermissibleChainsPreserveIntegrity:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 30))
    def test_account_sequential_chain(self, seed, length):
        """Permissibility-gated sequential execution keeps I forever
        (the paper's 'permissibility leads to integrity' induction)."""
        spec = SPEC_FACTORIES["account"]()
        rng = random.Random(seed)
        state = spec.initial_state()
        for rid in range(length):
            method = rng.choice(spec.update_names())
            arg = spec.sample_args(method, rng, 1)[0]
            call = Call(method, arg, "p", rid)
            if spec.permissible(state, call):
                state = spec.apply_call(call, state)
            assert spec.invariant(state)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 25))
    def test_courseware_sequential_chain(self, seed, length):
        spec = SPEC_FACTORIES["courseware"]()
        rng = random.Random(seed)
        state = spec.initial_state()
        for rid in range(length):
            method = rng.choice(spec.update_names())
            arg = spec.sample_args(method, rng, 1)[0]
            call = Call(method, arg, "p", rid)
            if spec.permissible(state, call):
                state = spec.apply_call(call, state)
            assert spec.invariant(state)


class TestConflictFreeDatatypesCommute:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_counter_any_permutation_converges(self, seed):
        spec = SPEC_FACTORIES["counter"]()
        rng = random.Random(seed)
        calls = [
            Call("add", rng.randrange(-5, 6), "p", rid) for rid in range(6)
        ]
        state_fwd = spec.initial_state()
        for call in calls:
            state_fwd = spec.apply_call(call, state_fwd)
        shuffled = list(calls)
        rng.shuffle(shuffled)
        state_perm = spec.initial_state()
        for call in shuffled:
            state_perm = spec.apply_call(call, state_perm)
        assert spec.state_eq(state_fwd, state_perm)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_twophase_any_permutation_converges(self, seed):
        from repro.datatypes import twophase_set_spec

        spec = twophase_set_spec()
        rng = random.Random(seed)
        calls = []
        for rid in range(6):
            method = rng.choice(["add", "remove"])
            calls.append(
                Call(method, rng.choice(["a", "b", "c"]), "p", rid)
            )
        state_fwd = spec.initial_state()
        for call in calls:
            state_fwd = spec.apply_call(call, state_fwd)
        shuffled = list(calls)
        rng.shuffle(shuffled)
        state_perm = spec.initial_state()
        for call in shuffled:
            state_perm = spec.apply_call(call, state_perm)
        assert spec.state_eq(state_fwd, state_perm)
