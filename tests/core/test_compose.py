"""Tests for WRDT composition combinators."""

import pytest

from repro.core import Call, Category, Coordination, SpecError
from repro.core.compose import map_of, product
from repro.datatypes import (
    account_spec,
    counter_spec,
    courseware_spec,
    orset_spec,
)


class TestProduct:
    @pytest.fixture(scope="class")
    def combo(self):
        return product("combo", [account_spec(), counter_spec()])

    def test_namespaced_methods(self, combo):
        assert set(combo.updates) == {
            "account.deposit",
            "account.withdraw",
            "counter.add",
        }
        assert set(combo.queries) == {"account.balance", "counter.value"}

    def test_updates_touch_only_their_component(self, combo):
        state = combo.initial_state()
        state = combo.apply_call(
            Call("account.deposit", 5, "p", 1), state
        )
        state = combo.apply_call(Call("counter.add", 9, "p", 2), state)
        assert combo.run_query("account.balance", None, state) == 5
        assert combo.run_query("counter.value", None, state) == 9

    def test_invariant_is_conjunction(self, combo):
        assert combo.invariant((0, 0))
        assert not combo.invariant((-1, 0))

    def test_analysis_is_disjoint_union(self, combo):
        coordination = Coordination.analyze(combo)
        assert coordination.relations.conflicts == {
            frozenset({"account.withdraw"})
        }
        assert coordination.dep("account.withdraw") == {"account.deposit"}
        assert coordination.category("counter.add") is Category.REDUCIBLE
        assert coordination.category("account.deposit") is Category.REDUCIBLE
        assert (
            coordination.category("account.withdraw")
            is Category.CONFLICTING
        )

    def test_lifted_summarizer_combines(self, combo):
        summarizer = combo.summarizer_of("account.deposit")
        combined = summarizer.combine(
            Call("account.deposit", 3, "p", 1),
            Call("account.deposit", 4, "p", 2),
        )
        assert combined.method == "account.deposit"
        assert combined.arg == 7

    def test_two_conflicting_components_two_groups(self):
        combo = product(
            "two_accounts",
            [account_spec(), _renamed_account("account2")],
        )
        coordination = Coordination.analyze(combo)
        assert len(coordination.sync_groups()) == 2

    def test_declared_components_union(self):
        combo = product("crdts", [orset_spec(), _renamed_orset("orset2")])
        coordination = Coordination.analyze(combo)
        assert coordination.relations.conflicts == set()

    def test_mixed_declared_and_checked_components(self):
        """A declared CRDT (orset) composed with bounded-checked
        components must analyze component-wise — the declared one's
        causal arguments never go through composite sampling."""
        from repro.core.compose import map_of

        combo = product(
            "mixed",
            [
                counter_spec(),
                map_of("orsets", orset_spec()),
                account_spec(),
            ],
        )
        coordination = Coordination.analyze(combo)
        assert coordination.relations.conflicts == {
            frozenset({"account.withdraw"})
        }
        assert coordination.dep("account.withdraw") == {"account.deposit"}
        assert (
            coordination.category("orsets.add")
            is Category.IRREDUCIBLE_CONFLICT_FREE
        )
        assert coordination.category("counter.add") is Category.REDUCIBLE

    def test_declared_composite_probes_invariant_sufficiency(self):
        """A product declares its conflicts and dependencies, but
        withdraw and enroll can still break the invariant."""
        combo = product("x", [account_spec(), courseware_spec()])
        coordination = Coordination.analyze(combo)
        assert coordination.relations.invariant_sufficient == {
            "account.deposit",
            "courseware.addCourse",
            "courseware.deleteCourse",
            "courseware.registerStudent",
        }

    def test_unsampled_causal_methods_stay_sufficient(self):
        """The orset's causal arguments have no generator: its methods
        are not probed (probing them would raise) and stay sufficient."""
        combo = product("y", [orset_spec(), counter_spec()])
        coordination = Coordination.analyze(combo)
        assert coordination.relations.invariant_sufficient == {
            "counter.add",
            "orset.add",
            "orset.remove",
        }
        assert coordination.relations.conflicts == set()

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(SpecError, match="unique"):
            product("bad", [counter_spec(), counter_spec()])

    def test_empty_product_rejected(self):
        with pytest.raises(SpecError):
            product("empty", [])

    def test_runs_on_cluster(self):
        from repro.runtime import HambandCluster, TraceRecorder
        from repro.sim import Environment

        combo = product("combo", [account_spec(), counter_spec()])
        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, combo, n_nodes=3, probe_factory=recorder.probe_factory
        )
        env.run(until=cluster.node("p1").submit("account.deposit", 10))
        env.run(until=cluster.node("p2").submit("counter.add", 4))
        leader = cluster.node("p1").current_leader("account.withdraw")
        env.run(until=cluster.node(leader).submit("account.withdraw", 3))
        env.run(until=env.now + 300)
        assert cluster.converged()
        assert cluster.integrity_holds()
        cluster.check_refinement(recorder.events(), recorder.dropped())


class TestMapOf:
    @pytest.fixture(scope="class")
    def accounts(self):
        return map_of("accounts", account_spec(), sample_keys=["a", "b"])

    def test_keyed_semantics(self, accounts):
        state = accounts.initial_state()
        state = accounts.apply_call(
            Call("deposit", ("a", 10), "p", 1), state
        )
        state = accounts.apply_call(
            Call("deposit", ("b", 3), "p", 2), state
        )
        state = accounts.apply_call(
            Call("withdraw", ("a", 4), "p", 3), state
        )
        assert accounts.run_query("balance", ("a", None), state) == 6
        assert accounts.run_query("balance", ("b", None), state) == 3
        assert accounts.run_query("balance", ("c", None), state) == 0

    def test_invariant_per_key(self, accounts):
        bad = accounts.apply_call(
            Call("withdraw", ("a", 5), "p", 1), accounts.initial_state()
        )
        assert not accounts.invariant(bad)

    def test_initial_valued_entries_are_canonical(self, accounts):
        """Depositing then withdrawing everything leaves no residue."""
        state = accounts.apply_call(
            Call("deposit", ("a", 5), "p", 1), accounts.initial_state()
        )
        state = accounts.apply_call(
            Call("withdraw", ("a", 5), "p", 2), state
        )
        assert state == accounts.initial_state()

    def test_analysis_matches_component(self, accounts):
        coordination = Coordination.analyze(accounts)
        assert coordination.relations.conflicts == {frozenset({"withdraw"})}
        assert coordination.dep("withdraw") == {"deposit"}
        # Lifting drops summarizability: deposit becomes irreducible CF.
        assert (
            coordination.category("deposit")
            is Category.IRREDUCIBLE_CONFLICT_FREE
        )

    def test_declared_component_lifts_declarations(self):
        family = map_of("orsets", orset_spec())
        coordination = Coordination.analyze(family)
        assert coordination.relations.conflicts == set()

    def test_needs_two_sample_keys(self):
        with pytest.raises(SpecError, match="two sample keys"):
            map_of("bad", counter_spec(), sample_keys=["only"])

    def test_runs_on_cluster(self):
        from repro.runtime import HambandCluster
        from repro.sim import Environment

        family = map_of("counters", counter_spec())
        env = Environment()
        cluster = HambandCluster.build(env, family, n_nodes=3)
        env.run(until=cluster.node("p1").submit("add", ("x", 5)))
        env.run(until=cluster.node("p2").submit("add", ("x", 2)))
        env.run(until=cluster.node("p3").submit("add", ("y", 1)))
        env.run(until=env.now + 300)
        assert cluster.converged()
        query = cluster.node("p1").submit("value", ("x", None))
        assert env.run(until=query) == 7


def _renamed_account(name):
    spec = account_spec()
    spec.name = name
    return spec


def _renamed_orset(name):
    from repro.datatypes import orset_spec

    spec = orset_spec()
    spec.name = name
    return spec
