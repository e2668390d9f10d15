"""Declared delta invariants (``UpdateDef.keeps``) are checked, not trusted.

The checker's replay and the runtime guards decide permissibility by a
method's declared delta whenever the pre-state satisfies ``I``
(:meth:`ObjectSpec.holds_after`).  So, for every spec — bundled or
composed — and every method that declares one, over 64 sampler seeds of
``state_gen`` × ``arg_gens`` restricted to invariant states:

- the delta IS the whole-state check: ``keeps(arg, σ) == I(apply(arg, σ))``;
- the delta is true on every point iff the coordination analysis finds
  the method invariant-sufficient, which ties "the guard cannot fail" to
  the analysis without reading the (sampled) analysis at runtime.

A method without a delta silently stays on the whole-state ``I``, so the
composed specs are held to exposing their components' deltas.
"""

import pytest

from repro.core import (
    Call,
    Coordination,
    CoordinationAnalyzer,
    ObjectSpec,
    QueryDef,
    UpdateDef,
)
from repro.core.compose import map_of, product
from repro.datatypes import (
    SPEC_FACTORIES,
    account_spec,
    bankmap_spec,
    courseware_spec,
    project_mgmt_spec,
)
from repro.datatypes.orset import orset_spec

SEEDS = range(64)

ALL_FACTORIES = dict(SPEC_FACTORIES)
ALL_FACTORIES["orset"] = orset_spec
ALL_FACTORIES.update({
    "schemas": lambda: product(
        "schemas", [courseware_spec(), project_mgmt_spec(), bankmap_spec()]
    ),
    "account_x_courseware": lambda: product(
        "x", [account_spec(), courseware_spec()]
    ),
    "campuses": lambda: map_of("campuses", courseware_spec()),
    "branches": lambda: map_of("branches", bankmap_spec()),
})


def deltas(spec):
    """method -> declared delta, for the methods that declare one."""
    return {
        name: update.keeps for name, update in spec.updates.items()
        if update.keeps is not None
    }


#: Every (spec, method) that declares a delta.
DECLARED = sorted(
    (name, method)
    for name, factory in ALL_FACTORIES.items()
    for method in deltas(factory())
)


def delta_points(spec, method):
    """``(delta verdict, whole-state verdict)`` for every sampled call on
    ``method`` at every sampled invariant state, over :data:`SEEDS`."""
    keeps = deltas(spec)[method]
    for seed in SEEDS:
        probe = CoordinationAnalyzer(spec, seed=seed).probe
        states = [s for s in probe.states if spec.invariant(s)]
        for call in probe.calls_by_method[method]:
            for state in states:
                yield (
                    keeps(call.arg, state),
                    spec.invariant(spec.apply_call(call, state)),
                )


def test_the_fk_specs_declare_a_delta_for_every_method():
    for factory in (courseware_spec, project_mgmt_spec, bankmap_spec):
        spec = factory()
        assert set(deltas(spec)) == set(spec.updates), spec.name


@pytest.mark.parametrize("name, method", DECLARED)
def test_delta_is_the_whole_state_invariant(name, method):
    spec = ALL_FACTORIES[name]()
    points = list(delta_points(spec, method))
    assert len(points) >= 64
    mismatches = [p for p in points if bool(p[0]) != bool(p[1])]
    assert mismatches == [], (len(mismatches), len(points))


@pytest.mark.parametrize("name, method", DECLARED)
def test_delta_always_true_iff_invariant_sufficient(name, method):
    spec = ALL_FACTORIES[name]()
    always = all(keeps for keeps, _whole in delta_points(spec, method))
    sufficient = Coordination.analyze(spec).relations.invariant_sufficient
    assert always == (method in sufficient)


class TestCompositionLiftsDeltas:
    def test_product_exposes_every_component_delta(self):
        combo = ALL_FACTORIES["schemas"]()
        want = {
            f"{component().name}.{method}"
            for component in (courseware_spec, project_mgmt_spec,
                              bankmap_spec)
            for method in deltas(component())
        }
        assert set(deltas(combo)) == want

    def test_product_delta_reads_its_own_part(self):
        combo = product("pair", [courseware_spec(), bankmap_spec()])
        courses = (frozenset({"crs1"}), frozenset({"stu1"}), frozenset())
        bank = (frozenset(), frozenset())
        enroll = deltas(combo)["courseware.enroll"]
        assert enroll(("stu1", "crs1"), (courses, bank))
        assert not enroll(("stu2", "crs1"), (courses, bank))
        deposit = deltas(combo)["bankmap.deposit"]
        assert not deposit(("acc1", 3), (courses, bank))

    @pytest.mark.parametrize("factory", [courseware_spec, bankmap_spec])
    def test_map_of_exposes_every_component_delta(self, factory):
        family = map_of("family", factory())
        assert set(deltas(family)) == set(deltas(factory()))

    def test_map_of_delta_starts_an_absent_key_from_the_initial_state(self):
        family = map_of("campuses", courseware_spec())
        part = (frozenset({"crs1"}), frozenset({"stu1"}), frozenset())
        state = (("k1", part),)
        enroll = deltas(family)["enroll"]
        assert enroll(("k1", ("stu1", "crs1")), state)
        assert not enroll(("k2", ("stu1", "crs1")), state)

    def test_a_method_without_a_delta_stays_undeclared(self):
        combo = product("x", [account_spec(), courseware_spec()])
        assert not any(m.startswith("account.") for m in deltas(combo))


def spy_spec(verdict):
    """Invariant ``state >= 0``; ``dec`` declares a delta that always
    says ``verdict``, so a test can tell which path decided."""
    return ObjectSpec(
        name="spy",
        initial_state=lambda: 0,
        invariant=lambda state: state >= 0,
        updates=[
            UpdateDef("dec", lambda arg, state: state - arg,
                      lambda _arg, _state: verdict),
            UpdateDef("inc", lambda arg, state: state + arg),
        ],
        queries=[QueryDef("get", lambda _arg, state: state)],
    )


class TestHoldsAfter:
    def test_delta_decides_when_the_pre_state_holds(self):
        call = Call("dec", 5, "p", 1)
        # Both verdicts contradict I(post): only the delta was asked.
        assert spy_spec("yes").holds_after(call, 1, -4, True) is True
        assert spy_spec(0).holds_after(call, 9, 4, True) is False

    def test_whole_state_decides_when_the_pre_state_is_broken(self):
        spec = spy_spec(True)
        assert not spec.holds_after(Call("dec", 1, "p", 1), -1, -2, False)
        assert spec.holds_after(Call("dec", -3, "p", 1), -1, 2, False)

    def test_whole_state_decides_for_a_method_without_a_delta(self):
        spec = spy_spec(True)
        assert set(deltas(spec)) == {"dec"}
        assert not spec.holds_after(Call("inc", -5, "p", 1), 1, -4, True)
