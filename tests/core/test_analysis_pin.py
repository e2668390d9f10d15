"""Differential pin of the coordination analysis.

The analyzer evaluates each distinct probe point once (distinct
invariant states × distinct calls, one pass per unordered call pair).
Three checks hold it to what it replaced:

- ``PINNED``: relations, categories, sync groups (gid, members,
  leader) and ``Dep`` for every bundled spec, as the analyzer that
  re-evaluated every call pair per relation computed them (commit
  a4de1fa), over seeds × probe sizes;
- ``brute_force``: that analyzer's method-level loops, run over the
  raw, undeduplicated probe through the module-level relation
  functions, must give the same verdict for every method pair;
- ``DEFINITIONS``: the module-level functions must agree with the
  relations' textbook loops on every raw call pair.

``test_apply_call_budget`` keeps the work from creeping back.
"""

import itertools

import pytest

from repro.core import (
    Category,
    Coordination,
    CoordinationAnalyzer,
    MethodRelations,
    invariant_sufficient,
    p_l_commutes,
    p_r_commutes,
    s_commute,
)
from repro.datatypes import SPEC_FACTORIES
from repro.datatypes.orset import orset_spec

ALL_FACTORIES = dict(SPEC_FACTORIES)
ALL_FACTORIES["orset"] = orset_spec
#: Specs whose relations are checked rather than declared.
CHECKED = sorted(
    name for name, factory in ALL_FACTORIES.items()
    if factory().declared_conflicts is None
)

SEEDS = (0, 1, 2, 5)
SIZES = ((40, 8), (20, 4), (60, 12))
PROCESSES = ["p1", "p2", "p3"]

RED = Category.REDUCIBLE
IRR = Category.IRREDUCIBLE_CONFLICT_FREE
CONF = Category.CONFLICTING

PINNED = {
    "account": dict(
        conflicts=[("withdraw",)],
        invariant_sufficient=("deposit",),
        dep={"deposit": (), "withdraw": ("deposit",)},
        categories={"deposit": RED, "withdraw": CONF},
        groups=[("sync:withdraw", ("withdraw",), "p1")],
    ),
    "bankmap": dict(
        conflicts=[("withdraw",)],
        invariant_sufficient=("open",),
        dep={"deposit": ("open",), "open": (), "withdraw": ("deposit",)},
        categories={"deposit": IRR, "open": IRR, "withdraw": CONF},
        groups=[("sync:withdraw", ("withdraw",), "p1")],
    ),
    "cart": dict(
        conflicts=[],
        invariant_sufficient=("add_item", "remove_item"),
        dep={"add_item": (), "remove_item": ()},
        categories={"add_item": IRR, "remove_item": IRR},
        groups=[],
    ),
    "counter": dict(
        conflicts=[],
        invariant_sufficient=("add",),
        dep={"add": ()},
        categories={"add": RED},
        groups=[],
    ),
    "courseware": dict(
        conflicts=[("addCourse", "deleteCourse"), ("deleteCourse", "enroll")],
        invariant_sufficient=("addCourse", "deleteCourse", "registerStudent"),
        dep={
            "addCourse": (),
            "deleteCourse": (),
            "enroll": ("addCourse", "registerStudent"),
            "registerStudent": (),
        },
        categories={
            "addCourse": CONF,
            "deleteCourse": CONF,
            "enroll": CONF,
            "registerStudent": IRR,
        },
        groups=[(
            "sync:addCourse+deleteCourse+enroll",
            ("addCourse", "deleteCourse", "enroll"),
            "p1",
        )],
    ),
    "gset_union": dict(
        conflicts=[],
        invariant_sufficient=("add_all",),
        dep={"add_all": ()},
        categories={"add_all": RED},
        groups=[],
    ),
    "gset": dict(
        conflicts=[],
        invariant_sufficient=("add",),
        dep={"add": ()},
        categories={"add": IRR},
        groups=[],
    ),
    "lww": dict(
        conflicts=[],
        invariant_sufficient=("write",),
        dep={"write": ()},
        categories={"write": RED},
        groups=[],
    ),
    "movie": dict(
        conflicts=[
            ("addCustomer", "deleteCustomer"),
            ("addMovie", "deleteMovie"),
        ],
        invariant_sufficient=(
            "addCustomer", "addMovie", "deleteCustomer", "deleteMovie",
        ),
        dep={
            "addCustomer": (),
            "addMovie": (),
            "deleteCustomer": (),
            "deleteMovie": (),
        },
        categories={
            "addCustomer": CONF,
            "addMovie": CONF,
            "deleteCustomer": CONF,
            "deleteMovie": CONF,
        },
        groups=[
            (
                "sync:addCustomer+deleteCustomer",
                ("addCustomer", "deleteCustomer"),
                "p1",
            ),
            (
                "sync:addMovie+deleteMovie",
                ("addMovie", "deleteMovie"),
                "p2",
            ),
        ],
    ),
    "orset": dict(
        conflicts=[],
        invariant_sufficient=("add", "remove"),
        dep={"add": (), "remove": ()},
        categories={"add": IRR, "remove": IRR},
        groups=[],
    ),
    "project_mgmt": dict(
        conflicts=[
            ("addProject", "deleteProject"),
            ("deleteProject", "worksOn"),
        ],
        invariant_sufficient=("addEmployee", "addProject", "deleteProject"),
        dep={
            "addEmployee": (),
            "addProject": (),
            "deleteProject": (),
            "worksOn": ("addEmployee", "addProject"),
        },
        categories={
            "addEmployee": RED,
            "addProject": CONF,
            "deleteProject": CONF,
            "worksOn": CONF,
        },
        groups=[(
            "sync:addProject+deleteProject+worksOn",
            ("addProject", "deleteProject", "worksOn"),
            "p1",
        )],
    ),
    "rga": dict(
        conflicts=[],
        invariant_sufficient=("delete", "insert"),
        dep={"delete": (), "insert": ()},
        categories={"delete": IRR, "insert": IRR},
        groups=[],
    ),
    "twophase_set": dict(
        conflicts=[],
        invariant_sufficient=("add", "remove"),
        dep={"add": (), "remove": ()},
        categories={"add": IRR, "remove": IRR},
        groups=[],
    ),
}


def summary(coordination: Coordination) -> dict:
    """``coordination`` in the shape of a ``PINNED`` entry."""
    relations = coordination.relations
    leaders = coordination.conflict_graph.assign_leaders(PROCESSES)
    return dict(
        conflicts=sorted(tuple(sorted(p)) for p in relations.conflicts),
        invariant_sufficient=tuple(sorted(relations.invariant_sufficient)),
        dep={
            u: tuple(sorted(coordination.dep(u)))
            for u in sorted(relations.methods)
        },
        categories=dict(sorted(coordination.categories.items())),
        groups=[
            (g.gid, tuple(sorted(g.methods)), leaders[g.gid])
            for g in coordination.sync_groups()
        ],
    )


def test_pins_cover_every_spec():
    assert set(PINNED) == set(ALL_FACTORIES)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_relations(name):
    spec = ALL_FACTORIES[name]()
    for seed, (n_states, n_args) in itertools.product(SEEDS, SIZES):
        coordination = Coordination.analyze(
            spec, seed=seed, n_states=n_states, n_args=n_args
        )
        assert summary(coordination) == PINNED[name], (seed, n_states)


# ---------------------------------------------------------------------------
# The reference: every call pair, every relation, the raw probe
# ---------------------------------------------------------------------------

def brute_force(analyzer: CoordinationAnalyzer) -> MethodRelations:
    """The analyzer's method-level loops over the raw probe, each call
    pair re-evaluated per relation through the module-level functions."""
    spec, probe = analyzer.spec, analyzer.probe
    states, calls = probe.states, probe.calls_by_method
    methods = spec.update_names()
    inv_suff = {
        u for u in methods
        if all(invariant_sufficient(spec, c, states) for c in calls[u])
    }

    def conflict(u1, u2):
        return any(
            not s_commute(spec, c1, c2, states)
            or not (
                (u1 in inv_suff or p_r_commutes(spec, c1, c2, states))
                and (u2 in inv_suff or p_r_commutes(spec, c2, c1, states))
            )
            for c1 in calls[u1]
            for c2 in calls[u2]
        )

    def depends(u2, u1):
        return u2 not in inv_suff and any(
            not p_l_commutes(spec, c2, c1, states)
            for c2 in calls[u2]
            for c1 in calls[u1]
        )

    return MethodRelations(
        methods=methods,
        conflicts={
            frozenset(pair)
            for pair in itertools.combinations_with_replacement(methods, 2)
            if conflict(*pair)
        },
        dependencies={
            u2: {u1 for u1 in methods if depends(u2, u1)} for u2 in methods
        },
        invariant_sufficient=inv_suff,
    )


@pytest.mark.parametrize("name", CHECKED)
@pytest.mark.parametrize("seed, n_states, n_args", [(0, 40, 8), (5, 20, 4)])
def test_analyzer_matches_brute_force(name, seed, n_states, n_args):
    analyzer = CoordinationAnalyzer(
        ALL_FACTORIES[name](), seed=seed, n_states=n_states, n_args=n_args
    )
    want = brute_force(analyzer)
    got = analyzer.analyze()
    assert got.invariant_sufficient == want.invariant_sufficient
    for u1, u2 in itertools.product(want.methods, repeat=2):
        assert got.conflict(u1, u2) == want.conflict(u1, u2), (u1, u2)
        assert (u1 in got.dep(u2)) == (u1 in want.dep(u2)), (u2, "⤙", u1)


# The relations' definitions, one loop each, straight from the paper.

def _s_commute(spec, c1, c2, states):
    return all(
        spec.state_eq(
            spec.apply_call(c2, spec.apply_call(c1, sigma)),
            spec.apply_call(c1, spec.apply_call(c2, sigma)),
        )
        for sigma in states
        if spec.invariant(sigma)
    )


def _invariant_sufficient(spec, call, states):
    return all(
        spec.permissible(sigma, call)
        for sigma in states
        if spec.invariant(sigma)
    )


def _p_r_commutes(spec, c1, c2, states):
    return all(
        spec.permissible(spec.apply_call(c2, sigma), c1)
        for sigma in states
        if spec.invariant(sigma)
        and spec.permissible(sigma, c2)
        and spec.permissible(sigma, c1)
    )


def _p_l_commutes(spec, c2, c1, states):
    return all(
        spec.permissible(sigma, c2)
        for sigma in states
        if spec.invariant(sigma)
        and spec.permissible(sigma, c1)
        and spec.permissible(spec.apply_call(c1, sigma), c2)
    )


DEFINITIONS = [
    (s_commute, _s_commute),
    (p_r_commutes, _p_r_commutes),
    (p_l_commutes, _p_l_commutes),
]


@pytest.mark.parametrize("name", CHECKED)
def test_relations_match_definitions(name):
    spec = ALL_FACTORIES[name]()
    probe = CoordinationAnalyzer(spec, seed=3, n_states=12, n_args=4).probe
    states = probe.states
    calls = [c for u in spec.update_names() for c in probe.calls_by_method[u]]
    for call in calls:
        assert invariant_sufficient(spec, call, states) == (
            _invariant_sufficient(spec, call, states)
        ), call
    for c1, c2 in itertools.product(calls, repeat=2):
        for view, definition in DEFINITIONS:
            assert view(spec, c1, c2, states) == (
                definition(spec, c1, c2, states)
            ), (view.__name__, c1, c2)


# ---------------------------------------------------------------------------
# Work budget
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, budget", [
    ("bankmap", 10_000),     # 118 121 when every pair was re-evaluated
    ("courseware", 2_000),   # 77 253
])
def test_apply_call_budget(name, budget):
    """``Coordination.analyze`` evaluates each distinct point once."""
    spec = SPEC_FACTORIES[name]()
    apply_call = spec.apply_call
    count = 0

    def counting(call, state):
        nonlocal count
        count += 1
        return apply_call(call, state)

    spec.apply_call = counting
    Coordination.analyze(spec)
    assert 0 < count <= budget
