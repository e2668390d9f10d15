"""Coordination analysis: the relations of paper §3.2.

The paper defines, per pair of calls:

- **S-commutativity** ``c1 <->_S c2`` — applying in either order yields
  the same state; otherwise the calls *S-conflict*.
- **Permissibility** ``P(σ, c) := I(c(σ))``.
- **Invariant-sufficiency** — ``I(σ) ⇒ P(σ, c)`` for every σ.
- **P-R-commutativity** ``c1 ▷_P c2`` — ``P(σ, c1) ⇒ P(c2(σ), c1)``.
- **P-concurrency** — c1 is invariant-sufficient or P-R-commutes with
  c2; otherwise the pair *P-conflicts*.
- **Conflict** ``c1 ⋈ c2`` — not (S-commute and mutually P-concur).
- **P-L-commutativity** ``c2 ◁_P c1`` — ``P(c1(σ), c2) ⇒ P(σ, c2)``.
- **Dependency** ``c2 ⤙ c1`` — c2 is neither invariant-sufficient nor
  P-L-commutes over c1.

Hamband takes these relations as *inputs* (the paper: "automated
checking and inference … is a topic of active research", citing
Hamsaz's SMT approach).  This module provides the closest executable
equivalent: **bounded checking** over sampled states and arguments from
the spec's generators, falsifying universally-quantified properties by
counterexample.  A spec can also *declare* its conflicts and
dependencies, which skips checking them (invariant-sufficiency is still
probed wherever the spec can sample arguments); the op-based CRDTs
declare, every other bundled data type relies on checking, and the test
suite pins the inferred relations against the paper's ground truth.

Every relation is a view of two kernels: :func:`_posts` evaluates one
call on a list of states, :func:`_pair` evaluates all five relations of
an unordered call pair in one pass.  The analyzer runs them once per
distinct probe point (:class:`_Points`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .calls import Call
from .spec import ObjectSpec

__all__ = [
    "CallRelations",
    "CoordinationAnalyzer",
    "MethodRelations",
    "depends",
    "invariant_sufficient",
    "p_l_commutes",
    "p_r_commutes",
    "s_commute",
]


# ---------------------------------------------------------------------------
# The two kernels: one call, one unordered call pair
# ---------------------------------------------------------------------------

def _posts(spec: ObjectSpec, call: Call,
           states: Iterable[Any]) -> list[tuple[Any, bool]]:
    """``(c(σ), P(σ, c))`` for every state σ."""
    posts = []
    for sigma in states:
        post = spec.apply_call(call, sigma)
        posts.append((post, bool(spec.invariant(post))))
    return posts


class _Pair(NamedTuple):
    """Every relation of calls ``a`` and ``b`` over one set of states."""

    s_commute: bool  # a <->_S b
    a_r_b: bool      # a ▷_P b
    b_r_a: bool      # b ▷_P a
    a_l_b: bool      # a ◁_P b
    b_l_a: bool      # b ◁_P a

    def flipped(self) -> "_Pair":
        """The same verdict with ``a`` and ``b`` swapped."""
        return _Pair(self.s_commute, self.b_r_a, self.a_r_b, self.b_l_a,
                     self.a_l_b)


def _pair(spec: ObjectSpec, a: Call, b: Call,
          a_posts: list[tuple[Any, bool]],
          b_posts: list[tuple[Any, bool]]) -> _Pair:
    """All five relations of ``a`` and ``b`` in one pass.

    ``a_posts``/``b_posts`` are :func:`_posts` over the same invariant
    states.  Each state costs ``b(a(σ))`` and ``a(b(σ))`` once; the
    invariant of a composition is evaluated only at well-formed points
    (the call applied first was permissible) and only while a relation
    still depends on it.  The pass stops once all five are falsified.
    """
    commute = a_r_b = b_r_a = a_l_b = b_l_a = True
    for (a_post, a_ok), (b_post, b_ok) in zip(a_posts, b_posts):
        ab = spec.apply_call(b, a_post)
        ba = ab if a is b else spec.apply_call(a, b_post)
        if commute and not spec.state_eq(ab, ba):
            commute = False
        # Where a was permissible, I(b(a(σ))) = P(a(σ), b) decides
        # b ▷_P a if b was permissible too, b ◁_P a if it was not;
        # symmetrically for a after b.
        if a_ok:
            if b_ok:
                if b_r_a:
                    b_r_a = bool(spec.invariant(ab))
            elif b_l_a:
                b_l_a = not spec.invariant(ab)
        if b_ok:
            if a_ok:
                if a_r_b:
                    a_r_b = bool(spec.invariant(ba))
            elif a_l_b:
                a_l_b = not spec.invariant(ba)
        if not (commute or a_r_b or b_r_a or a_l_b or b_l_a):
            break
    return _Pair(commute, a_r_b, b_r_a, a_l_b, b_l_a)


def _over(spec: ObjectSpec, a: Call, b: Call,
          states: Iterable[Any]) -> _Pair:
    """:func:`_pair` over the invariant members of ``states``."""
    invariant = [sigma for sigma in states if spec.invariant(sigma)]
    return _pair(spec, a, b, _posts(spec, a, invariant),
                 _posts(spec, b, invariant))


# ---------------------------------------------------------------------------
# Call-level relations over a finite set of probe states
# ---------------------------------------------------------------------------

def s_commute(spec: ObjectSpec, c1: Call, c2: Call,
              states: Iterable[Any]) -> bool:
    """``c1 <->_S c2``: both application orders agree on every probe state.

    Probed over invariant states only: execution histories never pass
    through non-invariant states, so divergence there is unobservable.
    """
    return _over(spec, c1, c2, states).s_commute


def invariant_sufficient(spec: ObjectSpec, call: Call,
                         states: Iterable[Any]) -> bool:
    """``I(σ) ⇒ P(σ, c)`` on every probe state."""
    invariant = [sigma for sigma in states if spec.invariant(sigma)]
    return all(ok for _post, ok in _posts(spec, call, invariant))


def p_r_commutes(spec: ObjectSpec, c1: Call, c2: Call,
                 states: Iterable[Any]) -> bool:
    """``c1 ▷_P c2``: permissibility of c1 survives c2 being applied first.

    Quantified over well-formed execution points: the pre-state
    satisfies the invariant and c2 was itself permissible there (a call
    only ever executes when permissible, so other schedules cannot
    arise).
    """
    return _over(spec, c1, c2, states).a_r_b


def p_l_commutes(spec: ObjectSpec, c2: Call, c1: Call,
                 states: Iterable[Any]) -> bool:
    """``c2 ◁_P c1``: permissibility after c1 implies permissibility before.

    As with :func:`p_r_commutes`, only well-formed points are probed:
    invariant pre-state with c1 permissible in it.
    """
    return _over(spec, c2, c1, states).a_l_b


def depends(spec: ObjectSpec, c2: Call, c1: Call,
            states: Iterable[Any]) -> bool:
    """``c2 ⤙ c1``: c2 neither invariant-sufficient nor P-L-commuting."""
    if invariant_sufficient(spec, c2, states):
        return False
    return not p_l_commutes(spec, c2, c1, states)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class MethodRelations:
    """Method-level relations lifted from call-level checks.

    ``conflicts`` is symmetric (stored as frozenset pairs, including
    self-loops like {withdraw}); ``dependencies[u]`` is ``Dep(u)``.
    """

    methods: list[str]
    conflicts: set[frozenset[str]]
    dependencies: dict[str, set[str]]
    invariant_sufficient: set[str]

    def conflict(self, u1: str, u2: str) -> bool:
        return frozenset((u1, u2)) in self.conflicts

    def is_conflicting(self, u: str) -> bool:
        return any(u in pair for pair in self.conflicts)

    def dep(self, u: str) -> set[str]:
        return self.dependencies.get(u, set())

    def conflicting_methods(self) -> set[str]:
        return {u for u in self.methods if self.is_conflicting(u)}


class CallRelations:
    """Call-level conflict/dependency oracle used by the abstract machine.

    The default implementation is the sound method-level approximation:
    two calls conflict iff their methods conflict, and c2 depends on c1
    iff ``method(c1) ∈ Dep(method(c2))``.
    """

    def __init__(self, method_relations: MethodRelations):
        self.methods = method_relations

    def conflict(self, c1: Call, c2: Call) -> bool:
        return self.methods.conflict(c1.method, c2.method)

    def depends(self, c2: Call, c1: Call) -> bool:
        return c1.method in self.methods.dep(c2.method)


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------

@dataclass
class _Probe:
    states: list[Any]
    calls_by_method: dict[str, list[Call]]


def _distinct(items: Iterable[Any],
              key: Optional[Callable[[Any], Any]] = None) -> list[Any]:
    """``items`` in order, each kept only at its first occurrence.

    Two items repeat when their keys have the same type and compare
    ``==`` — the equality :meth:`Replay.reduce` relies on; never
    ``state_eq``, which may be coarser.
    """
    kept: list[Any] = []
    seen: list[Any] = []
    for item in items:
        k = item if key is None else key(item)
        if not any(type(s) is type(k) and s == k for s in seen):
            kept.append(item)
            seen.append(k)
    return kept


class _Points:
    """The probe with every distinct point evaluated at most once.

    States are the distinct invariant ones (every relation quantifies
    over invariant states only, so filtering once is exact); calls are
    distinct per method by argument (an update reads only ``(arg, σ)``).
    A call's posts and a pair's verdict are computed on first use, so
    the analyzer's early exits still skip work, and a pair keeps only
    its five booleans.
    """

    def __init__(self, spec: ObjectSpec, probe: _Probe):
        self.spec = spec
        self.states = _distinct(s for s in probe.states if spec.invariant(s))
        self.calls: list[Call] = []
        #: method -> indices into ``calls``
        self.by_method: dict[str, range] = {}
        for method, calls in probe.calls_by_method.items():
            calls = _distinct(calls, key=lambda c: c.arg)
            start = len(self.calls)
            self.calls += calls
            self.by_method[method] = range(start, len(self.calls))
        self._posts_of: dict[int, list[tuple[Any, bool]]] = {}
        self._pair_of: dict[tuple[int, int], _Pair] = {}

    def posts(self, i: int) -> list[tuple[Any, bool]]:
        posts = self._posts_of.get(i)
        if posts is None:
            posts = self._posts_of[i] = _posts(self.spec, self.calls[i],
                                               self.states)
        return posts

    def sufficient(self, method: str) -> bool:
        """Every probed call on ``method`` is invariant-sufficient."""
        return all(
            ok for i in self.by_method[method] for _post, ok in self.posts(i)
        )

    def pair(self, i: int, j: int) -> _Pair:
        """The verdict of calls ``i`` and ``j`` as ``(a, b) = (i, j)``."""
        if i > j:
            return self.pair(j, i).flipped()
        verdict = self._pair_of.get((i, j))
        if verdict is None:
            verdict = self._pair_of[i, j] = _pair(
                self.spec, self.calls[i], self.calls[j], self.posts(i),
                self.posts(j),
            )
        return verdict


class CoordinationAnalyzer:
    """Bounded checker computing :class:`MethodRelations` for a spec.

    Universal properties are *falsified* by counterexample over
    ``n_states`` sampled states × ``n_args`` sampled arguments per
    method; surviving properties are assumed to hold.  For the data
    types in this repository the generators cover the relevant state
    space and the inferred relations match the paper's (pinned in
    tests/core/test_analysis.py, tests/core/test_analysis_pin.py and
    tests/datatypes/).
    """

    def __init__(self, spec: ObjectSpec, seed: int = 0, n_states: int = 40,
                 n_args: int = 8):
        self.spec = spec
        self.seed = seed
        self.n_states = n_states
        self.n_args = n_args

    @cached_property
    def probe(self) -> _Probe:
        """The sampled states and calls, drawn once per analyzer."""
        rng = random.Random(self.seed)
        states = self.spec.sample_states(rng, self.n_states)
        calls = {
            u: [
                Call(u, arg, "probe", i)
                for i, arg in enumerate(
                    self.spec.sample_args(u, rng, self.n_args)
                )
            ]
            for u in self.spec.update_names()
        }
        return _Probe(states, calls)

    def analyze(self) -> MethodRelations:
        spec = self.spec
        methods = spec.update_names()
        points = _Points(spec, self.probe)

        if spec.declared_conflicts is not None:
            # Declared conflicts and dependencies are trusted (the
            # op-based CRDT case).  Invariant-sufficiency is still probed
            # wherever the spec can sample arguments; causal arguments
            # have no generator, and those methods are taken as
            # sufficient.
            return MethodRelations(
                methods=methods,
                conflicts=set(spec.declared_conflicts),
                dependencies={
                    u: set(spec.declared_dependencies.get(u, set()))
                    for u in methods
                },
                invariant_sufficient={
                    u for u in methods
                    if u not in spec.arg_gens or points.sufficient(u)
                },
            )

        inv_suff = {u for u in methods if points.sufficient(u)}
        conflicts = {
            frozenset((u1, u2))
            for u1, u2 in itertools.combinations_with_replacement(methods, 2)
            if self._methods_conflict(points, u1, u2, inv_suff)
        }
        # Invariant-sufficient calls are independent.
        dependencies = {
            u2: {
                u1 for u1 in methods
                if u2 not in inv_suff and self._method_depends(points, u2, u1)
            }
            for u2 in methods
        }
        return MethodRelations(
            methods=methods,
            conflicts=conflicts,
            dependencies=dependencies,
            invariant_sufficient=inv_suff,
        )

    @staticmethod
    def _methods_conflict(points: _Points, u1: str, u2: str,
                          inv_suff: set[str]) -> bool:
        """∃ calls c1 on u1, c2 on u2 that conflict (paper §3.3)."""
        for i in points.by_method[u1]:
            for j in points.by_method[u2]:
                verdict = points.pair(i, j)
                if not verdict.s_commute:
                    return True
                c1_concurs = u1 in inv_suff or verdict.a_r_b
                c2_concurs = u2 in inv_suff or verdict.b_r_a
                if not (c1_concurs and c2_concurs):
                    return True
        return False

    @staticmethod
    def _method_depends(points: _Points, u2: str, u1: str) -> bool:
        """∃ c2 on u2, c1 on u1 with c2 dependent on c1."""
        return any(
            not points.pair(j, i).a_l_b
            for j in points.by_method[u2]
            for i in points.by_method[u1]
        )

    def verify_summarizers(self) -> list[str]:
        """Check Summarize correctness on probe states; return violations.

        For each summarization group and each pair of calls c1, c2 on
        its methods, ``combine(c1, c2)`` must satisfy
        ``c2(c1(σ)) == combine(c1,c2)(σ)``, and the identity call must
        be a no-op.  Runs over the raw probe: ``combine`` may read a
        call's ``origin``/``rid``, so equal-argument calls are not merged.
        """
        probe = self.probe
        spec = self.spec
        problems: list[str] = []
        for summarizer in spec.summarizers:
            ident = summarizer.identity("probe")
            for sigma in probe.states:
                if not spec.state_eq(spec.apply_call(ident, sigma), sigma):
                    problems.append(
                        f"group {summarizer.group!r}: identity is not a no-op"
                    )
                    break
            group_calls = [
                c
                for u in sorted(summarizer.methods)
                for c in probe.calls_by_method[u]
            ]
            for c1, c2 in itertools.product(group_calls, repeat=2):
                combined = summarizer.combine(c1, c2)
                if combined.method not in spec.updates:
                    problems.append(
                        f"group {summarizer.group!r}: combine produced "
                        f"unknown method {combined.method!r}"
                    )
                    continue
                for sigma in probe.states:
                    want = spec.apply_call(c2, spec.apply_call(c1, sigma))
                    got = spec.apply_call(combined, sigma)
                    if not spec.state_eq(want, got):
                        problems.append(
                            f"group {summarizer.group!r}: "
                            f"combine({c1}, {c2}) is not their composition"
                        )
                        break
        return problems
