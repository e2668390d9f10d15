"""Object data types ⟨Σ, I, ū:=d̄, q̄:=d̄⟩ (paper §3.1, Figure 3).

An :class:`ObjectSpec` packages:

- the initial state and the integrity invariant ``I`` (a predicate on
  states),
- update method definitions — pure functions ``(arg, pre_state) ->
  post_state``,
- query method definitions — pure functions ``(arg, state) -> value``,
- summarizer declarations (paper's summarization groups), and
- generators for states and per-method arguments, which the bounded
  coordination analysis samples.

Update definitions MUST be pure: the post-state is a function of
``(arg, pre_state)`` alone, returned as a fresh value, and the pre-state
is never mutated.  Every layer (both operational semantics, the Hamband
runtime, and both baselines) shares the spec, which is what makes
cross-system convergence checks meaningful — and the trace checkers rely
on the contract twice over: replicas may hold the *same* state object,
and a REDUCE is stepped once per distinct pre-state of its event
(:class:`repro.core.replay.Replay`).  Equal arguments and equal states
(same type, ``==``) are therefore interchangeable, which the
coordination analyzer and ``Replay`` rely on.  ``tests/datatypes`` pins
it for every bundled data type.

An update may also declare its *delta invariant* ``keeps(arg, pre) ->
bool``.  The contract: whenever ``I(pre)`` holds, ``keeps(arg, pre) ==
I(apply(arg, pre))``, and ``keeps`` reads only what the call touches
(an invariant-sufficient method keeps trivially; a foreign-key insert
checks its two referenced rows, not every row).  Permissibility is then
decided by :meth:`ObjectSpec.holds_after`: the delta when the pre-state
is known to satisfy ``I``, the whole-state ``I`` otherwise — so a spec
that declares no delta is checked exactly as before.  Nothing trusts a
declaration: ``tests/core/test_deltas.py`` checks every declared delta
against the whole-state ``I`` on sampled invariant states, and the
trace checkers re-evaluate the whole-state ``I`` per node at the end of
every check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .calls import Call

__all__ = [
    "ObjectSpec", "QueryDef", "SpecError", "Summarizer", "UpdateDef",
    "keeps_always",
]

StateFn = Callable[[Any, Any], Any]


def keeps_always(_arg: Any, _pre: Any) -> bool:
    """The delta of an invariant-sufficient method: ``I(pre) ⇒ I(post)``."""
    return True


class SpecError(Exception):
    """Raised for ill-formed object specifications."""


@dataclass(frozen=True)
class UpdateDef:
    """An update method ``u := λx, σ. e``, and optionally its delta
    invariant (see the module docstring for the ``keeps`` contract)."""

    name: str
    apply: StateFn  # (arg, pre_state) -> post_state
    keeps: Optional[Callable[[Any, Any], bool]] = None  # (arg, pre_state)


@dataclass(frozen=True)
class QueryDef:
    """A query method ``q := λx, σ. e``."""

    name: str
    compute: StateFn  # (arg, state) -> return value


@dataclass(frozen=True)
class Summarizer:
    """A summarization group: calls closed under pairwise summarization.

    ``combine(c1, c2)`` must return a call ``c''`` with
    ``c2(c1(σ)) == c''(σ)`` for every state — the analysis verifies this
    on sampled states.  ``identity`` is a no-op call the runtime seeds
    summary slots with (e.g. ``add(0)`` for a counter).
    """

    group: str
    methods: frozenset[str]
    combine: Callable[[Call, Call], Call]
    identity: Callable[[str], Call]  # origin -> neutral call


class ObjectSpec:
    """A replicated object data type shared by every system in the repo."""

    def __init__(
        self,
        name: str,
        initial_state: Callable[[], Any],
        invariant: Callable[[Any], bool],
        updates: list[UpdateDef],
        queries: list[QueryDef],
        summarizers: Optional[list[Summarizer]] = None,
        state_gen: Optional[Callable[[random.Random], Any]] = None,
        arg_gens: Optional[dict[str, Callable[[random.Random], Any]]] = None,
        state_eq: Callable[[Any, Any], bool] = lambda a, b: a == b,
        declared_conflicts: Optional[set[frozenset[str]]] = None,
        declared_dependencies: Optional[dict[str, set[str]]] = None,
    ):
        self.name = name
        self.initial_state = initial_state
        self.invariant = invariant
        self.updates = {u.name: u for u in updates}
        self.queries = {q.name: q for q in queries}
        self.summarizers = list(summarizers or [])
        self.state_gen = state_gen
        self.arg_gens = dict(arg_gens or {})
        self.state_eq = state_eq
        #: Optional ground-truth relations.  When both are supplied the
        #: analyzer trusts them instead of bounded checking — required
        #: for op-based CRDTs (ORSet, carts) whose commutativity rests
        #: on causal-tag arguments that independent sampling cannot see.
        #: Invariant-sufficiency is still probed for every method with
        #: an argument generator.
        self.declared_conflicts = declared_conflicts
        self.declared_dependencies = declared_dependencies
        if (declared_conflicts is None) != (declared_dependencies is None):
            raise SpecError(
                "declare both conflicts and dependencies, or neither"
            )
        self._validate()
        self._sum_group_of: dict[str, Summarizer] = {}
        for summarizer in self.summarizers:
            for method in summarizer.methods:
                self._sum_group_of[method] = summarizer

    def _validate(self) -> None:
        if len(self.updates) + len(self.queries) == 0:
            raise SpecError(f"object {self.name!r} declares no methods")
        overlap = set(self.updates) & set(self.queries)
        if overlap:
            raise SpecError(f"methods both update and query: {sorted(overlap)}")
        for summarizer in self.summarizers:
            unknown = summarizer.methods - set(self.updates)
            if unknown:
                raise SpecError(
                    f"summarizer {summarizer.group!r} names unknown methods "
                    f"{sorted(unknown)}"
                )
        if not self.invariant(self.initial_state()):
            raise SpecError(
                f"initial state of {self.name!r} violates the invariant"
            )

    # -- semantics helpers -------------------------------------------------

    def apply_call(self, call: Call, state: Any) -> Any:
        """``u(v)(σ)``: the post-state of applying an update call."""
        try:
            update = self.updates[call.method]
        except KeyError:
            raise SpecError(f"unknown update method {call.method!r}") from None
        return update.apply(call.arg, state)

    def run_query(self, method: str, arg: Any, state: Any) -> Any:
        try:
            query = self.queries[method]
        except KeyError:
            raise SpecError(f"unknown query method {method!r}") from None
        return query.compute(arg, state)

    def permissible(self, state: Any, call: Call) -> bool:
        """``P(σ, c) := I(c(σ))`` (paper §3.2)."""
        return bool(self.invariant(self.apply_call(call, state)))

    def holds_after(self, call: Call, pre: Any, post: Any,
                    pre_holds: bool) -> bool:
        """``I(post)`` for ``post = call(pre)``: the method's declared
        delta when ``pre_holds`` (``I(pre)`` is known), else the
        whole-state invariant."""
        if pre_holds:
            keeps = self.updates[call.method].keeps
            if keeps is not None:
                return bool(keeps(call.arg, pre))
        return bool(self.invariant(post))

    def summarizer_of(self, method: str) -> Optional[Summarizer]:
        """The summarization group of a method, or None (``SumGroup(u)=⊥``)."""
        return self._sum_group_of.get(method)

    def update_names(self) -> list[str]:
        return sorted(self.updates)

    def query_names(self) -> list[str]:
        return sorted(self.queries)

    # -- sampling for the bounded analysis ----------------------------------

    def sample_states(self, rng: random.Random, count: int) -> list[Any]:
        """Sample states for relation checking (always includes initial)."""
        states = [self.initial_state()]
        if self.state_gen is not None:
            states.extend(self.state_gen(rng) for _ in range(count))
        return states

    def sample_args(self, method: str, rng: random.Random,
                    count: int) -> list[Any]:
        gen = self.arg_gens.get(method)
        if gen is None:
            return [None]
        return [gen(rng) for _ in range(count)]

    def __repr__(self) -> str:
        return (
            f"ObjectSpec({self.name!r}, updates={self.update_names()}, "
            f"queries={self.query_names()})"
        )
