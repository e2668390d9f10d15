"""Grow-only set CRDT, in the paper's two flavors (§2 "Method categories").

- :func:`gset_spec` — ``add`` inserts a *single* element.  Conflict-free
  and dependence-free but **not summarizable** (two adds of different
  elements have no single-``add`` composition), so it is irreducible
  conflict-free: the paper's example of exactly that category.
- :func:`gset_union_spec` — ``add_all`` inserts a *set* of elements,
  which summarizes by union, making it **reducible**.  This is the
  variant Figure 8 benchmarks; Figure 9 reuses it "with buffers instead
  of summaries" (the runtime's ``force_buffered`` switch).
"""

from __future__ import annotations

from ..core import (
    Call,
    ObjectSpec,
    QueryDef,
    Summarizer,
    UpdateDef,
    keeps_always,
)

__all__ = ["gset_spec", "gset_union_spec"]

_UNIVERSE = ["a", "b", "c", "d", "e"]


def _add(element: str, state: frozenset) -> frozenset:
    return state | {element}

def _add_all(elements: frozenset, state: frozenset) -> frozenset:
    return state | elements

def _contains(element: str, state: frozenset) -> bool:
    return element in state

def _elements(_arg: object, state: frozenset) -> frozenset:
    return state

def _size(_arg: object, state: frozenset) -> int:
    return len(state)

_QUERIES = [
    QueryDef("contains", _contains),
    QueryDef("elements", _elements),
    QueryDef("size", _size),
]


def gset_spec() -> ObjectSpec:
    """Single-element adds: irreducible conflict-free."""
    return ObjectSpec(
        name="gset",
        initial_state=frozenset,
        invariant=lambda _state: True,
        updates=[UpdateDef("add", _add, keeps_always)],
        queries=_QUERIES,
        state_gen=lambda rng: frozenset(
            e for e in _UNIVERSE if rng.random() < 0.4
        ),
        arg_gens={"add": lambda rng: rng.choice(_UNIVERSE)},
    )


def _combine_union(c1: Call, c2: Call) -> Call:
    return Call("add_all", c1.arg | c2.arg, c2.origin, c2.rid)


def gset_union_spec() -> ObjectSpec:
    """Set-valued adds: summarizable by union, hence reducible."""
    return ObjectSpec(
        name="gset_union",
        initial_state=frozenset,
        invariant=lambda _state: True,
        updates=[UpdateDef("add_all", _add_all, keeps_always)],
        queries=_QUERIES,
        summarizers=[
            Summarizer(
                group="unions",
                methods=frozenset({"add_all"}),
                combine=_combine_union,
                identity=lambda origin: Call(
                    "add_all", frozenset(), origin, 0
                ),
            )
        ],
        state_gen=lambda rng: frozenset(
            e for e in _UNIVERSE if rng.random() < 0.4
        ),
        arg_gens={
            "add_all": lambda rng: frozenset(
                e for e in _UNIVERSE if rng.random() < 0.3
            )
        },
    )
