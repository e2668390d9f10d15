"""Two-phase set CRDT (Shapiro et al.'s 2P-Set; an extension type).

State: ``(added, tombstones)``.  ``add`` inserts into the added set,
``remove`` inserts into the tombstone set; membership is "added and not
tombstoned", so a removed element can never return.  Both updates are
blind set inserts — they commute with each other (including add/remove
of the same element, since membership is derived), the invariant is
trivial, and the analysis infers both methods conflict-free without any
declarations, unlike the OR-set whose commutativity is causal.

``remove`` is not summarizable in the single-element form; the set
union variants would be.  Categories: both irreducible conflict-free.
"""

from __future__ import annotations

from ..core import ObjectSpec, QueryDef, UpdateDef, keeps_always

__all__ = ["twophase_set_spec"]

State = tuple[frozenset, frozenset]  # (added, tombstones)

_UNIVERSE = ["a", "b", "c", "d"]


def _add(element: str, state: State) -> State:
    added, tombstones = state
    return (added | {element}, tombstones)

def _remove(element: str, state: State) -> State:
    added, tombstones = state
    return (added, tombstones | {element})

def _contains(element: str, state: State) -> bool:
    added, tombstones = state
    return element in added and element not in tombstones

def _elements(_arg: object, state: State) -> frozenset:
    added, tombstones = state
    return added - tombstones


def twophase_set_spec() -> ObjectSpec:
    return ObjectSpec(
        name="twophase_set",
        initial_state=lambda: (frozenset(), frozenset()),
        invariant=lambda _state: True,
        updates=[
            UpdateDef("add", _add, keeps_always),
            UpdateDef("remove", _remove, keeps_always),
        ],
        queries=[
            QueryDef("contains", _contains),
            QueryDef("elements", _elements),
        ],
        state_gen=lambda rng: (
            frozenset(e for e in _UNIVERSE if rng.random() < 0.5),
            frozenset(e for e in _UNIVERSE if rng.random() < 0.3),
        ),
        arg_gens={
            "add": lambda rng: rng.choice(_UNIVERSE),
            "remove": lambda rng: rng.choice(_UNIVERSE),
        },
    )
