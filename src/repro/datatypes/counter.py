"""Counter CRDT (paper §5 use-cases, adopted from Shapiro et al.).

An op-based PN-counter: ``add`` takes a (possibly negative) delta.
There is no invariant, every pair of adds commutes, and adds summarize
by summing deltas — the canonical *reducible* method, which Figure 8
benchmarks.
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

__all__ = ["counter_spec"]


def _add(delta: int, value: int) -> int:
    return value + delta

def _value(_arg: object, value: int) -> int:
    return value


def _combine(c1: Call, c2: Call) -> Call:
    return Call("add", c1.arg + c2.arg, c2.origin, c2.rid)


def counter_spec() -> ObjectSpec:
    return ObjectSpec(
        name="counter",
        initial_state=lambda: 0,
        invariant=lambda _value: True,
        updates=[UpdateDef("add", _add, keeps_always)],
        queries=[QueryDef("value", _value)],
        summarizers=[
            Summarizer(
                group="adds",
                methods=frozenset({"add"}),
                combine=_combine,
                identity=lambda origin: Call("add", 0, origin, 0),
            )
        ],
        state_gen=lambda rng: rng.randrange(-50, 50),
        arg_gens={"add": lambda rng: rng.randrange(-10, 11)},
    )
