"""Last-writer-wins register CRDT (paper §5 use-cases).

State: the winning ``(timestamp, tiebreak, value)`` stamp, or the
initial sentinel.  ``write`` keeps the larger stamp, so any two writes
commute and a pair of writes summarizes to the winner — reducible,
benchmarked in Figure 8.  Timestamps are supplied by the caller
(the workload generator uses Lamport-style ``(counter, origin)``
stamps), which makes ``write`` a pure function.
"""

from __future__ import annotations

from typing import Any

from ..core import (
    Call,
    ObjectSpec,
    QueryDef,
    Summarizer,
    UpdateDef,
    keeps_always,
)

__all__ = ["lww_spec"]

#: Stamps sort lexicographically; the initial state loses to any write.
_INITIAL = (0, "", None)

Stamp = tuple[int, str, Any]


def _write(stamp: Stamp, state: Stamp) -> Stamp:
    return max(state, stamp)

def _read(_arg: object, state: Stamp) -> Any:
    return state[2]

def _stamp_of(_arg: object, state: Stamp) -> Stamp:
    return state


def _combine(c1: Call, c2: Call) -> Call:
    winner = max(c1.arg, c2.arg)
    return Call("write", winner, c2.origin, c2.rid)


def lww_spec() -> ObjectSpec:
    return ObjectSpec(
        name="lww",
        initial_state=lambda: _INITIAL,
        invariant=lambda _state: True,
        updates=[UpdateDef("write", _write, keeps_always)],
        queries=[QueryDef("read", _read), QueryDef("stamp", _stamp_of)],
        summarizers=[
            Summarizer(
                group="writes",
                methods=frozenset({"write"}),
                combine=_combine,
                identity=lambda origin: Call("write", _INITIAL, origin, 0),
            )
        ],
        state_gen=lambda rng: (rng.randrange(0, 100), "g", rng.randrange(100)),
        arg_gens={
            "write": lambda rng: (rng.randrange(0, 100), "w", rng.randrange(100))
        },
    )
