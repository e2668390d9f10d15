#!/usr/bin/env python3
"""Define your own replicated data type and let Hamband coordinate it.

Models a conference-room booking system:

- ``announce(rooms)`` — publish a set of rooms (reducible: set union
  summarizes),
- ``book((room, slot, who))`` — take a slot; the invariant demands at
  most one booking per slot and only announced rooms, so racing books
  permissible-conflict and need the group leader,
- ``cancel((room, slot, who))`` — release a booking; cancel/book on
  the same entry state-conflict, so cancel joins the group,
- ``bookings`` — query.

The point of the example: you write ONLY the sequential data type —
state, invariant, pure update methods, plus generators for the bounded
analysis — and the analysis derives which methods conflict, what
depends on what, and how each method is propagated.

Run:  python examples/custom_datatype.py
"""

import random

from repro.core import (
    Call,
    Coordination,
    ObjectSpec,
    QueryDef,
    Summarizer,
    UpdateDef,
)
from repro.runtime import HambandCluster, TraceRecorder
from repro.sim import Environment

# State: (announced rooms, booked (room, slot, booker) entries).
ROOMS = ["aula", "lab"]
SLOTS = [9, 10, 11]
BOOKERS = ["ann", "bob"]


def _invariant(state) -> bool:
    rooms, bookings = state
    slots_taken = [(room, slot) for (room, slot, _who) in bookings]
    return (
        all(room in rooms for (room, _slot) in slots_taken)
        and len(slots_taken) == len(set(slots_taken))  # no double booking
    )

def _announce(rooms_arg, state):
    rooms, bookings = state
    return (rooms | rooms_arg, bookings)

def _book(arg, state):
    rooms, bookings = state
    return (rooms, bookings | {arg})

def _cancel(arg, state):
    rooms, bookings = state
    return (rooms, bookings - {arg})

def _bookings(_arg, state):
    return sorted(state[1])


def booking_spec() -> ObjectSpec:
    return ObjectSpec(
        name="room_booking",
        initial_state=lambda: (frozenset(), frozenset()),
        invariant=_invariant,
        updates=[
            UpdateDef("announce", _announce),
            UpdateDef("book", _book),
            UpdateDef("cancel", _cancel),
        ],
        queries=[QueryDef("bookings", _bookings)],
        summarizers=[
            Summarizer(
                group="announcements",
                methods=frozenset({"announce"}),
                combine=lambda c1, c2: Call(
                    "announce", c1.arg | c2.arg, c2.origin, c2.rid
                ),
                identity=lambda origin: Call(
                    "announce", frozenset(), origin, 0
                ),
            )
        ],
        state_gen=_random_state,
        arg_gens={
            "announce": lambda rng: frozenset({rng.choice(ROOMS)}),
            "book": lambda rng: (
                rng.choice(ROOMS),
                rng.choice(SLOTS),
                rng.choice(BOOKERS),
            ),
            "cancel": lambda rng: (
                rng.choice(ROOMS),
                rng.choice(SLOTS),
                rng.choice(BOOKERS),
            ),
        },
    )


def _random_state(rng: random.Random):
    rooms = frozenset(r for r in ROOMS if rng.random() < 0.7)
    bookings = frozenset(
        (r, s, rng.choice(BOOKERS))
        for r in ROOMS
        for s in SLOTS
        if rng.random() < 0.2
    )
    return (rooms, bookings)


def main() -> None:
    spec = booking_spec()
    coordination = Coordination.analyze(spec)
    print("== inferred coordination ==")
    for method in spec.update_names():
        print(
            f"  {method:10s} {coordination.category(method).value:28s} "
            f"Dep={sorted(coordination.dep(method)) or '-'}"
        )
    print(f"  sync groups: {[g.gid for g in coordination.sync_groups()]}")

    env = Environment()
    recorder = TraceRecorder(env)
    cluster = HambandCluster.build(
        env, coordination, n_nodes=3, probe_factory=recorder.probe_factory
    )
    leader = cluster.node("p1").current_leader("book")
    print(f"\nbooking leader: {leader}")

    env.run(until=cluster.node("p2").submit("announce", frozenset(ROOMS)))
    env.run(until=cluster.node(leader).submit("book", ("aula", 9, "ann")))
    env.run(until=cluster.node(leader).submit("book", ("lab", 10, "bob")))
    env.run(until=cluster.node(leader).submit("cancel", ("aula", 9, "ann")))
    env.run(until=env.now + 200)

    for name in cluster.node_names():
        result = env.run(until=cluster.node(name).submit("bookings"))
        print(f"  {name} sees bookings: {result}")
    assert cluster.converged()
    assert cluster.integrity_holds()
    cluster.check_refinement(recorder.events(), recorder.dropped())
    print("custom datatype example OK")


if __name__ == "__main__":
    main()
