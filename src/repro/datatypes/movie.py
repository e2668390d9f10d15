"""The movie relational schema (paper §5, Figure 10).

Two independent relations — customers and movies — each with add and
delete methods.  Within one relation, add and delete of the same entity
S-conflict (delete-then-add vs add-then-delete diverge), so the four
methods form **two synchronization groups** with no dependencies:
{addCustomer, deleteCustomer} and {addMovie, deleteMovie}.  With two
groups Hamband runs two leaders concurrently, which is the point of the
Figure 10 experiment.
"""

from __future__ import annotations

from ..core import ObjectSpec, QueryDef, UpdateDef, keeps_always

__all__ = ["movie_spec"]

State = tuple[frozenset, frozenset]  # (customers, movies)

_CUSTOMERS = ["c1", "c2", "c3"]
_MOVIES = ["m1", "m2", "m3"]


def _add_customer(customer: str, state: State) -> State:
    customers, movies = state
    return (customers | {customer}, movies)

def _delete_customer(customer: str, state: State) -> State:
    customers, movies = state
    return (customers - {customer}, movies)

def _add_movie(movie: str, state: State) -> State:
    customers, movies = state
    return (customers, movies | {movie})

def _delete_movie(movie: str, state: State) -> State:
    customers, movies = state
    return (customers, movies - {movie})

def _count(_arg: object, state: State) -> tuple[int, int]:
    customers, movies = state
    return (len(customers), len(movies))


def movie_spec() -> ObjectSpec:
    return ObjectSpec(
        name="movie",
        initial_state=lambda: (frozenset(), frozenset()),
        invariant=lambda _state: True,
        updates=[
            UpdateDef("addCustomer", _add_customer, keeps_always),
            UpdateDef("deleteCustomer", _delete_customer, keeps_always),
            UpdateDef("addMovie", _add_movie, keeps_always),
            UpdateDef("deleteMovie", _delete_movie, keeps_always),
        ],
        queries=[QueryDef("count", _count)],
        state_gen=lambda rng: (
            frozenset(c for c in _CUSTOMERS if rng.random() < 0.5),
            frozenset(m for m in _MOVIES if rng.random() < 0.5),
        ),
        arg_gens={
            "addCustomer": lambda rng: rng.choice(_CUSTOMERS),
            "deleteCustomer": lambda rng: rng.choice(_CUSTOMERS),
            "addMovie": lambda rng: rng.choice(_MOVIES),
            "deleteMovie": lambda rng: rng.choice(_MOVIES),
        },
    )
