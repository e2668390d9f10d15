#!/usr/bin/env python3
"""Composing WRDTs: run a whole application state as one object.

Builds an e-commerce-ish application out of the bundled pieces with the
combinators in :mod:`repro.core.compose`:

- a ``product`` of three components — page-view counter (reducible),
  per-user shopping carts (a ``map_of`` the OR-cart, irreducible
  conflict-free), and the store's bank account (deposit reducible,
  withdraw conflicting) — becomes ONE replicated object,
- the analysis of the composite is the disjoint union of the component
  analyses: one synchronization group (the account's withdraw), the
  rest coordination-free,
- the composite runs on a Hamband cluster unchanged.

Run:  python examples/composition.py
"""

from repro.core import Category, Coordination
from repro.core.compose import map_of, product
from repro.datatypes import account_spec, cart_spec, counter_spec
from repro.runtime import HambandCluster, TraceRecorder
from repro.sim import Environment


def build_shop_spec():
    views = counter_spec()
    views.name = "views"
    carts = map_of("carts", cart_spec(), sample_keys=["alice", "bob"])
    till = account_spec()
    till.name = "till"
    return product("shop", [views, carts, till])


def main() -> None:
    spec = build_shop_spec()
    coordination = Coordination.analyze(spec)
    print("== composite analysis ==")
    for method in spec.update_names():
        category = coordination.category(method)
        print(f"  {method:22s} {category.value}")
    groups = [g.gid for g in coordination.sync_groups()]
    print(f"  sync groups: {groups}")
    assert coordination.category("views.add") is Category.REDUCIBLE
    assert (
        coordination.category("carts.add_item")
        is Category.IRREDUCIBLE_CONFLICT_FREE
    )
    assert coordination.category("till.withdraw") is Category.CONFLICTING

    env = Environment()
    recorder = TraceRecorder(env)
    cluster = HambandCluster.build(
        env, coordination, n_nodes=3, probe_factory=recorder.probe_factory
    )
    leader = cluster.node("p1").current_leader("till.withdraw")
    print(f"\ntill leader: {leader}")

    # Shoppers browse (reducible), fill carts (buffered), and pay
    # (reducible deposit); the shop pays a supplier (conflicting).
    env.run(until=cluster.node("p1").submit("views.add", 3))
    env.run(until=cluster.node("p2").submit("views.add", 2))
    env.run(
        until=cluster.node("p1").submit(
            "carts.add_item", ("alice", ("book", 2, ("p1", 1)))
        )
    )
    env.run(
        until=cluster.node("p3").submit(
            "carts.add_item", ("bob", ("mug", 1, ("p3", 1)))
        )
    )
    env.run(until=cluster.node("p2").submit("till.deposit", 40))
    env.run(until=cluster.node(leader).submit("till.withdraw", 15))
    env.run(until=env.now + 300)

    assert cluster.converged()
    assert cluster.integrity_holds()
    cluster.check_refinement(recorder.events(), recorder.dropped())

    views = env.run(until=cluster.node("p3").submit("views.value"))
    alice = env.run(
        until=cluster.node("p2").submit("carts.contents", ("alice", None))
    )
    balance = env.run(until=cluster.node("p1").submit("till.balance"))
    print(f"\n  page views: {views}")
    print(f"  alice's cart: {alice}")
    print(f"  till balance: {balance}")
    assert views == 5 and alice == {"book": 2} and balance == 25
    print("\ncomposition example OK")


if __name__ == "__main__":
    main()
