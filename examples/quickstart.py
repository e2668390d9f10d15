#!/usr/bin/env python3
"""Quickstart: the paper's bank account, replicated over simulated RDMA.

Defines nothing new — uses the bundled Account spec — and walks the
whole pipeline:

1. coordination analysis (Figure 1: conflict graph + dependencies),
2. a 3-node Hamband cluster on a simulated RDMA fabric,
3. deposits (reducible: summarized, one remote write each),
4. withdrawals (conflicting: ordered by the group leader through Mu),
5. queries, convergence, and the refinement check against the paper's
   abstract WRDT semantics.

Run:  python examples/quickstart.py
"""

from repro.core import Category, Coordination, concrete_events
from repro.datatypes import account_spec
from repro.runtime import HambandCluster, TraceRecorder
from repro.sim import Environment


def main() -> None:
    # -- 1. analysis -----------------------------------------------------
    spec = account_spec()
    coordination = Coordination.analyze(spec)
    print("== coordination analysis (paper Figure 1) ==")
    for method in spec.update_names():
        category = coordination.category(method)
        deps = sorted(coordination.dep(method)) or "-"
        print(f"  {method:10s} category={category.value:28s} Dep={deps}")
    print(f"  sync groups: {[g.gid for g in coordination.sync_groups()]}")

    # -- 2. a cluster ------------------------------------------------------
    # The flight recorder on the probe seam is the run's only record:
    # the cluster itself retains nothing per applied call.
    env = Environment()
    recorder = TraceRecorder(env)
    cluster = HambandCluster.build(
        env, coordination, n_nodes=3, probe_factory=recorder.probe_factory
    )
    print("\n== 3-node Hamband cluster ==")
    leader = cluster.node("p1").current_leader("withdraw")
    print(f"  withdraw leader: {leader}")

    # -- 3. reducible deposits from different replicas --------------------
    for node, amount in [("p1", 50), ("p2", 30), ("p3", 20)]:
        response = cluster.node(node).submit("deposit", amount)
        call = env.run(until=response)
        print(f"  t={env.now:7.2f}us  {node} deposited {amount} -> {call}")

    # -- 4. a conflicting withdrawal through the leader --------------------
    response = cluster.node(leader).submit("withdraw", 45)
    call = env.run(until=response)
    print(f"  t={env.now:7.2f}us  {leader} withdrew 45 -> {call}")

    # -- 5. settle, query, verify ------------------------------------------
    env.run(until=env.now + 200)
    balances = {
        name: env.run(until=cluster.node(name).submit("balance"))
        for name in cluster.node_names()
    }
    print(f"\n  balances: {balances}")
    assert balances == {"p1": 55, "p2": 55, "p3": 55}
    assert cluster.converged()
    assert cluster.integrity_holds()

    trace = recorder.events()
    abstract = cluster.check_refinement(trace, recorder.dropped())
    assert abstract.integrity_holds()
    print(
        f"  refinement verified: {len(concrete_events(trace))} concrete "
        "events replay through the abstract WRDT semantics"
    )
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
