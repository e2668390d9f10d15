#!/usr/bin/env python3
"""Compare Hamband with the two baselines on one workload (paper §5).

Runs the same seeded counter workload against:

- **hamband** — RDMA WRDTs: reducible adds are summarized locally and
  propagated with one one-sided write per peer,
- **mu** — a Mu-style SMR: every update is totally ordered by a single
  leader (strong consistency),
- **msg** — message-passing op-based CRDTs through the network/OS stack,

then prints the Figure 8-style comparison: who wins on throughput and
response time, and by how much.

Run:  python examples/system_comparison.py
"""

from repro.bench import ExperimentConfig, run_harness


def main() -> None:
    print("counter workload: 1200 ops, 25% updates, 4 nodes\n")
    results = {}
    for system in ("hamband", "mu", "msg"):
        # msg has no probe seam, so all three run untraced.
        results[system] = run_harness(
            ExperimentConfig(
                system=system,
                workload="counter",
                n_nodes=4,
                total_ops=1200,
                update_ratio=0.25,
            ),
            trace=False,
        ).result
        print("  " + results[system].summary_row())

    hamband, mu, msg = results["hamband"], results["mu"], results["msg"]
    print("\nfactors (paper §5 reports 17.7x / 3.7x throughput and 23x")
    print("lower response time than MSG):")
    print(
        f"  hamband vs msg throughput: "
        f"{hamband.throughput_ops_per_us / msg.throughput_ops_per_us:5.1f}x"
    )
    print(
        f"  hamband vs mu  throughput: "
        f"{hamband.throughput_ops_per_us / mu.throughput_ops_per_us:5.1f}x"
    )
    print(
        f"  msg vs hamband response  : "
        f"{msg.mean_response_us / hamband.mean_response_us:5.1f}x"
    )
    print(
        f"  mu  vs hamband response  : "
        f"{mu.mean_response_us / hamband.mean_response_us:5.1f}x"
    )


if __name__ == "__main__":
    main()
