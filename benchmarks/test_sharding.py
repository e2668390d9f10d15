"""Sharded-keyspace scaling (the cross-shard bank headline).

Not a paper figure — the headline benchmark of the sharded-topology
extension (SafarDB-style commutativity-driven cross-shard commits over
Hamband shards).  Two sweeps:

* Shard-count scaling: the same all-commuting payroll workload (fixed
  client pool, fixed op budget) over 1/2/4/8 shards.  Throughput must
  scale because commuting txns commit per-shard with no cross-shard
  coordination at all — the acceptance bar is >=3x at 4 shards.
* Txn-mix sweep: at 4 shards, sliding the workload from all-commuting
  payroll to conflicting transfers.  Conflicting txns pay for the
  ordered per-shard lock/commit path, so throughput degrades smoothly
  with the mix — quantifying what commutativity buys.

Every traced run must converge and pass the per-shard + cross-shard
atomicity checker.
"""

from repro.bench import (
    ExperimentConfig,
    fig_header,
    run_experiment,
    run_harness,
    series_table,
)

OPS = 1200
SHARD_COUNTS = (1, 2, 4, 8)
TXN_MIXES = (0.0, 0.25, 0.5, 1.0)


def _config(n_shards, txn_mix=0.0, seed=1):
    return ExperimentConfig(
        system="hamband",
        workload="sharded-bank",
        n_nodes=3,
        total_ops=OPS,
        seed=seed,
        n_shards=n_shards,
        txn_mix=txn_mix,
    )


class TestShardScaling:
    def test_throughput_vs_shard_count(self, benchmark, emit):
        def run():
            return [
                (f"{n} shard{'s' if n > 1 else ''}",
                 run_experiment(_config(n)))
                for n in SHARD_COUNTS
            ]

        rows = benchmark.pedantic(run, rounds=1, iterations=1)

        emit("sharding", fig_header(
            "Sharding",
            "cross-shard bank: scaling and txn-mix sweeps",
        ))
        emit("sharding", series_table(
            f"all-commuting payroll vs shard count (3 nodes/shard, "
            f"{OPS} constituent calls)",
            rows,
        ))

        by_count = {
            n: result.throughput_ops_per_us
            for n, (_label, result) in zip(SHARD_COUNTS, rows)
        }
        assert by_count[1] > 0
        # The acceptance bar: commuting txns fan out with no cross-shard
        # coordination, so 4 shards must buy >=3x over the 1-shard
        # baseline of the *same* workload and client pool.
        assert by_count[4] >= 3.0 * by_count[1], (
            f"4-shard speedup {by_count[4] / by_count[1]:.2f}x < 3x "
            f"({by_count[4]:.3f} vs {by_count[1]:.3f} ops/us)"
        )
        # More shards never hurt (monotone within a small tolerance).
        assert by_count[2] > by_count[1]
        assert by_count[8] > 0.9 * by_count[4]

    def test_commuting_vs_conflicting_mix(self, benchmark, emit):
        def run():
            out = []
            for mix in TXN_MIXES:
                traced = run_harness(_config(4, txn_mix=mix))
                report = traced.check()
                out.append((f"txn-mix={mix:.2f}", traced, report))
            return out

        rows = benchmark.pedantic(run, rounds=1, iterations=1)

        emit("sharding", series_table(
            "txn-mix sweep at 4 shards (0 = all payroll, "
            "1 = all transfers)",
            [(label, traced.result) for label, traced, _ in rows],
        ))

        for label, traced, report in rows:
            assert report.ok, f"{label}: {report.summary()}"
            counters = traced.coordinator.counters
            assert counters["commits"] > 0
        # The all-commuting end runs the fire-and-forget path only; the
        # all-conflicting end pays the ordered lock/commit path, where
        # every in-flight transfer queues on its two shard locks — an
        # order-of-magnitude gap is the expected price of conflict, but
        # the lock path must not starve outright.
        free = rows[0][1].result.throughput_ops_per_us
        locked = rows[-1][1].result.throughput_ops_per_us
        assert locked < free
        assert locked > free / 50.0, (
            f"conflicting mix collapsed: {locked:.3f} vs {free:.3f}"
        )
        # Classification matches the mix: the all-payroll end never
        # takes a lock, the all-transfer end always does.
        assert rows[0][1].coordinator.counters["txns_locked"] == 0
        assert rows[-1][1].coordinator.counters["txns_commuting"] == 0
