"""The sharded keyspace: router, facade, recorder, and checker."""

import os
import subprocess
import sys

import pytest

from repro.datatypes import bankmap_spec
from repro.runtime import (
    RuntimeConfig,
    ShardedCluster,
    ShardedRecorder,
    ShardedTraceChecker,
    ShardRouter,
)
from repro.runtime.config import RING_SLOTS
from repro.sim import Environment


def build_sharded(n_shards=2, n_nodes=3, recorder=None, seed=0):
    env = Environment()
    sharded = ShardedCluster.build(
        env,
        bankmap_spec(),
        n_shards=n_shards,
        n_nodes=n_nodes,
        shard_probe_factory=(
            recorder.probe_factory_for if recorder is not None else None
        ),
        seed=seed,
    )
    if recorder is not None:
        recorder.attach(sharded.coordination)
    return env, sharded


class TestShardRouter:
    def test_deterministic_under_fixed_seed(self):
        keys = [f"acct{i}" for i in range(100)]
        a = ShardRouter(4, seed=42)
        b = ShardRouter(4, seed=42)
        assert [a.shard_of(k) for k in keys] == [
            b.shard_of(k) for k in keys
        ]

    def test_different_seeds_differ(self):
        keys = [f"acct{i}" for i in range(100)]
        a = ShardRouter(4, seed=1)
        b = ShardRouter(4, seed=2)
        assert [a.shard_of(k) for k in keys] != [
            b.shard_of(k) for k in keys
        ]

    def test_every_key_lands_on_a_valid_shard(self):
        router = ShardRouter(3, seed=7)
        for key in (f"k{i}" for i in range(200)):
            assert 0 <= router.shard_of(key) < 3

    def test_pinning_overrides_the_ring(self):
        router = ShardRouter(4, seed=0)
        key = "hot-account"
        natural = router.shard_of(key)
        pinned = (natural + 1) % 4
        router.pin(key, pinned)
        assert router.shard_of(key) == pinned
        router.unpin(key)
        assert router.shard_of(key) == natural

    def test_pin_validates_shard_index(self):
        router = ShardRouter(2, seed=0)
        with pytest.raises(ValueError):
            router.pin("k", 2)

    def test_distribution_is_balanced_over_many_keys(self):
        router = ShardRouter(4, seed=3)
        keys = [f"key-{i}" for i in range(4000)]
        dist = router.distribution(keys)
        assert sum(dist.values()) == len(keys)
        for shard in range(4):
            share = dist[shard] / len(keys)
            # Consistent hashing with 64 vnodes/shard: every shard owns
            # a meaningful slice, none dominates.
            assert 0.10 <= share <= 0.45, dist

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1, seed=9)
        assert {router.shard_of(f"k{i}") for i in range(50)} == {0}


class TestShardedClusterFacade:
    def test_addressing_and_node_names(self):
        _env, sharded = build_sharded(n_shards=2, n_nodes=3)
        names = sharded.node_names()
        assert len(names) == 6
        assert names[0] == "s0/p1" and names[-1] == "s1/p3"
        assert sharded.split_address("s1/p2") == (1, "p2")
        node = sharded.node("s1/p2")
        assert node is sharded.shard(1).node("p2")

    def test_bad_address_rejected(self):
        _env, sharded = build_sharded()
        with pytest.raises(ValueError):
            sharded.split_address("p1")
        with pytest.raises(ValueError):
            sharded.node("s9/p1")

    def test_shards_are_independent_clusters(self):
        env, sharded = build_sharded(n_shards=2)
        s0, s1 = sharded.shard(0), sharded.shard(1)
        assert s0 is not s1
        done = s0.node("p1").submit("open", "acct-a")
        env.run(until=done)
        target = {0: 1, 1: 0}
        env.run(until=env.process(sharded.quiesce(target)))
        # The open replicated inside shard 0 only.
        totals = sharded.applied_totals()
        assert all(v == 1 for k, v in totals.items() if k.startswith("s0/"))
        assert all(v == 0 for k, v in totals.items() if k.startswith("s1/"))
        assert sharded.converged()
        assert sharded.integrity_holds()

    def test_stats_groups_by_shard_with_global_rollup(self):
        env, sharded = build_sharded(n_shards=2)
        done = sharded.shard(0).node("p1").submit("open", "acct-a")
        env.run(until=done)
        env.run(until=env.process(sharded.quiesce({0: 1, 1: 0})))
        stats = sharded.stats()
        assert set(stats) == {"s0", "s1", "global"}
        assert "cluster" in stats["s0"]
        applied = stats["global"]["probe"]["applies"]
        assert sum(applied.values()) > 0


class TestShardedRecorderAndChecker:
    def test_clean_sharded_trace_checks_ok(self):
        env = Environment()
        recorder = ShardedRecorder(env, n_shards=2)
        sharded = ShardedCluster.build(
            env, bankmap_spec(), n_shards=2, n_nodes=3,
            shard_probe_factory=recorder.probe_factory_for,
        )
        recorder.attach(sharded.coordination)
        done = sharded.shard(0).node("p1").submit("open", "acct-a")
        env.run(until=done)
        done = sharded.shard(1).node("p1").submit("open", "acct-b")
        env.run(until=done)
        env.run(until=env.process(sharded.quiesce({0: 1, 1: 1})))
        report = ShardedTraceChecker(
            sharded.coordination, n_shards=2
        ).check_recorder(recorder)
        assert report.ok, report.summary()
        assert report.txns_checked == 0
        assert set(report.shard_reports) == {0, 1}

    def test_merged_events_carry_shard_prefixed_nodes(self):
        env = Environment()
        recorder = ShardedRecorder(env, n_shards=2)
        sharded = ShardedCluster.build(
            env, bankmap_spec(), n_shards=2, n_nodes=3,
            shard_probe_factory=recorder.probe_factory_for,
        )
        recorder.attach(sharded.coordination)
        done = sharded.shard(1).node("p2").submit("open", "acct-z")
        env.run(until=done)
        env.run(until=env.process(sharded.quiesce({0: 0, 1: 1})))
        nodes = {e.node for e in recorder.events() if e.node != "txn"}
        assert nodes and all(n.startswith(("s0/", "s1/")) for n in nodes)
        seqs = [e.seq for e in recorder.events()]
        assert seqs == sorted(seqs)

    def test_phase_histograms_group_by_shard(self):
        env = Environment()
        recorder = ShardedRecorder(env, n_shards=2)
        sharded = ShardedCluster.build(
            env, bankmap_spec(), n_shards=2, n_nodes=3,
            shard_probe_factory=recorder.probe_factory_for,
        )
        recorder.attach(sharded.coordination)
        done = sharded.shard(0).node("p1").submit("open", "acct-a")
        env.run(until=done)
        env.run(until=env.process(sharded.quiesce({0: 1, 1: 0})))
        by_shard = recorder.phase_histograms_by_shard()
        assert set(by_shard) == {"s0", "s1"}
        assert by_shard["s0"]  # shard 0 saw traffic

    def test_atomicity_violation_when_commit_never_applied(self):
        env = Environment()
        recorder = ShardedRecorder(env, n_shards=2)
        sharded = ShardedCluster.build(
            env, bankmap_spec(), n_shards=2, n_nodes=3,
            shard_probe_factory=recorder.probe_factory_for,
        )
        recorder.attach(sharded.coordination)
        done = sharded.shard(0).node("p1").submit("open", "acct-a")
        env.run(until=done)
        env.run(until=env.process(sharded.quiesce({0: 1, 1: 0})))
        # A COMMIT receipt naming a call that no shard ever applied.
        recorder.record_txn(
            "COMMIT", txn_id=99, classification="locked",
            shards=(0, 1), issued=((1, "deposit", "p1", 12345),),
        )
        report = ShardedTraceChecker(
            sharded.coordination, n_shards=2
        ).check_recorder(recorder)
        assert not report.ok
        assert any(v.kind == "atomicity" for v in report.violations)


_RESIDENT = """
import os

def resident():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
"""

_FOOTPRINT_CHILD = _RESIDENT + """
from repro.datatypes import bankmap_spec
from repro.runtime import ShardedCluster
from repro.sim import Environment

before = resident()
cluster = ShardedCluster.build(
    Environment(), bankmap_spec(), n_shards=4, n_nodes=4
)
registered = sum(
    region.size
    for shard in cluster.shards
    for node in shard.nodes.values()
    for region in node.rnode.regions.values()
)
print(registered, resident() - before)
"""


_WRITE_PATH_CHILD = _RESIDENT + """
from repro.core import Coordination
from repro.datatypes import gset_spec
from repro.runtime import HambandCluster
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload

env = Environment()
cluster = HambandCluster.build(
    env, Coordination.analyze(gset_spec()), n_nodes=4
)
built = resident()
run_workload(env, cluster, DriverConfig(
    workload="gset", total_ops=8000, update_ratio=1.0, seed=1,
))
print(cluster.converged(), resident() - built)
"""


def _child(source: str) -> list[str]:
    """Run ``source`` in a fresh interpreter and split what it printed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-c", source], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the resident set from /proc")
class TestHostFootprint:
    """Both children read their current resident set, not
    ``ru_maxrss``: a child's peak starts at its parent's, which would
    hide the growth under the test process's own footprint."""

    def test_building_4x4_bank_keeps_registered_rings_non_resident(self):
        """A 4 x 4 cluster registers 80 rings (per node, 4 F rings and
        1 L ring) of RING_SLOTS * slot_size each and writes none of it
        while building: the resident set must not grow with what is
        registered (it grows by ~0.4 MiB)."""
        registered, grown = map(int, _child(_FOOTPRINT_CHILD))
        ring = RING_SLOTS * RuntimeConfig.slot_size
        assert registered > 80 * ring  # the premise: still registered
        assert grown < 8 << 20, (
            f"building grew the resident set by {grown >> 20} MiB for "
            f"{registered >> 20} MiB of registered, unwritten regions"
        )

    def test_a_written_record_costs_its_slot_not_512_bytes(self):
        """8 000 FREE updates on 4 nodes land 32 000 ring records (the
        origin's mirror plus 3 peers).  At 128 B per slot that is
        3.9 MiB of ring pages; 512 B slots made it 15.6 MiB, and the
        run grew the resident set by ~18 MiB against ~6 MiB now."""
        converged, grown = _child(_WRITE_PATH_CHILD)
        assert converged == "True"
        assert int(grown) < 10 << 20, (
            f"8 000 FREE updates grew the resident set by "
            f"{int(grown) >> 20} MiB"
        )
