"""Tests for runtime counters, probe statistics, and fabric statistics."""

import re
from pathlib import Path

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.datatypes import account_spec, counter_spec, gset_spec
from repro.rdma import Opcode
from repro.runtime import (
    CountingProbe,
    HambandCluster,
    MetricsEmitter,
    RuntimeProbe,
)
from repro.runtime.probe import MAX_SECTIONS, SECTIONS
from repro.sim import Environment
from repro.sim.faults import PLAN_NAMES, FaultPlan
from repro.workload import DriverConfig, run_workload

ROOT = Path(__file__).resolve().parents[2]


def run(spec, workload, total_ops=200, update_ratio=0.5, n=3):
    env = Environment()
    cluster = HambandCluster.build(env, spec, n_nodes=n)
    result = run_workload(
        env,
        cluster,
        DriverConfig(
            workload=workload, total_ops=total_ops, update_ratio=update_ratio
        ),
    )
    return env, cluster, result


def counters(node):
    return node.stats()["counters"]


class TestNodeCounters:
    def test_reducible_workload_counts_reduces(self):
        _env, cluster, result = run(counter_spec(), "counter")
        total_reduced = sum(
            counters(node)["reduced"] for node in cluster.nodes.values()
        )
        assert total_reduced == result.update_calls
        assert all(
            counters(node)["freed"] == 0 for node in cluster.nodes.values()
        )
        assert all(
            counters(node)["buffer_applied"] == 0
            for node in cluster.nodes.values()
        )

    def test_conflict_free_workload_counts_frees_and_applies(self):
        _env, cluster, result = run(gset_spec(), "gset")
        total_freed = sum(
            counters(node)["freed"] for node in cluster.nodes.values()
        )
        total_applied = sum(
            counters(node)["buffer_applied"]
            for node in cluster.nodes.values()
        )
        assert total_freed == result.update_calls
        # Every free call is applied at each of the other 2 nodes.
        assert total_applied == 2 * total_freed

    def test_queries_counted(self):
        _env, cluster, result = run(counter_spec(), "counter",
                                    update_ratio=0.2)
        total_queries = sum(
            counters(node)["queries"] for node in cluster.nodes.values()
        )
        assert total_queries == result.total_calls - result.update_calls

    def test_conflicting_decisions_counted_at_leader(self):
        _env, cluster, result = run(account_spec(), "account")
        leader = cluster.node("p1").current_leader("withdraw")
        decided = counters(cluster.node(leader))["conf_decided"]
        assert decided > 0
        for name, node in cluster.nodes.items():
            if name != leader:
                assert counters(node)["conf_decided"] == 0


class TestStatsSurface:
    """HambandNode.stats(): live probe counters through the seam."""

    def test_stats_shape(self):
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        stats = cluster.node("p1").stats()
        assert stats["node"] == "p1"
        assert set(stats) == {"node", "counters", "probe", "membership"}
        for key in ("applies", "ring_highwater", "backpressure_stalls",
                    "conflict_retries", "conflict_batches", "rejections",
                    "giveups", "recoveries"):
            assert key in stats["probe"]

    def test_per_rule_applies_advance_end_to_end(self):
        _env, cluster, result = run(gset_spec(), "gset")
        applies = {}
        for node in cluster.nodes.values():
            for rule, count in node.stats()["probe"]["applies"].items():
                applies[rule] = applies.get(rule, 0) + count
        assert applies["FREE"] == result.update_calls
        assert applies["FREE_APP"] == 2 * result.update_calls
        assert applies.get("QUERY", 0) == result.total_calls - result.update_calls

    def test_reduce_and_conf_rules_counted(self):
        _env, cluster, _result = run(counter_spec(), "counter")
        reduced = sum(
            node.stats()["probe"]["applies"].get("REDUCE", 0)
            for node in cluster.nodes.values()
        )
        assert reduced > 0
        _env2, cluster2, _r2 = run(account_spec(), "account")
        conf = sum(
            node.stats()["probe"]["applies"].get("CONF", 0)
            for node in cluster2.nodes.values()
        )
        assert conf > 0

    def test_backpressure_stalls_and_highwater_advance(self, monkeypatch):
        """A burst through a tiny ring with a lazy reader must register
        stalls and a non-trivial occupancy high-water mark."""
        monkeypatch.setattr("repro.runtime.config.POLL_INTERVAL_US", 20.0)
        monkeypatch.setattr("repro.runtime.applier.POLL_HOT_US", 5.0)
        monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 8)
        monkeypatch.setattr("repro.runtime.config.ACK_EVERY", 2)
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        for i in range(24):
            env.run(until=cluster.node("p1").submit("add", f"e{i}"))
        env.run(until=env.now + 3000)
        assert cluster.converged()
        probe = cluster.node("p1").stats()["probe"]
        assert sum(probe["backpressure_stalls"].values()) > 0
        assert max(probe["ring_highwater"].values()) > 1

    def test_conflict_retries_advance_when_dependency_lags(self):
        """A withdraw ordered before its deposit has replicated to the
        leader retries on permissibility (Fig. 11b/13b path)."""
        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=3)
        leader = cluster.node("p1").current_leader("withdraw")
        follower = next(
            n for n in cluster.node_names() if n != leader
        )
        # Deposit at a follower: its summary needs a round trip to the
        # leader, while the withdraw is queued at the leader at once.
        deposit = cluster.node(follower).submit("deposit", 10)
        withdraw = cluster.node(leader).submit("withdraw", 5)
        env.run(until=deposit)
        env.run(until=withdraw)
        env.run(until=env.now + 2000)
        probe = cluster.node(leader).stats()["probe"]
        assert sum(probe["conflict_retries"].values()) > 0
        assert cluster.effective_states()[leader] == 5

    def test_ack_flushes_counted(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.config.ACK_EVERY", 2)
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        for i in range(12):
            env.run(until=cluster.node("p1").submit("add", i))
        env.run(until=env.now + 2000)
        flushed = sum(
            sum(node.stats()["probe"]["ack_flushes"].values())
            for node in cluster.nodes.values()
        )
        assert flushed > 0

    def test_noop_probe_opt_out(self):
        """probe_factory lets a run go uninstrumented: an uninstrumented
        run counts nothing, so stats()['probe'] stays empty and every
        counter derived from it reads zero."""
        env = Environment()
        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3,
            probe_factory=lambda name: RuntimeProbe(),
        )
        env.run(until=cluster.node("p1").submit("add", "x"))
        env.run(until=env.now + 1000)
        stats = cluster.node("p1").stats()
        assert stats["probe"] == {}
        assert set(stats["counters"]) == {
            "queries", "reduced", "freed", "conf_decided",
            "buffer_applied", "recovered_applied",
        }
        assert not any(stats["counters"].values())
        assert cluster.converged()

    def test_custom_counting_probe_instance(self):
        env = Environment()
        probes = {}

        def factory(name):
            probes[name] = CountingProbe()
            return probes[name]

        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3, probe_factory=factory
        )
        env.run(until=cluster.node("p1").submit("add", "x"))
        env.run(until=env.now + 1000)
        assert cluster.node("p1").probe is probes["p1"]
        assert probes["p1"].snapshot()["applies"]["FREE"] == 1
        assert probes["p2"].snapshot()["applies"]["FREE_APP"] == 1


class TestFabricStats:
    def test_healthy_data_path_is_purely_one_sided(self):
        """The paper's design point: no two-sided verbs off the control
        plane — and the control plane is silent without failures."""
        _env, cluster, _result = run(counter_spec(), "counter")
        stats = cluster.fabric.stats
        assert stats.one_sided_ops > 0
        assert stats.two_sided_ops == 0

    def test_reducible_workload_uses_writes_and_fd_reads_only(self):
        env, cluster, _result = run(counter_spec(), "counter")
        stats = cluster.fabric.stats
        assert stats.ops[Opcode.WRITE] > 0
        assert stats.ops[Opcode.CAS] == 0  # single-writer design
        # READs come from the failure detector's heartbeat polling,
        # which runs on a coarser period than a short workload burst.
        env.run(until=env.now + 500)
        assert stats.ops[Opcode.READ] > 0

    def test_leader_change_uses_control_sends(self):
        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=4)
        env.run(until=cluster.node("p2").submit("deposit", 50))
        leader = cluster.node("p1").current_leader("withdraw")
        cluster.crash(leader)
        env.run(until=env.now + 3000)
        assert cluster.fabric.stats.two_sided_ops > 0  # vote messages

    def test_write_bytes_accounted(self):
        _env, cluster, _result = run(counter_spec(), "counter")
        stats = cluster.fabric.stats
        assert stats.bytes[Opcode.WRITE] > 0


class TestClusterRollup:
    """HambandCluster.stats()['cluster'] aggregates the per-node view."""

    def test_counters_summed_across_nodes(self):
        _env, cluster, result = run(gset_spec(), "gset")
        stats = cluster.stats()
        rollup = stats["cluster"]
        for counter in ("freed", "buffer_applied", "queries"):
            expected = sum(
                stats[name]["counters"][counter]
                for name in cluster.node_names()
            )
            assert rollup["counters"][counter] == expected
        assert rollup["counters"]["freed"] == result.update_calls

    def test_probe_counters_summed_and_highwater_maxed(self):
        _env, cluster, _result = run(gset_spec(), "gset")
        stats = cluster.stats()
        rollup = stats["cluster"]["probe"]
        names = cluster.node_names()
        total_free = sum(
            stats[name]["probe"]["applies"].get("FREE", 0)
            for name in names
        )
        assert rollup["applies"]["FREE"] == total_free
        for ring, high in rollup["ring_highwater"].items():
            assert high == max(
                stats[name]["probe"]["ring_highwater"].get(ring, 0)
                for name in names
            )

    def test_rollup_skips_non_numeric_sections(self):
        from repro.runtime import TraceRecorder

        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        env.run(until=cluster.node("p1").submit("add", "x"))
        env.run(until=env.now + 1000)
        rollup = cluster.stats()["cluster"]["probe"]
        # The tracing probe's nested per-phase summaries are per-node
        # detail, not additive: the rollup must not mangle them.
        trace = rollup.get("trace", {})
        assert "phases" not in trace
        assert trace.get("events", 0) > 0  # plain ints still sum

    def test_rollup_snapshots_unit(self):
        from repro.runtime import rollup_snapshots

        merged = rollup_snapshots({
            "p1": {"applies": {"FREE": 2}, "ring_highwater": {"F": 5},
                   "recoveries": 1},
            "p2": {"applies": {"FREE": 3}, "ring_highwater": {"F": 2},
                   "recoveries": 0},
        })
        assert merged == {
            "applies": {"FREE": 5},
            "ring_highwater": {"F": 5},
            "recoveries": 1,
        }


class TestSectionNames:
    """One name list: the probe's sections are what the docs, the
    metrics stream and the CLI summary lines call them."""

    def test_snapshot_publishes_exactly_the_sections(self):
        assert tuple(CountingProbe().snapshot()) == SECTIONS

    def test_every_section_is_documented(self):
        doc = (ROOT / "docs" / "observability.md").read_text()
        missing = [name for name in SECTIONS if f"`{name}`" not in doc]
        assert not missing

    def test_metrics_sample_carries_every_section(self):
        env, cluster, _result = run(gset_spec(), "gset", total_ops=100)
        row = MetricsEmitter(env, cluster=cluster).sample()["probe"]
        assert tuple(row) == SECTIONS
        highwater = cluster.stats()["cluster"]["probe"]["ring_highwater"]
        assert row["ring_highwater"] == max(highwater.values())
        assert row["applies"] == sum(
            cluster.stats()["cluster"]["probe"]["applies"].values()
        )

    def test_call_site_sections_are_registered(self):
        """The no-op probe accepts any string, so a misspelled section
        would only fail under a counting probe: every literal section a
        ``count``/``peak`` call in ``src/`` names is registered, ``peak``
        writes only high-water sections and ``count`` never does, and
        every section has a writer."""
        sources = {
            path: path.read_text()
            for path in (ROOT / "src").rglob("*.py")
        }
        written: dict[str, set[str]] = {"count": set(), "peak": set()}
        for text in sources.values():
            for hook, name in re.findall(
                r'\.(count|peak)\(\s*"([a-z_]+)"', text
            ):
                written[hook].add(name)
        assert written["count"] and written["peak"]
        assert written["count"] | written["peak"] <= set(SECTIONS)
        assert written["peak"] <= set(MAX_SECTIONS)
        assert not written["count"] & set(MAX_SECTIONS)
        # Sections a tracing hook counts have a writer wherever the
        # runtime calls that hook.
        hook_counted = {
            "applies": "trace_apply", "slot_repairs": "trace_repair",
            "faults": "trace_fault", "giveups": "giveup",
            "member_events": "member_event",
        }
        callers = "\n".join(
            text for path, text in sources.items()
            if path.name not in ("probe.py", "trace.py")
        )
        for name, hook in hook_counted.items():
            if f".{hook}(" in callers:
                written["count"].add(name)
        missing = set(SECTIONS) - written["count"] - written["peak"]
        assert not missing

    def test_cli_summary_keys_are_sections(self):
        source = (ROOT / "src" / "repro" / "cli.py").read_text()
        keys = set(re.findall(r"_total\('([a-z_]+)'\)", source))
        assert keys
        assert keys <= set(SECTIONS)


COUNTER_NAMES = ("queries", "reduced", "freed", "conf_decided",
                 "buffer_applied", "recovered_applied")

#: ``stats()["counters"]`` per node, as the hand-maintained counter
#: dict produced it before the counters were derived from the probe
#: (tuples in :data:`COUNTER_NAMES` order): 600-op, 4-node, seed-3 fault
#: runs and 400-op clean runs (plan ``None``).  The courseware
#: crash-leader, restart-follower and corrupt-crash rows were re-recorded
#: for the phi-accrual detector: the faster suspicion moves which node
#: serves which calls (every run still settles and checks OK).
PINNED_COUNTERS = {
    ("gset", "crash-leader"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "partition-minority"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "lossy-10pct"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "delay-spike"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "restart-follower"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "corrupt-5pct"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "torn-writes"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "corrupt-crash"): {
        "p1": (114, 0, 36, 0, 107, 0),
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("gset", "scale-in-leader"): {
        "p2": (124, 0, 26, 0, 117, 0),
        "p3": (107, 0, 43, 0, 100, 0),
        "p4": (112, 0, 38, 0, 105, 0),
    },
    ("account", "crash-leader"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "partition-minority"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "lossy-10pct"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "delay-spike"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "restart-follower"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "corrupt-5pct"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "torn-writes"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "corrupt-crash"): {
        "p1": (111, 22, 0, 75, 0, 0),
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("account", "scale-in-leader"): {
        "p2": (112, 20, 0, 0, 75, 0),
        "p3": (110, 19, 0, 0, 75, 0),
        "p4": (113, 18, 0, 0, 75, 0),
    },
    ("courseware", "crash-leader"): {
        "p1": (14, 0, 5, 19, 154, 0),
        "p2": (209, 0, 21, 103, 54, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "partition-minority"): {
        "p1": (111, 0, 11, 122, 45, 0),
        "p2": (112, 0, 15, 0, 163, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "lossy-10pct"): {
        "p1": (111, 0, 11, 122, 45, 0),
        "p2": (112, 0, 15, 0, 163, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "delay-spike"): {
        "p1": (111, 0, 11, 122, 45, 0),
        "p2": (112, 0, 15, 0, 163, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "restart-follower"): {
        "p1": (209, 0, 22, 122, 34, 0),
        "p2": (14, 0, 4, 0, 174, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "corrupt-5pct"): {
        "p1": (111, 0, 11, 122, 45, 0),
        "p2": (112, 0, 15, 0, 163, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "torn-writes"): {
        "p1": (111, 0, 11, 122, 45, 0),
        "p2": (112, 0, 15, 0, 163, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "corrupt-crash"): {
        "p1": (168, 0, 20, 122, 36, 0),
        "p2": (55, 0, 6, 0, 172, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("courseware", "scale-in-leader"): {
        "p2": (151, 0, 20, 36, 122, 0),
        "p3": (110, 0, 15, 0, 163, 0),
        "p4": (113, 0, 15, 0, 163, 0),
    },
    ("gset", None): {
        "p1": (75, 0, 25, 0, 75, 0),
        "p2": (81, 0, 19, 0, 81, 0),
        "p3": (70, 0, 30, 0, 70, 0),
        "p4": (74, 0, 26, 0, 74, 0),
    },
    ("counter", None): {
        "p1": (74, 26, 0, 0, 0, 0),
        "p2": (77, 23, 0, 0, 0, 0),
        "p3": (71, 29, 0, 0, 0, 0),
        "p4": (75, 25, 0, 0, 0, 0),
    },
    ("account", None): {
        "p1": (74, 16, 0, 49, 0, 0),
        "p2": (77, 12, 0, 0, 49, 0),
        "p3": (71, 13, 0, 0, 49, 0),
        "p4": (75, 13, 0, 0, 49, 0),
    },
    ("courseware", None): {
        "p1": (74, 0, 7, 86, 34, 0),
        "p2": (77, 0, 8, 0, 119, 0),
        "p3": (71, 0, 12, 0, 115, 0),
        "p4": (75, 0, 14, 0, 113, 0),
    },
}


def _chaos_run(workload, plan, total_ops):
    return run_harness(
        ExperimentConfig(system="hamband", workload=workload,
                         total_ops=total_ops, n_nodes=4, seed=3),
        plan=None if plan is None else FaultPlan.named(plan, seed=3,
                                                       n_nodes=4),
    )


class TestPinnedCounters:
    def test_matrix_covers_every_preset(self):
        chaos = {plan for _wl, plan in PINNED_COUNTERS if plan}
        assert chaos == set(PLAN_NAMES) | {"scale-in-leader"}

    @pytest.mark.parametrize(
        "workload,plan", sorted(PINNED_COUNTERS, key=str),
        ids=lambda value: str(value),
    )
    def test_derived_counters_match_pinned(self, workload, plan):
        run = _chaos_run(workload, plan, 400 if plan is None else 600)
        got = {
            name: tuple(counters(node)[key] for key in COUNTER_NAMES)
            for name, node in sorted(run.cluster.nodes.items())
        }
        assert got == PINNED_COUNTERS[(workload, plan)]


class TestConfCountedAtCommit:
    def test_conf_applies_equal_trace_conf_events(self):
        """A deposed leader's failed batch is neither counted nor
        traced: applies['CONF'] matches the trace's CONF rule events
        and conf_decided on every node."""
        run = _chaos_run("courseware", "crash-leader", 600)
        traced = {}
        for event in run.recorder.events():
            if event.kind == "rule" and event.name == "CONF":
                traced[event.node] = traced.get(event.node, 0) + 1
        assert traced
        for name, node in run.cluster.nodes.items():
            stats = node.stats()
            conf = stats["probe"]["applies"].get("CONF", 0)
            assert conf == traced.get(name, 0), name
            assert conf == stats["counters"]["conf_decided"]
        assert counters(run.cluster.node("p1"))["conf_decided"] == 19
