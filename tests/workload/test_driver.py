"""Integration tests for the workload driver across all three systems."""

import pytest

from repro.datatypes import (
    account_spec,
    counter_spec,
    courseware_spec,
    gset_spec,
    orset_spec,
)
from repro.msgpass import MsgCrdtCluster
from repro.runtime import HambandCluster, TraceRecorder
from repro.smr import SmrCluster
from repro.sim import Environment
from repro.workload import (
    DriverConfig,
    Histogram,
    LatencySeries,
    run_workload,
)


def drive(make_cluster, workload, total_ops=240, **config_kwargs):
    env = Environment()
    cluster = make_cluster(env)
    config = DriverConfig(workload=workload, total_ops=total_ops,
                          **config_kwargs)
    result = run_workload(env, cluster, config)
    return env, cluster, result


class TestHambandRuns:
    def test_counter_run_replicates_and_converges(self):
        env, cluster, result = drive(
            lambda env: HambandCluster.build(env, counter_spec(), 3),
            "counter",
        )
        assert cluster.converged()
        assert result.total_calls == 240
        assert result.throughput_ops_per_us > 0
        assert result.update_calls > 0

    def test_orset_run(self):
        from repro.datatypes import orset_spec

        env, cluster, result = drive(
            lambda env: HambandCluster.build(env, orset_spec(), 3), "orset"
        )
        assert cluster.converged()
        assert cluster.integrity_holds()

    def test_account_run_with_conflicts(self):
        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, account_spec(), 3, probe_factory=recorder.probe_factory
        )
        run_workload(
            env, cluster,
            DriverConfig(workload="account", total_ops=240,
                         update_ratio=0.5),
        )
        assert cluster.converged()
        assert cluster.integrity_holds()
        # The run refines the abstract semantics end to end.
        abstract = cluster.check_refinement(recorder.events(), recorder.dropped())
        assert abstract.integrity_holds()

    def test_courseware_run_with_prologue(self):
        env, cluster, result = drive(
            lambda env: HambandCluster.build(env, courseware_spec(), 3),
            "courseware",
            update_ratio=0.4,
        )
        assert cluster.converged()
        assert cluster.integrity_holds()

    def test_per_method_latency_collected(self):
        env, cluster, result = drive(
            lambda env: HambandCluster.build(env, counter_spec(), 3),
            "counter",
            update_ratio=1.0,
        )
        assert "add" in result.per_method
        assert result.per_method["add"].count == result.total_calls

    def test_seeded_runs_are_reproducible(self):
        def one():
            env, _cluster, result = drive(
                lambda env: HambandCluster.build(env, counter_spec(), 3),
                "counter",
                seed=9,
            )
            return (result.replicated_us, result.latency.mean)

        assert one() == one()


class TestBaselineRuns:
    def test_smr_run(self):
        env, cluster, result = drive(
            lambda env: SmrCluster.build_smr(env, counter_spec(), 3),
            "counter",
        )
        assert cluster.converged()

    def test_msg_run(self):
        env, cluster, result = drive(
            lambda env: MsgCrdtCluster(env, counter_spec(), 3), "counter"
        )
        assert cluster.converged()

    def test_relative_ordering_of_systems(self):
        """The paper's headline shape on a small run: Hamband beats Mu
        beats MSG on throughput; MSG response time is far higher."""
        results = {}
        for label, make in [
            ("hamband", lambda env: HambandCluster.build(env, counter_spec(), 3)),
            ("mu", lambda env: SmrCluster.build_smr(env, counter_spec(), 3)),
            ("msg", lambda env: MsgCrdtCluster(env, counter_spec(), 3)),
        ]:
            _env, _cluster, result = drive(
                make, "counter", total_ops=300, update_ratio=0.5,
                system_label=label,
            )
            results[label] = result
        assert (
            results["hamband"].throughput_ops_per_us
            > results["mu"].throughput_ops_per_us
            > results["msg"].throughput_ops_per_us
        )
        assert (
            results["msg"].mean_response_us
            > 5 * results["hamband"].mean_response_us
        )


class TestMultipleClients:
    def test_concurrency_raises_throughput(self):
        def tput(clients):
            _env, cluster, result = drive(
                lambda env: HambandCluster.build(env, counter_spec(), 3),
                "counter",
                total_ops=600,
                update_ratio=0.25,
                clients_per_node=clients,
            )
            assert cluster.converged()
            return result.throughput_ops_per_us

        assert tput(4) > 1.5 * tput(1)

    def test_orset_tags_stay_unique_across_clients(self):
        _env, cluster, _result = drive(
            lambda env: HambandCluster.build(env, orset_spec(), 3),
            "orset",
            total_ops=300,
            update_ratio=1.0,
            clients_per_node=3,
        )
        assert cluster.converged()
        assert cluster.integrity_holds()

    def test_op_count_split_across_clients(self):
        _env, _cluster, result = drive(
            lambda env: HambandCluster.build(env, counter_spec(), 3),
            "counter",
            total_ops=300,
            clients_per_node=2,
        )
        # 3 nodes x 2 clients x 50 ops each.
        assert result.total_calls == 300


class TestFailureInjection:
    def test_failed_node_requests_redirected(self):
        env, cluster, result = drive(
            lambda env: HambandCluster.build(env, counter_spec(), 4),
            "counter",
            total_ops=400,
            update_ratio=0.5,
            fail_node="p3",
            fail_at_fraction=0.3,
        )
        # All ops completed despite the failure.
        assert result.total_calls == 400
        survivors = [n for n in cluster.node_names() if n != "p3"]
        states = {n: cluster.node(n).effective_state() for n in survivors}
        assert len(set(states.values())) == 1


class TestLatencySeries:
    def test_percentiles(self):
        series = LatencySeries()
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            series.add(v)
        assert series.mean == 22.0
        assert series.p50 == 3.0
        assert series.p95 == 100.0

    def test_empty_series_safe(self):
        series = LatencySeries()
        assert series.mean == 0.0
        assert series.p50 == 0.0
        assert series.p99 == 0.0

    def test_nearest_rank_is_unbiased(self):
        """ceil(q*n)-1 indexing: the old int(q*n) over-indexed by one
        whole position whenever q*n was not integral."""
        series = LatencySeries()
        for v in [1.0, 2.0, 3.0, 4.0]:
            series.add(v)
        # p50 of 4 samples is the 2nd (ceil(0.5*4)=2), not the 3rd.
        assert series.p50 == 2.0
        assert series.percentile(0.25) == 1.0
        assert series.percentile(0.75) == 3.0
        assert series.percentile(1.0) == 4.0

    def test_p99_on_a_hundred_samples(self):
        series = LatencySeries()
        for v in range(1, 101):
            series.add(float(v))
        assert series.p50 == 50.0
        assert series.p95 == 95.0
        assert series.p99 == 99.0

    def test_p999_nearest_rank(self):
        series = LatencySeries()
        for v in range(1, 1001):
            series.add(float(v))
        assert series.p999 == 999.0
        assert series.percentile(0.999) == series.p999
        # tiny series: p999 degenerates to the max, never out of range
        small = LatencySeries()
        small.add(7.0)
        assert small.p999 == 7.0
        assert LatencySeries().p999 == 0.0

    def test_histogram_summary_carries_p999(self):
        histogram = Histogram()
        for v in range(1, 1001):
            histogram.add(float(v))
        summary = histogram.summary()
        assert summary["p999"] == 999.0
        assert list(summary).index("p999") > list(summary).index("p99")
