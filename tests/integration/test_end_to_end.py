"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.core import concrete_events
from repro.datatypes import (
    SPEC_FACTORIES,
    account_spec,
    bankmap_spec,
    counter_spec,
    courseware_spec,
    gset_spec,
    movie_spec,
    project_mgmt_spec,
    twophase_set_spec,
)
from repro.datatypes.orset import orset_spec
from repro.msgpass import MsgCrdtCluster
from repro.runtime import HambandCluster, TraceRecorder
from repro.sim import Environment
from repro.smr import SmrCluster
from repro.workload import DriverConfig, run_workload, visibility_report

ALL_FACTORIES = dict(SPEC_FACTORIES)
ALL_FACTORIES["orset"] = orset_spec


def drive_hamband(workload, spec_factory, total_ops=300, update_ratio=0.4,
                  n=4, seed=3):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 20)
    cluster = HambandCluster.build(
        env, spec_factory(), n_nodes=n,
        probe_factory=recorder.probe_factory,
    )
    result = run_workload(
        env,
        cluster,
        DriverConfig(
            workload=workload,
            total_ops=total_ops,
            update_ratio=update_ratio,
            seed=seed,
        ),
    )
    return recorder, cluster, result


@pytest.mark.parametrize("workload", sorted(ALL_FACTORIES))
class TestEveryDatatypeEndToEnd:
    def test_wellcoordinated_run(self, workload):
        """Every bundled data type: drive a mixed workload, then check
        convergence, integrity, and refinement of the full runtime."""
        recorder, cluster, result = drive_hamband(
            workload, ALL_FACTORIES[workload]
        )
        assert cluster.converged(), cluster.effective_states()
        assert cluster.integrity_holds()
        abstract = cluster.check_refinement(recorder.events(), recorder.dropped())
        assert abstract.integrity_holds()
        assert result.total_calls == 300


class TestCrossSystemAgreement:
    """The three systems must compute the same object given the same
    calls — strong differential evidence that the coordination layers
    are transparent to the data type."""

    @pytest.mark.parametrize("workload", ["counter", "gset", "twophase_set"])
    def test_same_seed_same_final_state(self, workload):
        spec_factory = ALL_FACTORIES[workload]
        finals = {}
        for label, build in [
            (
                "hamband",
                lambda env: HambandCluster.build(env, spec_factory(), 3),
            ),
            ("mu", lambda env: SmrCluster.build_smr(env, spec_factory(), 3)),
            ("msg", lambda env: MsgCrdtCluster(env, spec_factory(), 3)),
        ]:
            env = Environment()
            cluster = build(env)
            run_workload(
                env,
                cluster,
                DriverConfig(
                    workload=workload,
                    total_ops=240,
                    update_ratio=1.0,  # every call is an update
                    seed=11,
                ),
            )
            assert cluster.converged()
            finals[label] = next(iter(cluster.effective_states().values()))
        assert finals["hamband"] == finals["mu"] == finals["msg"]


class TestLongMixedScenario:
    def test_courseware_marathon(self):
        """A longer mixed run with every category active."""
        recorder, cluster, result = drive_hamband(
            "courseware", courseware_spec, total_ops=1000, update_ratio=0.6
        )
        assert cluster.converged()
        assert cluster.integrity_holds()
        report = visibility_report(
            recorder.events(), 4, recorder.dropped()
        )
        assert report.incomplete == 0
        assert report.full_replication.count == report.issued

    def test_two_objects_side_by_side(self):
        """Two independent clusters share nothing and both converge."""
        env = Environment()
        bank = HambandCluster.build(env, account_spec(), n_nodes=3)
        movies = HambandCluster.build(
            env, movie_spec(), n_nodes=3
        )
        env.run(until=bank.node("p1").submit("deposit", 10))
        leader = movies.node("p1").current_leader("addMovie")
        env.run(until=movies.node(leader).submit("addMovie", "heat"))
        env.run(until=env.now + 300)
        assert bank.converged() and movies.converged()

    def test_refinement_holds_across_thousand_events(self):
        recorder, cluster, _result = drive_hamband(
            "bankmap", bankmap_spec, total_ops=800, update_ratio=0.7
        )
        assert len(concrete_events(recorder.events())) > 1000
        abstract = cluster.check_refinement(recorder.events(), recorder.dropped())
        assert abstract.integrity_holds()
        assert abstract.convergence_holds()


class TestFailureRecoveryScenarios:
    def test_broadcast_agreement_after_source_suspension(self):
        """A source suspended right after issuing: its last call still
        reaches everyone (through rings or the backup slot)."""
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=4)
        env.run(until=cluster.node("p1").submit("add", "survivor"))
        cluster.suspend_heartbeat("p1")
        env.run(until=env.now + 3000)
        others = [n for n in cluster.node_names() if n != "p1"]
        states = {n: cluster.node(n).effective_state() for n in others}
        assert all(s == frozenset({"survivor"}) for s in states.values())

    def test_sequential_failures_until_majority_boundary(self):
        """5 nodes tolerate two failures for conflicting traffic."""
        env = Environment()
        cluster = HambandCluster.build(env, account_spec(), n_nodes=5)
        env.run(until=cluster.node("p2").submit("deposit", 100))
        gid = cluster.coordination.sync_group("withdraw").gid
        leader1 = cluster.leaders[gid]
        cluster.crash(leader1)
        env.run(until=env.now + 4000)
        alive = [n for n in cluster.node_names() if n != leader1]
        leader2 = cluster.node(alive[0]).current_leader("withdraw")
        env.run(until=cluster.node(leader2).submit("withdraw", 10))
        cluster.crash(leader2)
        env.run(until=env.now + 4000)
        alive = [n for n in alive if n != leader2]
        leader3 = cluster.node(alive[0]).current_leader("withdraw")
        assert leader3 not in (leader1, leader2)
        env.run(until=cluster.node(leader3).submit("withdraw", 10))
        env.run(until=env.now + 500)
        states = {n: cluster.node(n).effective_state() for n in alive}
        assert set(states.values()) == {80}
