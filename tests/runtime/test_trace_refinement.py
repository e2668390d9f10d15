"""Lemma 3 on recorded runs: the trace → concrete-transition derivation.

The runtime retains nothing per apply; refinement replays what the
flight recorder saw (:func:`repro.core.concrete_events`).  Three
groups:

1. **Differential pin** — the derived transition list is the event log
   the cluster itself used to keep: its sha256 over
   ``(rule, process, str(call), at)`` equals the one taken from
   ``cluster.events`` at the last commit that had it (17edc78), on six
   run shapes including a deposed leader's failed batch.
2. **Negative controls** — a doctored trace must fail the replay.
3. **Completeness** — a truncated or absent trace is refused, never
   passed vacuously.
"""

import hashlib

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.core import GuardViolation, concrete_events
from repro.datatypes import SPEC_FACTORIES, gset_spec
from repro.runtime import HambandCluster, RuntimeConfig, TraceRecorder
from repro.sim import Environment, FaultPlan
from repro.workload import DriverConfig, run_workload


def driven(workload, **runtime_config):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 20)
    cluster = HambandCluster.build(
        env, SPEC_FACTORIES[workload](), n_nodes=4,
        config=RuntimeConfig(**runtime_config),
        probe_factory=recorder.probe_factory,
    )
    run_workload(
        env, cluster,
        DriverConfig(workload=workload, total_ops=400, update_ratio=0.5,
                     seed=1),
    )
    return cluster, recorder


def crashed_leader():
    run = run_harness(
        ExperimentConfig("hamband", "courseware", n_nodes=4, total_ops=800,
                         update_ratio=0.5, seed=1),
        plan=FaultPlan.named("crash-leader", horizon_us=2000.0),
    )
    return run.cluster, run.recorder


def failed_batch_calls(trace):
    """Calls a leader posted to its L ring that never committed."""
    committed = {
        (e.origin, e.rid) for e in trace
        if e.kind == "rule" and e.name == "CONF"
    }
    return [
        e for e in trace
        if e.kind == "xfer" and e.name.startswith("L:")
        and (e.origin, e.rid) not in committed
    ]


#: shape -> (builder, sha256 of cluster.events at 17edc78, event count).
#: ``crash-leader`` is re-recorded for the phi-accrual detector, which
#: suspects the crashed leader a poll earlier than the stale count did
#: (same event count, checker and refinement replay unchanged).  With
#: 128-byte ring slots ``crash-leader`` moves again because the new
#: leader's log reconciliation reads 64-slot windows of 8 KiB instead of
#: 32 KiB, and ``courseware-batch4`` because a batch longer than one
#: slot carries 9 framing bytes per extra fragment, so its log write
#: lands a few nanoseconds later.  Both keep their event count, the
#: same CONF commit order and the same batches.  ``crash-leader`` moved
#: once more when every ring repair went through one repairer: the
#: deposed leader's catch-up fills its copies sooner, so it interleaves
#: its F and L applies differently (same events, same per-node call
#: sets, same CONF commit order).
PINNED = {
    "gset": (
        lambda: driven("gset"),
        "a2564a414d643c56563bacca9a883e3bbd7a7d38e4d5a88a1a2be384043b69db",
        844,
    ),
    "courseware": (
        lambda: driven("courseware"),
        "7798d2c0e173ddb163c2a82a0d47163d488c45d85f28aa54c689274b4b71cfc0",
        952,
    ),
    "account": (  # REDUCE deposits + CONF withdrawals
        lambda: driven("account"),
        "53cc9c42ccfa297cace126abbc9d00ee12823c8fbfee2805f7229c96c61a4430",
        540,
    ),
    "bankmap": (  # keyed: FREE opens/deposits + CONF withdrawals
        lambda: driven("bankmap"),
        "d511ce7acad7af1579e78dc095e8e26218b82973f52faa2ac1d0d3c537bb9357",
        864,
    ),
    "courseware-batch4": (
        lambda: driven("courseware", conf_batch=4),
        "cb1427a5c2c8e97d9d805c4a9c1bd87929b59bf1bff9886a2b62dfacbe93ee3f",
        952,
    ),
    "crash-leader": (  # includes a deposed leader's failed batch
        crashed_leader,
        "a3dd878e9a04e7ae1e71cc363e7f5abd14ec7930c3a95b7102d165515bbc0e5f",
        1784,
    ),
}


class TestDifferentialPin:
    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_derived_events_equal_the_old_cluster_log(self, shape):
        builder, pinned, count = PINNED[shape]
        cluster, recorder = builder()
        trace = recorder.events()
        events = concrete_events(trace, recorder.dropped())
        rows = [(e.rule, e.process, str(e.call), e.at) for e in events]
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == pinned
        rules = {e.rule for e in events}
        if shape == "account":
            assert rules == {"REDUCE", "CONF", "CONF_APP"}
        if shape == "crash-leader":
            assert failed_batch_calls(trace)
        # Same Lemma-3 coverage: the whole run replays.
        cluster.check_refinement(trace, recorder.dropped())


@pytest.fixture(scope="module")
def courseware_run():
    return driven("courseware")


def first_index(trace, kind, name, start=0):
    return next(
        i for i, e in enumerate(trace)
        if i >= start and e.kind == kind and e.name == name
    )


class TestNegativeControls:
    def test_intact_trace_passes(self, courseware_run):
        cluster, recorder = courseware_run
        abstract = cluster.check_refinement(recorder.events())
        assert abstract.integrity_holds()
        assert abstract.convergence_holds()

    def test_dropped_conf_rule_event_fails(self, courseware_run):
        """Without its commit-time CONF rule event the posted call is
        taken for a failed batch, so its followers' CONF_APPs apply a
        call that was never issued."""
        cluster, recorder = courseware_run
        trace = list(recorder.events())
        del trace[first_index(trace, "rule", "CONF")]
        with pytest.raises(GuardViolation, match="has not executed"):
            cluster.check_refinement(trace)

    def test_free_app_ahead_of_its_free_fails(self, courseware_run):
        cluster, recorder = courseware_run
        trace = list(recorder.events())
        issue = first_index(trace, "rule", "FREE")
        key = (trace[issue].origin, trace[issue].rid)
        apply = next(
            i for i, e in enumerate(trace)
            if e.kind == "rule" and e.name == "FREE_APP"
            and (e.origin, e.rid) == key
        )
        trace.insert(issue, trace.pop(apply))
        with pytest.raises(GuardViolation, match="has not executed"):
            cluster.check_refinement(trace)

    def test_duplicated_apply_fails(self, courseware_run):
        cluster, recorder = courseware_run
        trace = list(recorder.events())
        apply = first_index(trace, "rule", "CONF_APP")
        trace.insert(apply + 1, trace[apply])
        with pytest.raises(GuardViolation, match="already executed"):
            cluster.check_refinement(trace)


class TestCompleteTraceRequired:
    def test_truncated_trace_names_the_gap(self):
        env = Environment()
        recorder = TraceRecorder(env, capacity=64)
        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        run_workload(
            env, cluster,
            DriverConfig(workload="gset", total_ops=120, update_ratio=1.0),
        )
        assert recorder.dropped() > 0
        with pytest.raises(
            GuardViolation, match=f"dropped {recorder.dropped()} event"
        ):
            cluster.check_refinement(recorder.events(), recorder.dropped())

    def test_unrecorded_run_cannot_pass_vacuously(self):
        env = Environment()
        cluster = HambandCluster.build(env, gset_spec(), n_nodes=3)
        env.run(until=cluster.node("p1").submit("add", "x"))
        with pytest.raises(TypeError):
            cluster.check_refinement()
        with pytest.raises(GuardViolation, match="no transition"):
            cluster.check_refinement([])

    def test_idle_cluster_replays_the_empty_trace(self):
        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        abstract = cluster.check_refinement(recorder.events())
        assert abstract.integrity_holds()
