"""Tests for the offline trace checker.

A clean traced run must check OK on every bundled data type (including
courseware, whose enroll/delete conflict exercises the sync-group
total-order obligation), and a *corrupted* trace must be caught: each
test here seeds one specific fault — a dropped apply, a reordered
group, a mutated argument, a duplicated apply, a truncated buffer —
and asserts the checker reports the matching violation kind with the
offending call's event chain attached.
"""

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.datatypes import courseware_spec, gset_spec
from repro.runtime import (
    HambandCluster,
    TraceChecker,
    TraceRecorder,
)
from repro.runtime import trace as trace_module
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload


def traced_run(spec_factory, workload, total_ops=150, update_ratio=0.5,
               n=3, seed=1):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 20)
    cluster = HambandCluster.build(
        env, spec_factory(), n_nodes=n,
        probe_factory=recorder.probe_factory,
    )
    recorder.attach(cluster.coordination)
    run_workload(
        env,
        cluster,
        DriverConfig(workload=workload, total_ops=total_ops,
                     update_ratio=update_ratio, seed=seed),
    )
    checker = TraceChecker(
        cluster.coordination, processes=cluster.node_names()
    )
    return recorder, checker


class TestCleanTraces:
    @pytest.mark.parametrize("workload", [
        "gset", "counter", "account", "courseware", "movie", "cart",
    ])
    def test_bundled_workloads_check_ok(self, workload):
        config = ExperimentConfig(
            system="hamband", workload=workload, n_nodes=3, total_ops=150,
            update_ratio=0.5, seed=2,
        )
        traced = run_harness(config)
        report = traced.check()
        assert report.ok, report.summary()
        assert report.calls_checked > 0
        assert report.applies_checked >= report.calls_checked

    def test_courseware_exercises_the_order_obligation(self):
        recorder, checker = traced_run(courseware_spec, "courseware")
        events = recorder.events()
        conf = [e for e in events if e.kind == "rule"
                and e.name in ("CONF", "CONF_APP")]
        assert conf, "courseware trace should carry conflicting applies"
        report = checker.check(events)
        assert report.ok, report.summary()

    def test_smr_deployment_checks_ok(self):
        config = ExperimentConfig(
            system="mu", workload="gset", n_nodes=3, total_ops=120,
            update_ratio=0.5, seed=2,
        )
        traced = run_harness(config)
        report = traced.check()
        assert report.ok, report.summary()

    def test_check_jsonl_round_trip(self, tmp_path):
        recorder, checker = traced_run(courseware_spec, "courseware")
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        report = checker.check_jsonl(str(path))
        assert report.ok, report.summary()

    @pytest.mark.parametrize("spec_factory, workload", [
        (gset_spec, "gset"), (courseware_spec, "courseware"),
    ])
    def test_roster_read_off_the_rings_gives_the_declared_verdict(
            self, spec_factory, workload, monkeypatch):
        """Given no roster, the check names the nodes from the rings'
        site tables, building no row for it, and reaches the verdict it
        reaches with the cluster's processes."""
        recorder, checker = traced_run(spec_factory, workload)
        events = recorder.events()
        assert events.nodes() == {e.node for e in events}
        declared = checker.check(events)
        built = []
        new_event = trace_module._new_event
        monkeypatch.setattr(
            trace_module, "_new_event",
            lambda cls, fields: built.append(fields) or new_event(cls, fields),
        )
        assert events.nodes() == set(recorder.nodes())
        assert built == []
        derived = TraceChecker(checker.coordination).check(events)
        assert derived.ok and declared.ok
        assert derived.summary() == declared.summary()

    def test_summary_mentions_scale(self):
        recorder, checker = traced_run(gset_spec, "gset", total_ops=60)
        report = checker.check(recorder.events())
        assert "3 nodes" in report.summary()
        assert "OK" in report.summary()


def corrupt(events, predicate, mutate=None):
    """Drop (mutate=None) or rewrite the first event matching predicate."""
    out, done = [], False
    for event in events:
        if not done and predicate(event):
            done = True
            if mutate is None:
                continue
            event = mutate(event)
        out.append(event)
    assert done, "corruption target not found in trace"
    return out


class TestFaultInjection:
    """Seeded corruption: the checker must catch every tampering mode."""

    @pytest.fixture(scope="class")
    def courseware(self):
        return traced_run(courseware_spec, "courseware", total_ops=150)

    def test_dropped_remote_apply_breaks_convergence(self, courseware):
        recorder, checker = courseware
        events = corrupt(
            recorder.events(),
            lambda e: e.kind == "rule" and e.name == "CONF_APP",
        )
        report = checker.check(events)
        assert not report.ok
        assert any(v.kind == "convergence" for v in report.violations)
        missing = next(
            v for v in report.violations if v.kind == "convergence"
        )
        assert missing.chain, "violation should carry the event chain"

    def test_swapped_group_applies_break_total_order(self, courseware):
        recorder, checker = courseware
        events = list(recorder.events())
        # Swap two CONF_APP events of the same group at one node: that
        # node now applies the pair opposite to everyone else.
        idx = [i for i, e in enumerate(events)
               if e.kind == "rule" and e.name == "CONF_APP"
               and e.node == "p2"]
        assert len(idx) >= 2
        i, j = idx[0], idx[1]
        events[i], events[j] = (
            events[j]._replace(seq=events[i].seq, t=events[i].t),
            events[i]._replace(seq=events[j].seq, t=events[j].t),
        )
        report = checker.check(events)
        assert not report.ok
        assert any(v.kind == "order" for v in report.violations), (
            report.summary()
        )

    def test_mutated_argument_breaks_integrity(self):
        recorder, checker = traced_run(
            courseware_spec, "courseware", total_ops=150
        )
        # Rewrite one enroll's argument to reference a student that was
        # never registered: referential integrity fails at apply time.
        events = corrupt(
            recorder.events(),
            lambda e: e.kind == "rule" and e.method == "enroll",
            mutate=lambda e: e._replace(arg=("ghost-student", e.arg[1])),
        )
        report = checker.check(events)
        assert not report.ok
        assert any(v.kind == "integrity" for v in report.violations), (
            report.summary()
        )

    def test_duplicated_apply_is_caught(self, courseware):
        recorder, checker = courseware
        events = list(recorder.events())
        target = next(
            e for e in events if e.kind == "rule" and e.name == "FREE_APP"
        )
        dup = target._replace(seq=events[-1].seq + 1)
        report = checker.check(events + [dup])
        assert not report.ok
        assert any(v.kind == "duplicate" for v in report.violations)

    def test_truncated_trace_cannot_attest_convergence(self, courseware):
        recorder, checker = courseware
        report = checker.check(recorder.events(), dropped=7)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"truncated"}
        assert "7" in report.violations[0].message

    def test_unknown_rule_is_a_vocabulary_violation(self, courseware):
        recorder, checker = courseware
        events = corrupt(
            recorder.events(),
            lambda e: e.kind == "rule" and e.name == "FREE",
            mutate=lambda e: e._replace(name="MYSTERY"),
        )
        report = checker.check(events)
        assert any(v.kind == "vocabulary" for v in report.violations)

    def test_unknown_node_is_a_vocabulary_violation(self, courseware):
        recorder, checker = courseware
        events = corrupt(
            recorder.events(),
            lambda e: e.kind == "rule" and e.name == "FREE",
            mutate=lambda e: e._replace(node="p9"),
        )
        report = checker.check(events)
        assert any(v.kind == "vocabulary" for v in report.violations)

    def test_violation_render_points_at_the_call(self, courseware):
        recorder, checker = courseware
        events = corrupt(
            recorder.events(),
            lambda e: e.kind == "rule" and e.name == "CONF_APP",
        )
        report = checker.check(events)
        rendered = report.summary()
        assert "violation" in rendered
        assert "#" in rendered  # call ids in the causal chain

    def test_violation_cap(self, courseware):
        recorder, checker = courseware
        # Drop *every* CONF_APP: lots of violations, capped at the limit.
        events = [e for e in recorder.events()
                  if not (e.kind == "rule" and e.name == "CONF_APP")]
        capped = TraceChecker(
            checker.coordination, processes=report_nodes(checker),
            max_violations=3,
        ).check(events)
        assert not capped.ok
        # Replay violations respect the cap (convergence summaries are
        # appended by the final pass and stay bounded per node).
        replay = [v for v in capped.violations
                  if v.kind in ("integrity", "duplicate")]
        assert len(replay) <= 3

    def test_empty_trace_is_reported(self):
        _recorder, checker = traced_run(gset_spec, "gset", total_ops=40)
        report = TraceChecker(checker.coordination).check([])
        assert not report.ok
        assert report.violations[0].kind == "vocabulary"


def report_nodes(checker):
    return checker.processes or ["p1", "p2", "p3"]
