"""Tests for the visibility (replication-lag) analysis."""

import pytest

from repro.core import Call, GuardViolation
from repro.datatypes import courseware_spec, gset_spec
from repro.runtime import HambandCluster, TraceEvent, TraceRecorder
from repro.sim import Environment
from repro.workload import (
    DriverConfig,
    run_workload,
    visibility_report,
)


def trace_of(*rows):
    """Trace events from ``(rule-or-ring, node, call, t)`` rows: an
    ``L:<gid>`` name is the leader's post-time xfer, anything else a
    rule event."""
    return [
        TraceEvent(
            seq, t, node, "xfer" if name.startswith("L:") else "rule",
            name, call.method, call.origin, call.rid, arg=call.arg,
        )
        for seq, (name, node, call, t) in enumerate(rows)
    ]


def recorded_run(spec, workload, total_ops):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 20)
    cluster = HambandCluster.build(
        env, spec, n_nodes=4, probe_factory=recorder.probe_factory
    )
    run_workload(
        env, cluster,
        DriverConfig(workload=workload, total_ops=total_ops,
                     update_ratio=0.5),
    )
    return recorder


class TestVisibilityReport:
    def test_hand_built_log(self):
        call = Call("add", "x", "p1", 1)
        events = trace_of(
            ("FREE", "p1", call, 10.0),
            ("FREE_APP", "p2", call, 12.0),
            ("FREE_APP", "p3", call, 15.0),
        )
        report = visibility_report(events, n_processes=3)
        assert report.issued == 1
        assert report.applied == 2
        assert report.incomplete == 0
        assert report.per_apply.samples == [2.0, 5.0]
        assert report.full_replication.samples == [5.0]

    def test_incomplete_call_counted(self):
        call = Call("add", "x", "p1", 1)
        events = trace_of(
            ("FREE", "p1", call, 10.0),
            ("FREE_APP", "p2", call, 12.0),
        )
        report = visibility_report(events, n_processes=3)
        assert report.incomplete == 1
        assert report.full_replication.count == 0

    def test_reduce_events_excluded(self):
        call = Call("add", 1, "p1", 1)
        events = trace_of(("REDUCE", "p1", call, 10.0))
        report = visibility_report(events, n_processes=3)
        assert report.issued == 0

    def test_by_rule_split(self):
        free = Call("registerStudent", "s", "p1", 1)
        conf = Call("addCourse", "c", "p1", 2)
        events = trace_of(
            ("FREE", "p1", free, 0.0),
            ("FREE_APP", "p2", free, 1.0),
            # A conflicting call issues at its post-time L xfer; the
            # CONF rule event (recorded at commit) marks it decided.
            ("L:g", "p1", conf, 0.0),
            ("CONF", "p1", conf, 2.0),
            ("CONF_APP", "p2", conf, 4.0),
        )
        report = visibility_report(events, n_processes=2)
        assert report.by_rule["FREE"].samples == [1.0]
        assert report.by_rule["CONF"].samples == [4.0]

    def test_truncated_trace_refused(self):
        call = Call("add", "x", "p1", 1)
        events = trace_of(("FREE_APP", "p2", call, 12.0))
        with pytest.raises(GuardViolation, match="dropped 3"):
            visibility_report(events, n_processes=3, dropped=3)


class TestVisibilityEndToEnd:
    def test_gset_replication_lag_is_microseconds(self):
        recorder = recorded_run(gset_spec(), "gset", 300)
        report = visibility_report(
            recorder.events(), 4, recorder.dropped()
        )
        assert report.incomplete == 0
        assert 0 < report.per_apply.mean < 20.0
        assert report.full_replication.count == report.issued

    def test_dependent_calls_lag_more(self):
        """courseware: enroll (dependency-laden CONF) waits on more than
        the conflict-free registerStudent."""
        recorder = recorded_run(courseware_spec(), "courseware", 500)
        report = visibility_report(
            recorder.events(), 4, recorder.dropped()
        )
        assert report.by_rule["CONF"].count > 0
        assert report.by_rule["FREE"].count > 0
        # Conflicting calls are ordered first at the leader, so their
        # remote visibility includes the consensus step.
        assert (
            report.by_rule["CONF"].mean > 0.5 * report.by_rule["FREE"].mean
        )
