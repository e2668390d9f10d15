"""Streaming checker: online verification must agree with the replay.

Four layers of assurance:

1. **equivalence** — the streaming checker and the offline
   :class:`TraceChecker` reach the same verdict (same clean passes,
   same violation kinds) on every named CI chaos plan and on seeded
   trace corruptions;
2. **checkpoint/resume** — a checker killed mid-stream and resumed
   from its serialized :class:`CheckpointState` produces the identical
   verdict, and checkpoints themselves are byte-deterministic;
3. **bounded memory** — peak retained state tracks the apply *window*,
   not the trace length, on a 100k-call stream; and
4. **gap accounting** — a hole in the sequence stream is reported as
   ``gap at seq N..M`` and demotes the verdict to *truncated* rather
   than attesting convergence over missing evidence.
"""

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.core import Coordination
from repro.datatypes import counter_spec, courseware_spec, gset_spec
from repro.runtime import (
    CheckpointState,
    HambandCluster,
    StreamingChecker,
    TraceChecker,
    TraceRecorder,
)
from repro.runtime.trace import TraceEvent
from repro.sim import PLAN_NAMES, Environment, FaultPlan
from repro.workload import DriverConfig, run_workload


def traced_run(spec_factory, workload, total_ops=150, update_ratio=0.5,
               n=3, seed=1, capacity=1 << 20):
    env = Environment()
    recorder = TraceRecorder(env, capacity=capacity)
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
    return recorder, cluster


def reseq(events):
    """Renumber ``seq`` densely after tampering dropped/injected events.

    The streaming checker treats a hole in the sequence stream as a
    *drop* (verdict: truncated); renumbering makes tampered traces
    look like complete streams so both checkers judge the same
    evidence on its semantic merits.
    """
    return [e._replace(seq=i) for i, e in enumerate(events)]


def kinds(report):
    return sorted({v.kind for v in report.violations})


def stream_verdict(cluster, events, **kwargs):
    checker = StreamingChecker(
        cluster.coordination, processes=cluster.node_names(), **kwargs
    )
    return checker.check(events)


def offline_verdict(cluster, events):
    checker = TraceChecker(
        cluster.coordination, processes=cluster.node_names()
    )
    return checker.check(events)


class TestChaosEquivalence:
    """Every named CI fault plan: live verdict == replay verdict."""

    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    @pytest.mark.parametrize("workload", ["gset", "courseware"])
    def test_named_plan_stream_matches_offline(self, plan_name, workload):
        config = ExperimentConfig(
            system="hamband", workload=workload, n_nodes=4,
            total_ops=300, update_ratio=0.25, seed=2,
        )
        plan = FaultPlan.named(plan_name, horizon_us=500.0)
        run = run_harness(config, plan=plan, live_check=True)
        assert run.stream_report is not None
        offline = run.check()
        assert run.stream_report.ok == offline.ok, (
            run.stream_report.summary() + "\n" + offline.summary()
        )
        assert kinds(run.stream_report) == kinds(offline)
        assert run.stream_report.calls_checked == offline.calls_checked
        assert run.stream_report.applies_checked == offline.applies_checked
        assert offline.ok, offline.summary()

    def test_clean_traced_run_stream_checks_ok(self):
        config = ExperimentConfig(
            system="hamband", workload="gset", n_nodes=3,
            total_ops=150, update_ratio=0.5, seed=2,
        )
        traced = run_harness(config, live_check=True)
        assert traced.stream_report.ok, traced.stream_report.summary()
        offline = traced.check()
        assert traced.stream_report.calls_checked == offline.calls_checked
        assert "stream check" in traced.stream_report.summary()


class TestCorruptionEquivalence:
    """Seeded tampering: both checkers flag the same violation kinds."""

    @pytest.fixture(scope="class")
    def courseware(self):
        return traced_run(courseware_spec, "courseware", total_ops=150)

    def both(self, cluster, events):
        events = reseq(events)
        return (stream_verdict(cluster, events),
                offline_verdict(cluster, events))

    def test_dropped_remote_apply(self, courseware):
        recorder, cluster = courseware
        events = [e for e in recorder.events()]
        idx = next(i for i, e in enumerate(events)
                   if e.kind == "rule" and e.name == "CONF_APP")
        del events[idx]
        stream, offline = self.both(cluster, events)
        assert not stream.ok and not offline.ok
        assert kinds(stream) == kinds(offline)

    def test_swapped_conflicting_applies(self, courseware):
        recorder, cluster = courseware
        events = list(recorder.events())
        conf = [i for i, e in enumerate(events)
                if e.kind == "rule" and e.name == "CONF_APP"
                and e.node == "p2"]
        assert len(conf) >= 2
        a, b = conf[0], conf[1]
        ea, eb = events[a], events[b]
        events[a] = eb._replace(seq=ea.seq, t=ea.t)
        events[b] = ea._replace(seq=eb.seq, t=eb.t)
        stream, offline = self.both(cluster, events)
        assert kinds(stream) == kinds(offline)

    def test_mutated_argument(self, courseware):
        recorder, cluster = courseware
        events = list(recorder.events())
        idx = next(i for i, e in enumerate(events)
                   if e.kind == "rule" and e.method == "enroll")
        e = events[idx]
        events[idx] = e._replace(arg=("ghost-student", e.arg[1]))
        stream, offline = self.both(cluster, events)
        assert not stream.ok and not offline.ok
        assert kinds(stream) == kinds(offline)

    def test_duplicated_apply(self, courseware):
        recorder, cluster = courseware
        events = list(recorder.events())
        dup = next(e for e in reversed(events)
                   if e.kind == "rule" and e.name == "FREE_APP")
        events.append(dup._replace(seq=events[-1].seq + 1))
        stream, offline = self.both(cluster, events)
        assert "duplicate" in kinds(stream)
        assert kinds(stream) == kinds(offline)


class TestCheckpointResume:
    @pytest.fixture(scope="class")
    def gset(self):
        return traced_run(gset_spec, "gset", total_ops=150)

    def test_checkpoint_is_byte_deterministic(self, gset):
        recorder, cluster = gset
        events = list(recorder.events())
        half = events[: len(events) // 2]
        blobs = []
        for _ in range(2):
            checker = StreamingChecker(
                cluster.coordination, processes=cluster.node_names()
            )
            checker.feed_many(half)
            blobs.append(checker.checkpoint().to_json())
        assert blobs[0] == blobs[1]

    def test_kill_and_resume_matches_uninterrupted(self, gset):
        recorder, cluster = gset
        events = list(recorder.events())
        cut = len(events) // 2

        straight = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        straight.feed_many(events)

        first = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        first.feed_many(events[:cut])
        state = CheckpointState.from_json(first.checkpoint().to_json())
        resumed = StreamingChecker.resume(cluster.coordination, state)
        resumed.feed_many(events[cut:])

        assert resumed.checkpoint().to_json() == straight.checkpoint().to_json()
        a, b = resumed.finish(), straight.finish()
        assert a.ok == b.ok
        assert kinds(a) == kinds(b)
        assert a.calls_checked == b.calls_checked

    def test_resume_replays_already_seen_events_idempotently(self, gset):
        recorder, cluster = gset
        events = list(recorder.events())
        cut = len(events) // 2
        first = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        first.feed_many(events[:cut])
        resumed = StreamingChecker.resume(
            cluster.coordination, first.checkpoint()
        )
        # a resumed tail may overlap the checkpoint: replays are skipped
        resumed.feed_many(events[cut - 10:])
        report = resumed.finish()
        assert report.ok, report.summary()

    def test_resume_rejects_wrong_spec(self, gset):
        recorder, cluster = gset
        checker = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        checker.feed_many(list(recorder.events())[:20])
        state = checker.checkpoint()
        other = Coordination.analyze(counter_spec())
        with pytest.raises(ValueError, match="spec"):
            StreamingChecker.resume(other, state)


def synthetic_counter_stream(n_calls, window, nodes=("n0", "n1", "n2")):
    """A dense apply stream with a bounded in-flight window.

    Every call FREE-applies at its origin immediately and FREE_APP-
    applies at the other nodes once it falls out of the ``window``-deep
    pipeline — the shape a real run's ring fan-out produces, minus the
    sim, so 100k calls stream in milliseconds.
    """
    seq = 0
    pending = []
    for rid in range(1, n_calls + 1):
        origin = nodes[rid % len(nodes)]
        yield TraceEvent(seq, float(seq), origin, "rule", "FREE",
                         "add", origin, rid, arg=1)
        seq += 1
        pending.append((origin, rid))
        if len(pending) > window:
            o, r = pending.pop(0)
            for node in nodes:
                if node != o:
                    yield TraceEvent(seq, float(seq), node, "rule",
                                     "FREE_APP", "add", o, r, arg=1)
                    seq += 1
    for o, r in pending:
        for node in nodes:
            if node != o:
                yield TraceEvent(seq, float(seq), node, "rule",
                                 "FREE_APP", "add", o, r, arg=1)
                seq += 1


class TestBoundedMemory:
    def run_stream(self, n_calls, window=16):
        checker = StreamingChecker(
            Coordination.analyze(counter_spec()),
            processes=["n0", "n1", "n2"],
        )
        checker.feed_many(synthetic_counter_stream(n_calls, window))
        report = checker.finish()
        assert report.ok, report.summary()
        return checker.stats()

    def test_peak_retained_tracks_window_not_trace_length(self):
        small = self.run_stream(10_000)
        large = self.run_stream(100_000)
        assert large["calls"] == 100_000
        assert large["events"] >= 300_000
        # O(window), not O(trace): 10x the ops, identical peak footprint
        assert large["peak_retained_events"] == small["peak_retained_events"]
        assert large["peak_window"] == small["peak_window"]
        assert large["peak_window"] <= 16 + 1
        assert large["retained_events"] == 0
        assert large["window"] == 0

    def test_everything_retires_on_a_clean_stream(self):
        stats = self.run_stream(5_000, window=4)
        assert stats["retired"] == 5_000
        assert stats["verified_seq"] == stats["last_seq"]


class TestGapAccounting:
    @pytest.fixture(scope="class")
    def gset(self):
        return traced_run(gset_spec, "gset", total_ops=150)

    def test_sequence_hole_reports_gap_range(self, gset):
        recorder, cluster = gset
        events = list(recorder.events())
        report = stream_verdict(cluster, events[:100] + events[150:])
        assert not report.ok
        assert kinds(report) == ["truncated"]
        message = report.violations[0].message
        assert "gap at seq 100..149" in message
        assert "50 event(s)" in message

    def test_strict_seq_off_accepts_filtered_streams(self, gset):
        recorder, cluster = gset
        events = list(recorder.events())
        # drop every xfer event without renumbering: holes everywhere
        rules = [e for e in events if e.kind != "xfer"]
        report = stream_verdict(cluster, rules, strict_seq=False)
        assert report.ok, report.summary()

    def test_check_jsonl_round_trip(self, gset, tmp_path):
        recorder, cluster = gset
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        checker = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        report = checker.check_jsonl(str(path))
        assert report.ok, report.summary()

    def test_check_jsonl_surfaces_recorded_drops(self, tmp_path):
        recorder, cluster = traced_run(
            gset_spec, "gset", total_ops=300, capacity=256
        )
        assert recorder.dropped() > 0
        path = tmp_path / "lossy.jsonl"
        recorder.export_jsonl(str(path))
        checker = StreamingChecker(
            cluster.coordination, processes=cluster.node_names(),
            strict_seq=False,
        )
        report = checker.check_jsonl(str(path))
        assert kinds(report) == ["truncated"]
        assert "gap at seq" in report.violations[0].message


class TestLiveTap:
    def test_small_ring_live_check_outruns_offline_replay(self):
        """The live tap sees every event even when the ring drops them.

        This is the point of streaming verification: a 256-slot ring
        can't hold a full run for offline replay (verdict: truncated),
        but the tap feeds the checker *before* eviction, so the live
        verdict attests the complete run.
        """
        env = Environment()
        recorder = TraceRecorder(env, capacity=256)
        cluster = HambandCluster.build(
            env, gset_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        recorder.attach(cluster.coordination)
        checker = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        recorder.stream_to(checker.feed)
        run_workload(
            env, cluster,
            DriverConfig(workload="gset", total_ops=300, update_ratio=0.5,
                         seed=1),
        )
        live = checker.finish()
        assert live.ok, live.summary()
        assert recorder.dropped() > 0
        offline = TraceChecker(
            cluster.coordination, processes=cluster.node_names()
        ).check(recorder.events(), dropped=recorder.dropped(),
                gaps=recorder.drop_gaps())
        assert kinds(offline) == ["truncated"]  # the ring lost evidence
        assert checker.stats()["events"] > len(list(recorder.events()))

    def test_sharded_live_check_is_rejected(self):
        config = ExperimentConfig(
            system="hamband", workload="gset", n_nodes=3,
            total_ops=60, update_ratio=0.5, seed=1, n_shards=2,
        )
        with pytest.raises(ValueError, match="sharded"):
            run_harness(config, live_check=True)
