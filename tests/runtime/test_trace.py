"""Tests for the flight recorder: TracingProbe, TraceRecorder, exports.

Covers the observability acceptance criteria: events carry the
rule/ring/span vocabulary, the ring buffer is bounded with a dropped
counter, identical seeded runs export byte-identical JSONL traces, the
no-op probe leaves runtime behaviour untouched, and tracing overhead
stays within budget.
"""

import io
import itertools
import json
import time

import pytest

from repro.datatypes import counter_spec, courseware_spec, gset_spec
from repro.runtime import (
    CountingProbe,
    HambandCluster,
    RuntimeProbe,
    TraceRecorder,
    TracingProbe,
)
from repro.runtime.trace import (
    PHASES,
    RULES,
    event_from_dict,
    event_to_dict,
    export_jsonl,
    iter_jsonl,
    load_jsonl,
    merge_gap_ranges,
)
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload


def run_traced(spec, workload, total_ops=150, update_ratio=0.5, n=3,
               seed=1, capacity=1 << 20):
    env = Environment()
    recorder = TraceRecorder(env, capacity=capacity)
    cluster = HambandCluster.build(
        env, spec, n_nodes=n, probe_factory=recorder.probe_factory
    )
    recorder.attach(cluster.coordination)
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


class TestTracingProbe:
    def test_records_rule_span_and_transfer_events(self):
        clock = itertools.count()
        probe = TracingProbe(lambda: float(next(clock)), "p1")
        probe.span_begin("invoke", "add", "p1", 1)
        probe.span_end("invoke", "add", "p1", 1)
        probe.trace_apply("FREE", "add", "p1", 1, arg=5)
        probe.trace_transfer("F", "add", "p1", 1, 64)
        kinds = [event.kind for event in probe.events]
        assert kinds == ["B", "E", "rule", "xfer"]
        rule = list(probe.events)[2]
        assert rule.name == "FREE"
        assert rule.arg == 5
        assert rule.call_id() == "p1#1"
        xfer = list(probe.events)[3]
        assert xfer.size == 64

    def test_span_pairs_feed_phase_histograms(self):
        times = iter([1.0, 4.0])
        probe = TracingProbe(lambda: next(times), "p1")
        probe.span_begin("decide", "add", "p1", 7)
        probe.span_end("decide", "add", "p1", 7)
        histogram = probe.phases["decide"]
        assert histogram.count == 1
        assert histogram.mean == pytest.approx(3.0)

    def test_unmatched_span_end_is_ignored(self):
        probe = TracingProbe(lambda: 0.0, "p1")
        probe.span_end("apply", "add", "p2", 3)
        assert "apply" not in probe.phases
        assert len(probe.events) == 1  # the E event is still recorded

    def test_ring_buffer_bounded_and_counts_drops(self):
        probe = TracingProbe(lambda: 0.0, "p1", capacity=4)
        for rid in range(10):
            probe.trace_apply("FREE", "add", "p1", rid)
        assert len(probe.events) == 4
        assert probe.dropped == 6
        # Oldest events are the ones evicted.
        assert [event.rid for event in probe.events] == [6, 7, 8, 9]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TracingProbe(lambda: 0.0, "p1", capacity=0)

    def test_counters_still_work(self):
        probe = TracingProbe(lambda: 0.0, "p1")
        probe.ring_depth("F", 10)
        probe.apply("FREE")
        probe.trace_apply("FREE", "add", "p1", 1)
        snapshot = probe.snapshot()
        assert snapshot["ring_highwater"]["F"] == 10
        assert snapshot["applies"]["FREE"] == 1
        assert snapshot["trace"]["events"] == 1
        assert snapshot["trace"]["dropped"] == 0


class TestTraceRecorder:
    def test_traced_run_produces_ordered_events(self):
        recorder, _cluster, result = run_traced(gset_spec(), "gset")
        events = recorder.events()
        assert events, "traced run recorded no events"
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))  # one shared counter
        times = [event.t for event in events]
        assert times == sorted(times)  # seq order refines sim time
        assert recorder.dropped() == 0
        assert recorder.nodes() == ["p1", "p2", "p3"]

    def test_rule_vocabulary_and_gid_tags(self):
        recorder, cluster, _result = run_traced(
            courseware_spec(), "courseware"
        )
        rules = {e.name for e in recorder.events() if e.kind == "rule"}
        assert rules <= set(RULES)
        assert "CONF" in rules  # courseware has a conflicting group
        assert "CONF_APP" in rules
        conf = [e for e in recorder.events()
                if e.kind == "rule" and e.name == "CONF"]
        assert all(e.gid for e in conf), "CONF events missing gid tags"

    def test_every_free_call_has_full_lifecycle(self):
        recorder, _cluster, result = run_traced(gset_spec(), "gset")
        events = recorder.events()
        frees = [e for e in events if e.kind == "rule" and e.name == "FREE"]
        assert len(frees) == result.update_calls
        for free in frees[:10]:
            key = (free.origin, free.rid)
            chain = [e for e in events if (e.origin, e.rid) == key]
            kinds = {(e.kind, e.name) for e in chain}
            assert ("B", "invoke") in kinds
            assert ("E", "invoke") in kinds
            assert ("B", "propagate") in kinds
            assert ("xfer", "F") in kinds
            # Applied at both remote nodes.
            applies = [e for e in chain
                       if e.kind == "rule" and e.name == "FREE_APP"]
            assert len(applies) == 2

    def test_phase_histograms_merged_across_nodes(self):
        recorder, _cluster, _result = run_traced(
            courseware_spec(), "courseware"
        )
        phases = recorder.phase_histograms()
        assert set(phases) <= set(PHASES)
        for required in ("invoke", "propagate", "decide", "apply"):
            assert required in phases
            assert phases[required].count > 0
        # Decide spans cross the Mu replication round trip: non-zero.
        assert phases["decide"].mean > 0.0

    def test_forwarded_call_records_a_forward_span(self):
        from repro.datatypes import account_spec

        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, account_spec(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        recorder.attach(cluster.coordination)
        env.run(until=cluster.node("p2").submit("deposit", 10))
        leader = cluster.node("p1").current_leader("withdraw")
        follower = next(
            n for n in cluster.node_names() if n != leader
        )
        env.run(until=cluster.node(follower).submit_any("withdraw", 4))
        env.run(until=env.now + 500)
        phases = recorder.phase_histograms()
        assert phases["forward"].count == 1
        # The forward round trip subsumes the leader's decide.
        assert phases["forward"].mean > phases["decide"].mean
        forward_events = [
            e for e in recorder.events()
            if e.kind in ("B", "E") and e.name == "forward"
        ]
        assert [e.kind for e in forward_events] == ["B", "E"]
        assert all(e.node == follower for e in forward_events)

    def test_transfer_events_carry_payload_sizes(self):
        recorder, _cluster, _result = run_traced(gset_spec(), "gset")
        xfers = [e for e in recorder.events() if e.kind == "xfer"]
        assert xfers
        assert all(e.size > 0 for e in xfers if e.name == "F")


class TestExports:
    def test_jsonl_round_trip(self, tmp_path):
        recorder, _cluster, _result = run_traced(
            courseware_spec(), "courseware", total_ops=80
        )
        path = tmp_path / "trace.jsonl"
        count = recorder.export_jsonl(str(path))
        loaded = load_jsonl(str(path))
        assert len(loaded.events) == count
        assert loaded.dropped == 0
        assert loaded.nodes == recorder.nodes()
        assert loaded.events == recorder.events()

    def test_event_dict_round_trip_preserves_args(self):
        clock = itertools.count()
        probe = TracingProbe(lambda: float(next(clock)), "p1")
        probe.trace_apply("FREE", "add", "p1", 1, arg=("s1", "c2"))
        probe.trace_apply("REDUCE", "add", "p1", 2, arg=5)
        for event in probe.events:
            assert event_from_dict(event_to_dict(event)) == event

    def test_chrome_export_shape(self, tmp_path):
        recorder, _cluster, _result = run_traced(
            courseware_spec(), "courseware", total_ops=80
        )
        path = tmp_path / "trace.json"
        recorder.export_chrome(str(path))
        with open(path) as fp:
            doc = json.load(fp)
        events = doc["traceEvents"]
        phs = {e["ph"] for e in events}
        assert {"M", "X", "i", "s", "t"} <= phs
        # Process metadata names every node.
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"p1", "p2", "p3"}
        # Complete spans have non-negative durations.
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")
        # Causal flows: each call id starts exactly once.
        starts = [e["id"] for e in events if e["ph"] == "s"]
        assert len(starts) == len(set(starts))

    def test_trace_determinism(self):
        """Identical seed + config => byte-identical JSONL export."""

        def export(seed):
            recorder, _cluster, _result = run_traced(
                courseware_spec(), "courseware", total_ops=120, seed=seed
            )
            buffer = io.StringIO()
            export_jsonl(recorder.events(), buffer,
                         dropped=recorder.dropped(),
                         nodes=recorder.nodes())
            return buffer.getvalue()

        first, second = export(7), export(7)
        assert first == second
        assert first != export(8)  # the seed actually matters

    def test_streaming_export_matches_materialized_export(self, tmp_path):
        """recorder.export_jsonl streams, byte-identical to the old path."""
        recorder, _cluster, _result = run_traced(
            courseware_spec(), "courseware", total_ops=120
        )
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        buffer = io.StringIO()
        export_jsonl(recorder.events(), buffer,
                     dropped=recorder.dropped(), nodes=recorder.nodes())
        assert path.read_text() == buffer.getvalue()

    def test_iter_jsonl_streams_the_export(self, tmp_path):
        recorder, _cluster, _result = run_traced(
            gset_spec(), "gset", total_ops=80
        )
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        metas, events = [], []
        for item in iter_jsonl(str(path)):
            (metas if isinstance(item, dict) else events).append(item)
        assert events == recorder.events()
        assert any(m.get("dropped") == 0 for m in metas)
        assert not any("gaps" in m for m in metas)  # clean trace

    def test_clean_export_has_no_gaps_key(self, tmp_path):
        """byte-compat guard: clean traces serialize exactly as before."""
        recorder, _cluster, _result = run_traced(
            gset_spec(), "gset", total_ops=60
        )
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        meta = json.loads(path.read_text().splitlines()[0])
        assert "gaps" not in meta
        assert load_jsonl(str(path)).gaps == []


class TestDropEpisodes:
    def test_probe_accounts_evicted_seq_ranges(self):
        probe = TracingProbe(lambda: 0.0, "p1", capacity=4)
        for rid in range(10):
            probe.trace_apply("FREE", "add", "p1", rid)
        assert probe.dropped == 6
        assert probe.drop_episodes == [[0, 5, 6]]
        first, last, count = probe.drop_episodes[0]
        assert count == last - first + 1 == probe.dropped

    def test_merge_gap_ranges_coalesces_adjacent_spans(self):
        merged = merge_gap_ranges([[0, 3, 4], [4, 6, 3], [10, 11, 2]])
        assert merged == [(0, 6, 7), (10, 11, 2)]
        assert merge_gap_ranges([]) == []
        # overlap from concurrent probes: counts sum, span unions
        assert merge_gap_ranges([[5, 9, 5], [7, 12, 6]]) == [(5, 12, 11)]

    def test_recorder_merges_gaps_across_probes(self):
        recorder, _cluster, _result = run_traced(
            gset_spec(), "gset", total_ops=300, capacity=256
        )
        assert recorder.dropped() > 0
        gaps = recorder.drop_gaps()
        assert gaps, "a lossy run must report its gap ranges"
        assert sum(g[2] for g in gaps) == recorder.dropped()
        assert all(first <= last for first, last, _count in gaps)
        # merged output is sorted and disjoint
        assert all(a[1] < b[0] for a, b in zip(gaps, gaps[1:]))

    def test_lossy_export_round_trips_gaps(self, tmp_path):
        recorder, _cluster, _result = run_traced(
            gset_spec(), "gset", total_ops=300, capacity=256
        )
        path = tmp_path / "lossy.jsonl"
        recorder.export_jsonl(str(path))
        loaded = load_jsonl(str(path))
        assert loaded.dropped == recorder.dropped()
        assert loaded.gaps == [tuple(g) for g in recorder.drop_gaps()]

    def test_probe_sink_sees_events_the_ring_drops(self):
        probe = TracingProbe(lambda: 0.0, "p1", capacity=4)
        tapped = []
        probe.sink = tapped.append
        for rid in range(10):
            probe.trace_apply("FREE", "add", "p1", rid)
        assert [event.rid for event in tapped] == list(range(10))
        assert probe.dropped == 6  # the ring still evicted

    def test_stream_to_replays_buffered_events_in_order(self):
        recorder, cluster, _result = run_traced(
            gset_spec(), "gset", total_ops=60
        )
        seen = []
        recorder.stream_to(seen.append)
        assert seen == recorder.events()
        # and future events keep flowing through the same tap
        env = cluster.env
        env.run(until=cluster.node("p1").submit("add", "tap-probe"))
        assert len(seen) > len(recorder.events()) - 1
        assert [e.seq for e in seen] == sorted(e.seq for e in seen)


class TestBehaviouralInvariance:
    """Probes observe; they must never change what the runtime does."""

    @staticmethod
    def run_with(probe_factory, spec_factory=gset_spec, workload="gset"):
        env = Environment()
        cluster = HambandCluster.build(
            env, spec_factory(), n_nodes=3, probe_factory=probe_factory
        )
        result = run_workload(
            env,
            cluster,
            DriverConfig(workload=workload, total_ops=150,
                         update_ratio=0.5, seed=3),
        )
        log = [
            (event.rule, event.process, str(event.call), event.at)
            for event in cluster.events
        ]
        return result, log

    @pytest.mark.parametrize("spec_factory,workload", [
        (gset_spec, "gset"),
        (courseware_spec, "courseware"),
        (counter_spec, "counter"),
    ])
    def test_probe_choice_does_not_change_the_run(self, spec_factory,
                                                  workload):
        baseline, base_log = self.run_with(None, spec_factory, workload)
        for factory in (
            lambda name: RuntimeProbe(),
            lambda name: CountingProbe(),
            lambda name: TracingProbe(lambda: 0.0, name),
        ):
            result, log = self.run_with(factory, spec_factory, workload)
            assert log == base_log
            assert result.total_calls == baseline.total_calls
            assert result.update_calls == baseline.update_calls
            assert result.replicated_us == baseline.replicated_us
            assert (result.throughput_ops_per_us
                    == baseline.throughput_ops_per_us)


class TestOverhead:
    def test_tracing_overhead_within_budget(self):
        """Full tracing costs <= 5 us of host time per recorded event
        over counting probes."""
        budget_us_per_event = 5.0

        def run_once(tracing):
            env = Environment()
            recorder = None
            if tracing:
                recorder = TraceRecorder(env, capacity=1 << 20)
                factory = recorder.probe_factory
            else:
                factory = lambda name: CountingProbe()  # noqa: E731
            cluster = HambandCluster.build(
                env, courseware_spec(), n_nodes=4, probe_factory=factory
            )
            config = DriverConfig(workload="courseware", total_ops=600,
                                  update_ratio=0.5, seed=5)
            start = time.perf_counter()
            run_workload(env, cluster, config)
            elapsed = time.perf_counter() - start
            return elapsed, len(recorder.events()) if recorder else 0

        # Warm both paths once, then measure *interleaved* pairs and
        # keep each side's best, so clock drift / CI noise hits both
        # arms equally; the sim is deterministic so the work per run
        # (and the event count) is identical.  The gate is the absolute
        # cost per recorded event, not traced/untraced: a ratio fails
        # whenever the untraced path gets faster (it did, twice).  The
        # cost measures 1.1-2.4 us/event; the courseware_mixed/_checked
        # pair of benchmarks/perf tracks the ratio.
        run_once(False), run_once(True)
        bases, traceds = [], []
        for _ in range(5):
            bases.append(run_once(False)[0])
            elapsed, events = run_once(True)
            traceds.append(elapsed)
        base, traced = min(bases), min(traceds)
        assert events > 0
        per_event_us = (traced - base) / events * 1e6
        assert per_event_us <= budget_us_per_event, (
            f"tracing costs {per_event_us:.2f} us per recorded event, over "
            f"the {budget_us_per_event} us budget ({traced:.3f}s vs "
            f"{base:.3f}s untraced, {events} events)"
        )
