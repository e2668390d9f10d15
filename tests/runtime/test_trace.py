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
import os
import subprocess
import sys
import time

import pytest

from repro.datatypes import (
    bankmap_spec,
    counter_spec,
    courseware_spec,
    gset_spec,
)
from repro.runtime import (
    CountingProbe,
    HambandCluster,
    RuntimeProbe,
    ShardedCluster,
    ShardedRecorder,
    TraceRecorder,
    TracingProbe,
)
from repro.runtime import trace as trace_module
from repro.runtime.trace import (
    PHASES,
    RULES,
    TraceEvent,
    TraceView,
    event_from_dict,
    event_to_dict,
    export_jsonl,
    iter_jsonl,
    load_jsonl,
    merge_gap_ranges,
)
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload


def run_recorded(spec, workload, total_ops=150, update_ratio=0.5, n=3,
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
        with pytest.raises(KeyError):  # a read must not create a row
            probe.phases["apply"]
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
        probe.peak("ring_highwater", "F", 10)
        probe.trace_apply("FREE", "add", "p1", 1)
        snapshot = probe.snapshot()
        assert snapshot["ring_highwater"]["F"] == 10
        assert snapshot["applies"]["FREE"] == 1
        assert snapshot["trace"]["events"] == 1
        assert snapshot["trace"]["dropped"] == 0


class TestTraceRecorder:
    def test_traced_run_produces_ordered_events(self):
        recorder, _cluster, result = run_recorded(gset_spec(), "gset")
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
        recorder, cluster, _result = run_recorded(
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
        recorder, _cluster, result = run_recorded(gset_spec(), "gset")
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
        recorder, _cluster, _result = run_recorded(
            courseware_spec(), "courseware"
        )
        phases = recorder.phase_histograms()
        assert set(phases) <= set(PHASES)
        for required in ("invoke", "propagate", "decide", "apply"):
            assert required in phases
            assert phases[required].count > 0
        # Decide spans cross the Mu replication round trip: non-zero.
        assert phases["decide"].mean > 0.0

    def test_transfer_events_carry_payload_sizes(self):
        recorder, _cluster, _result = run_recorded(gset_spec(), "gset")
        xfers = [e for e in recorder.events() if e.kind == "xfer"]
        assert xfers
        assert all(e.size > 0 for e in xfers if e.name == "F")


class TestExports:
    def test_jsonl_round_trip(self, tmp_path):
        recorder, _cluster, _result = run_recorded(
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
        recorder, _cluster, _result = run_recorded(
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
            recorder, _cluster, _result = run_recorded(
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
        recorder, _cluster, _result = run_recorded(
            courseware_spec(), "courseware", total_ops=120
        )
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        buffer = io.StringIO()
        export_jsonl(recorder.events(), buffer,
                     dropped=recorder.dropped(), nodes=recorder.nodes())
        assert path.read_text() == buffer.getvalue()

    def test_iter_jsonl_streams_the_export(self, tmp_path):
        recorder, _cluster, _result = run_recorded(
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
        recorder, _cluster, _result = run_recorded(
            gset_spec(), "gset", total_ops=60
        )
        path = tmp_path / "trace.jsonl"
        recorder.export_jsonl(str(path))
        meta = json.loads(path.read_text().splitlines()[0])
        assert "gaps" not in meta
        assert load_jsonl(str(path)).gaps == []

    def test_older_layout_version_refused_by_name(self, tmp_path):
        """A layout-1 trace (args in the retired self-describing wire
        format) fails at its meta line, naming the version, instead of
        partway through at its first arg."""
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"dropped":0,"kind":"meta","nodes":["p3"],"version":1}\n'
            '{"arg":"cwMAAABrNTg=","arg_kind":"wire","kind":"rule",'
            '"method":"add","name":"FREE","node":"p3","origin":"p3",'
            '"rid":1,"seq":7,"t":0.48}\n'
        )
        with pytest.raises(ValueError, match="layout version 1"):
            load_jsonl(str(path))


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
        recorder, _cluster, _result = run_recorded(
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
        recorder, _cluster, _result = run_recorded(
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
        recorder, cluster, _result = run_recorded(
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
        # The probe-independent fingerprint of a run: what the repo
        # benchmark's ``sim_digest`` hashes.
        fingerprint = (
            result.total_calls, result.update_calls, result.rejected_calls,
            result.start_us, result.replicated_us,
            list(result.latency.samples), cluster.effective_states(),
        )
        return result, fingerprint

    @pytest.mark.parametrize("spec_factory,workload", [
        (gset_spec, "gset"),
        (courseware_spec, "courseware"),
        (counter_spec, "counter"),
    ])
    def test_probe_choice_does_not_change_the_run(self, spec_factory,
                                                  workload):
        baseline, base_print = self.run_with(None, spec_factory, workload)
        for factory in (
            lambda name: RuntimeProbe(),
            lambda name: CountingProbe(),
            lambda name: TracingProbe(lambda: 0.0, name),
        ):
            result, fingerprint = self.run_with(
                factory, spec_factory, workload
            )
            assert fingerprint == base_print
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


class TestColumnarRing:
    """The ring keeps columns, not events: a hook builds no object
    unless a tap is attached, and every read builds rows equal to the
    event the tap saw."""

    @staticmethod
    def record_three(probe):
        probe.span_begin("invoke", "add", "p1", 1)
        probe.trace_apply("FREE", "add", "p1", 1, arg="x")
        probe.trace_transfer("F:p1", "add", "p1", 1, size=24)

    @staticmethod
    def counting_builds(monkeypatch):
        built = []
        new_event = trace_module._new_event

        def counted(cls, fields):
            built.append(fields)
            return new_event(cls, fields)

        monkeypatch.setattr(trace_module, "_new_event", counted)
        return built

    def test_the_tap_receives_an_event_equal_to_the_rings_row(self):
        probe = TracingProbe(clock=lambda: 1.0, node="p1", capacity=8)
        tapped = []
        probe.sink = tapped.append
        self.record_three(probe)
        assert len(tapped) == 3
        assert all(isinstance(event, TraceEvent) for event in tapped)
        assert probe.events == tapped
        assert [tuple(e) for e in probe.events] == [tuple(e) for e in tapped]

    def test_no_object_is_built_per_hook_without_a_tap(self, monkeypatch):
        built = self.counting_builds(monkeypatch)
        probe = TracingProbe(clock=lambda: 1.0, node="p1", capacity=8)
        for _ in range(5):
            self.record_three(probe)
        assert built == []
        probe.sink = lambda event: None
        self.record_three(probe)
        assert len(built) == 3
        assert len(list(probe.events)) == 8  # reads build their rows

    def test_events_twice_returns_equal_rows(self):
        recorder, _cluster, _result = run_recorded(
            gset_spec(), "gset", total_ops=60
        )
        first, second = recorder.events(), recorder.events()
        assert first is not second
        assert len(first) == len(second) > 0
        assert first == second and list(first) == list(second)
        probe = recorder.probes["p1"]
        assert [e for e in first if e.node == "p1"] == probe.events

    def test_events_are_immutable_and_copy_with_replace(self):
        probe = TracingProbe(clock=lambda: 1.0, node="p1")
        probe.trace_apply("FREE", "add", "p1", 1, arg="x")
        (event,) = probe.events
        with pytest.raises(AttributeError):
            event.node = "p2"
        moved = event._replace(node="p2")
        assert (moved.node, event.node) == ("p2", "p1")
        assert moved._replace(node="p1") == event

    def test_sharded_merge_prefixes_nodes_without_touching_shards(self):
        env = Environment()
        recorder = ShardedRecorder(env, n_shards=2)
        sharded = ShardedCluster.build(
            env, bankmap_spec(), n_shards=2, n_nodes=3,
            shard_probe_factory=recorder.probe_factory_for,
        )
        recorder.attach(sharded.coordination)
        for shard, account in ((0, "acct-a"), (1, "acct-b")):
            env.run(until=sharded.shard(shard).node("p1").submit(
                "open", account))
        env.run(until=env.process(sharded.quiesce({0: 1, 1: 1})))
        before = {k: list(v) for k, v in recorder.shard_events().items()}
        merged = recorder.events()
        assert {e.node.split("/")[0] for e in merged} == {"s0", "s1"}
        assert [e.seq for e in merged] == sorted(e.seq for e in merged)
        assert len(merged) == sum(len(v) for v in before.values())
        after = recorder.shard_events()
        for shard in (0, 1):
            assert after[shard] == before[shard]
            assert all("/" not in e.node for e in after[shard])
            assert [e._replace(node=f"s{shard}/{e.node}")
                    for e in after[shard]] == [
                e for e in merged if e.node.startswith(f"s{shard}/")]


class _Clock:
    now = 0.0


class TestTraceView:
    """``events()`` is a seq-ordered view: it answers like the list of
    the rows each ring keeps, merged by seq, across wrapped rings."""

    KINDS = ("B", "E", "rule", "xfer", "member")

    def recorded(self, capacity=5, hooks=60, seed=3):
        """Three probes of one recorder, hooks spread at random so that
        every ring wraps; returns the recorder and the rows each ring
        must keep, merged by seq (from a tap that saw every event)."""
        import random

        rng = random.Random(seed)
        clock = _Clock()
        recorder = TraceRecorder(clock, capacity=capacity)
        probes = [recorder.probe_factory(f"p{i}") for i in (1, 2, 3)]
        tapped = []
        recorder.stream_to(tapped.append)
        for rid in range(hooks):
            clock.now += 0.5
            probe = rng.choice(probes)
            kind = rng.choice(self.KINDS)
            if kind == "rule":
                probe.trace_apply("FREE", "add", probe.node, rid, arg=rid)
            elif kind == "xfer":
                probe.trace_transfer("F", "add", probe.node, rid, rid % 7)
            elif kind == "member":
                probe.member_event("member_join", "p9", "1")
            elif kind == "B":
                probe.span_begin("invoke", "add", probe.node, rid)
            else:
                probe.span_end("invoke", "add", probe.node, rid)
        kept = [
            event
            for name in ("p1", "p2", "p3")
            for event in [e for e in tapped if e.node == name][-capacity:]
        ]
        kept.sort(key=lambda event: event.seq)
        return recorder, kept

    def test_a_wrapped_view_reads_like_the_merged_rows(self):
        recorder, expected = self.recorded()
        assert all(probe.dropped for probe in recorder.probes.values())
        view = recorder.events()
        assert len(view) == len(expected) == 15
        assert view == expected and expected == view
        assert list(view) == expected and list(view) == expected
        assert [view[i] for i in range(len(view))] == expected
        assert [view[-i] for i in range(1, 4)] == expected[-1:-4:-1]
        assert view[2:7] == expected[2:7]
        assert view[::-3] == expected[::-3]
        assert view[100:] == []
        with pytest.raises(IndexError):
            view[len(expected)]
        assert view != expected[:-1]
        assert view != [*expected[:-1], expected[-1]._replace(t=-1.0)]
        with pytest.raises(TypeError):
            hash(view)

    @pytest.mark.parametrize("kinds", [
        ("rule",), ("B", "E"), ("rule", "member", "xfer"), (), ("txn",),
        ("B", "E", "rule", "xfer", "member"),
    ])
    def test_iter_kinds_equals_filtering_the_rows(self, kinds):
        recorder, expected = self.recorded()
        view = recorder.events()
        wanted = [e for e in expected if e.kind in kinds]
        assert list(view.iter_kinds(kinds)) == wanted
        assert list(view.iter_kinds(kinds)) == wanted  # re-readable

    def test_iter_kinds_builds_only_the_rows_it_yields(self, monkeypatch):
        recorder, expected = self.recorded()
        built = TestColumnarRing.counting_builds(monkeypatch)
        rules = list(recorder.events().iter_kinds(("rule",)))
        assert len(built) == len(rules) == sum(
            e.kind == "rule" for e in expected)

    def test_a_view_follows_the_rings_as_they_record(self):
        recorder, expected = self.recorded(capacity=4, hooks=12)
        view = recorder.events()
        assert view[0] == expected[0]
        probe = recorder.probes["p1"]
        for rid in range(100, 104):  # p1's ring turns over entirely
            probe.trace_apply("FREE", "add", "p1", rid, arg=rid)
        after = sorted(
            [*(e for e in expected if e.node != "p1"), *probe.events],
            key=lambda event: event.seq,
        )
        assert [e.rid for e in probe.events] == [100, 101, 102, 103]
        assert view == after and view[-1] == after[-1]

    def test_a_view_of_more_rings_than_a_byte_counts_merges(self):
        clock = _Clock()
        recorder = TraceRecorder(clock, capacity=4)
        probes = [recorder.probe_factory(f"n{i}") for i in range(300)]
        tapped = []
        recorder.stream_to(tapped.append)
        for rid in range(3):
            for probe in reversed(probes):
                probe.trace_apply("FREE", "add", probe.node, rid, arg=rid)
        view = recorder.events()
        assert view == tapped
        assert view[-1] == tapped[-1] and view[300] == tapped[300]

    def test_rings_with_separate_counters_are_refused(self):
        first = TracingProbe(lambda: 0.0, "p1")
        second = TracingProbe(lambda: 0.0, "p2")
        for probe in (first, second):
            probe.trace_apply("FREE", "add", probe.node, 1)
        with pytest.raises(ValueError, match="one counter"):
            list(TraceView([first, second]))

    def test_a_long_merge_crosses_windows(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_MERGE_WINDOW", 7)
        recorder, expected = self.recorded(capacity=40, hooks=300, seed=5)
        view = recorder.events()
        assert view == expected
        assert list(view.iter_kinds(("rule",))) == [
            e for e in expected if e.kind == "rule"]
        assert [view[i] for i in range(len(view))] == expected


_CHECK_FOOTPRINT_CHILD = """
import resource, sys
from repro.datatypes import courseware_spec
from repro.runtime import HambandCluster, TraceChecker, TraceRecorder
from repro.sim import Environment
from repro.workload import DriverConfig, run_workload

def peak_kib():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak

env = Environment()
recorder = TraceRecorder(env, capacity=1 << 20)
cluster = HambandCluster.build(
    env, courseware_spec(), n_nodes=4,
    probe_factory=recorder.probe_factory,
)
recorder.attach(cluster.coordination)
run_workload(env, cluster, DriverConfig(
    workload="courseware", total_ops=14_000, update_ratio=0.25, seed=1))
after_run = peak_kib()
events = recorder.events()
report = TraceChecker(
    cluster.coordination, processes=cluster.node_names()
).check(events, dropped=recorder.dropped())
print(len(events), int(report.ok), (peak_kib() - after_run) * 1024)
"""


class TestCheckFootprint:
    def test_offline_check_reads_the_trace_in_place(self):
        """``events()`` + ``TraceChecker.check`` over a 14 000-op
        recorded run must not re-materialise the trace: peak RSS grows
        by < 5 MiB over the post-run value (it grew by 15 MiB when every
        view built a second object per event).  A fresh interpreter,
        because ru_maxrss is a process-wide peak."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", _CHECK_FOOTPRINT_CHILD], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        n_events, ok, grown = map(int, out.split())
        assert n_events > 50_000 and ok
        assert grown < 5 << 20, (
            f"events() + check grew peak RSS by {grown / 2**20:.1f} MiB "
            f"for {n_events} retained events"
        )
