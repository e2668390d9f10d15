"""Replay sharing and declared deltas must be invisible and free: the
checkers agree with a reference replay that steps every replica on its
own, on the whole-state invariant — verdicts, violation kinds,
messages and chains — on chaos runs, on the seeded-corruption corpus
(a node that stays broken included), and for a spec whose state is
unhashable; a delta that lies is caught at the end of the check; and
the replay pins no state beyond one per node, however long the window.
"""

import re
import tracemalloc
from dataclasses import replace

import pytest

import repro.runtime.stream_checker as stream_checker_module
from repro.bench import ExperimentConfig, run_harness
from repro.core import (
    Coordination,
    ObjectSpec,
    QueryDef,
    UpdateDef,
    keeps_always,
)
from repro.datatypes import SPEC_FACTORIES, courseware_spec
from repro.runtime import StreamingChecker, TraceChecker
from repro.core.replay import Replay
from repro.runtime.trace import TraceEvent
from repro.sim import PLAN_NAMES, FaultPlan

from .test_stream_checker import reseq, traced_run


class ReferenceReplay(Replay):
    """Every replica starts from its own state object and takes its own
    step on the whole-state invariant: what both checkers did before
    they shared one state and stepped the spec's declared deltas."""

    steps = 0

    def __init__(self, spec, nodes):
        super().__init__(spec, nodes)
        self.sigma = {node: spec.initial_state() for node in nodes}

    def step(self, call, node):
        post = self.sigma[node] = self.spec.apply_call(call, self.sigma[node])
        ok = self.holds[node] = bool(self.spec.invariant(post))
        return ok

    def reduce(self, call, nodes):
        ReferenceReplay.steps += 1
        broken = [node for node in nodes if not self.step(call, node)]
        self.seed = self.spec.apply_call(call, self.seed)
        return broken


_STATE_REPRS = re.compile(r"(?<=diverged states: )(\S+ != \S+) \(.*", re.S)


def signature(report):
    # "diverged states" messages embed state reprs, whose set iteration
    # order depends on how each (equal) object was built.
    return (
        report.ok, report.calls_checked, report.applies_checked,
        report.nodes, report.faults, report.repairs,
        [(v.kind, _STATE_REPRS.sub(r"\1", v.message), v.chain)
         for v in report.violations],
    )


def judge(coordination, names, events, dropped=0):
    """Offline and streaming verdicts."""
    offline = TraceChecker(coordination, processes=names).check(
        events, dropped=dropped
    )
    stream = StreamingChecker(coordination, processes=names).check(
        events, dropped=dropped
    )
    return {"offline": signature(offline), "stream": signature(stream)}


def assert_sharing_invisible(monkeypatch, coordination, names, events,
                             dropped=0):
    shared = judge(coordination, names, events, dropped)
    with monkeypatch.context() as patch:
        # The one replay there is: the offline driver runs this core.
        patch.setattr(stream_checker_module, "Replay", ReferenceReplay)
        before = ReferenceReplay.steps
        reference = judge(coordination, names, events, dropped)
        stepped = ReferenceReplay.steps - before
    assert shared == reference
    return shared, stepped


class TestChaosDifferential:
    @pytest.mark.parametrize("plan_name", PLAN_NAMES)
    @pytest.mark.parametrize("workload", ["gset", "courseware", "counter"])
    def test_named_plan(self, monkeypatch, plan_name, workload):
        config = ExperimentConfig(
            system="hamband", workload=workload, n_nodes=4,
            total_ops=300, update_ratio=0.25, seed=2,
        )
        run = run_harness(
            config, plan=FaultPlan.named(plan_name, horizon_us=500.0)
        )
        shared, reduces = assert_sharing_invisible(
            monkeypatch, run.cluster.coordination,
            run.cluster.node_names(), run.recorder.events(),
            dropped=run.recorder.dropped(),
        )
        assert shared["offline"][0], shared["offline"]
        if workload == "counter":  # every update is a REDUCE
            assert reduces, "reference replay not in use"


def corruption_corpus(events):
    """The seeded tamperings of ``TestCorruptionEquivalence``."""
    def first(predicate):
        return next(i for i, e in enumerate(events) if predicate(e))

    dropped = list(events)
    del dropped[first(lambda e: e.kind == "rule" and e.name == "CONF_APP")]
    yield "dropped-apply", dropped

    swapped = list(events)
    a, b = [i for i, e in enumerate(events)
            if e.kind == "rule" and e.name == "CONF_APP"
            and e.node == "p2"][:2]
    swapped[a] = events[b]._replace(seq=events[a].seq, t=events[a].t)
    swapped[b] = events[a]._replace(seq=events[b].seq, t=events[b].t)
    yield "swapped-conf-applies", swapped

    mutated = list(events)
    idx = first(lambda e: e.kind == "rule" and e.method == "enroll")
    mutated[idx] = events[idx]._replace(
        arg=("ghost-student", events[idx].arg[1])
    )
    yield "mutated-argument", mutated

    dup = next(e for e in reversed(events)
               if e.kind == "rule" and e.name == "FREE_APP")
    yield "duplicated-apply", list(events) + [dup]

    unknown = list(events)
    idx = first(lambda e: e.kind == "rule" and e.name == "FREE")
    unknown[idx] = events[idx]._replace(name="MYSTERY")
    yield "unknown-rule", unknown


@pytest.fixture(scope="module")
def courseware():
    recorder, cluster = traced_run(
        courseware_spec, "courseware", total_ops=150
    )
    return cluster, list(recorder.events())


class TestCorruptionDifferential:
    def test_corpus(self, monkeypatch, courseware):
        cluster, events = courseware
        seen = set()
        for name, tampered in corruption_corpus(events):
            shared, _reduces = assert_sharing_invisible(
                monkeypatch, cluster.coordination, cluster.node_names(),
                reseq(tampered),
            )
            assert not shared["offline"][0], name
            assert not shared["stream"][0], name
            seen |= {kind for kind, _m, _c in shared["offline"][-1]}
        assert {"convergence", "order", "integrity", "duplicate",
                "vocabulary"} <= seen

    def test_integrity_is_reported_at_every_replica(self, courseware):
        """The mutated call is flagged once per replica that applied
        it, and a node it broke keeps failing the whole-state check on
        later calls."""
        cluster, events = courseware
        coordination, names = cluster.coordination, cluster.node_names()
        tampered = dict(corruption_corpus(events))["mutated-argument"]
        report = TraceChecker(coordination, processes=names).check(tampered)
        flagged = [v for v in report.violations if v.kind == "integrity"]
        assert len(flagged) >= len(names)
        first = next(
            i for i, (a, b) in enumerate(zip(events, tampered)) if a is not b
        )
        node = tampered[first].node
        checker = StreamingChecker(coordination, processes=names)
        checker.feed_many(tampered[:first + 1])
        assert checker.replay.holds[node] is False
        checker.feed_many(tampered[first + 1:])
        assert sum(f"at {node})" in v.message
                   for v in integrity(checker.finish())) > 1


def ghost_enrollment(events):
    """Every apply of the first ``enroll`` rewritten to reference a
    student and a course that never exist: the replicas still converge,
    and no cascade ever deletes the row, so only integrity catches it."""
    victim = next(
        (e.origin, e.rid) for e in events
        if e.kind == "rule" and e.method == "enroll"
    )
    return [
        e._replace(arg=("ghost-student", "ghost-course"))
        if e.kind == "rule" and (e.origin, e.rid) == victim else e
        for e in events
    ]


def integrity(report):
    return [v for v in report.violations if v.kind == "integrity"]


class TestDeltaOracle:
    """The checkers step courseware's declared deltas; the reference
    steps the whole state."""

    def test_a_lying_delta_fails_the_check(self, monkeypatch, courseware):
        cluster, events = courseware
        names = cluster.node_names()
        tampered = ghost_enrollment(events)
        # Honest deltas: the same verdict as the whole-state reference.
        shared, _reduces = assert_sharing_invisible(
            monkeypatch, cluster.coordination, names, tampered
        )
        assert {kind for kind, _m, _c in shared["offline"][-1]} == {
            "integrity"
        }

        lying = courseware_spec()
        lying.updates["enroll"] = replace(
            lying.updates["enroll"], keeps=keeps_always
        )
        coordination = Coordination.analyze(lying)
        assert TraceChecker(coordination, processes=names).check(events).ok
        for report in (
            TraceChecker(coordination, processes=names).check(tampered),
            StreamingChecker(coordination, processes=names).check(tampered),
        ):
            # Every replica applied the ghost row while its flag said
            # sound: the end-of-check audit flags each of them.
            audited = integrity(report)
            assert len(audited) == len(names), report.summary()
            assert all(
                "the whole-state invariant is False but the declared "
                "deltas say True" in v.message
                and "last method stepped there: " in v.message
                for v in audited
            )
        with monkeypatch.context() as patch:
            patch.setattr(stream_checker_module, "Replay", ReferenceReplay)
            reference = TraceChecker(coordination, processes=names).check(
                tampered
            )
        assert integrity(reference) and not reference.ok


def dict_state_spec(applies):
    """A grow-only set whose state is a ``dict`` (unhashable)."""
    def add(item, state):
        applies.append(item)
        return {**state, item: True}

    return ObjectSpec(
        name="dictset",
        initial_state=dict,
        invariant=lambda state: "poison" not in state,
        updates=[UpdateDef("add", add)],
        queries=[QueryDef("size", lambda _arg, state: len(state))],
        arg_gens={"add": lambda rng: rng.choice("abc")},
        state_gen=lambda rng: {c: True for c in "abc" if rng.random() < 0.5},
    )


NODES = ["n0", "n1", "n2"]


def reduce_stream(n_calls, poison_at=None):
    """One REDUCE per call, origins rotating: every replica walks
    through equal states."""
    for rid in range(1, n_calls + 1):
        arg = "poison" if rid == poison_at else f"x{rid}"
        yield TraceEvent(rid - 1, float(rid), NODES[rid % len(NODES)],
                         "rule", "REDUCE", "add", NODES[rid % len(NODES)],
                         rid, arg=arg)


class TestUnhashableState:
    def test_reduce_steps_once_per_distinct_state(self, monkeypatch):
        applies = []
        coordination = Coordination.analyze(dict_state_spec(applies))
        events = list(reduce_stream(40))
        del applies[:]
        report = StreamingChecker(coordination, processes=NODES).check(events)
        assert report.ok, report.summary()
        assert report.applies_checked == 40
        assert len(applies) == 40  # not 40 x (3 replicas + joiner seed)
        assert_sharing_invisible(monkeypatch, coordination, NODES, events)

    def test_shared_verdict_is_reported_at_every_replica(self, monkeypatch):
        coordination = Coordination.analyze(dict_state_spec([]))
        events = list(reduce_stream(12, poison_at=5))
        shared, _reduces = assert_sharing_invisible(
            monkeypatch, coordination, NODES, events
        )
        for view in ("offline", "stream"):
            flagged = [kind for kind, _m, _c in shared[view][-1]
                       if kind == "integrity"]
            # poisoned state persists: 3 replicas x calls 5..12
            assert len(flagged) == 3 * 8, view


class TestReplayPinsNoState:
    """A member that never applies keeps every call in the window; the
    replay must still hold one state per node, not one per call."""

    ADDS = 1500

    def lagging_member_stream(self):
        seq = 0
        for rid in range(1, self.ADDS + 1):
            for node in NODES[:-1]:  # n2 never applies anything
                yield TraceEvent(seq, float(seq), node, "rule",
                                 "FREE" if node == "n0" else "FREE_APP",
                                 "add", "n0", rid, arg=rid)
                seq += 1

    @pytest.mark.parametrize("streaming", [False, True])
    def test_growing_state_long_window(self, streaming):
        coordination = Coordination.analyze(SPEC_FACTORIES["gset"]())
        events = list(self.lagging_member_stream())
        tracemalloc.start()
        try:
            if streaming:
                checker = StreamingChecker(coordination, processes=NODES)
                checker.feed_many(events)
                assert len(checker.inflight) == self.ADDS
            else:
                report = TraceChecker(
                    coordination, processes=NODES
                ).check(events)
                assert report.applies_checked == 2 * self.ADDS
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One pinned (pre, post) pair per in-window call would be
        # ADDS**2 / 2 set slots, ~50 MiB here; the window's own
        # bookkeeping is well under 4.
        assert peak < 4 * 2**20, peak
