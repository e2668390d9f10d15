"""Streaming checker: online verification must agree with the replay.

Four layers of assurance:

1. **equivalence** — the checker core (:class:`StreamingChecker`) and
   its offline driver (:meth:`TraceChecker.check`) reach the same
   verdict on every named CI chaos plan and on seeded trace
   corruptions, membership changes included;
2. **no detection lost** — that verdict is the one the *separate*
   offline replay loop gave before it was deleted, committed as
   literals in :data:`PINNED`;
3. **bounded memory** — peak retained state tracks the apply *window*,
   not the trace length, on a 100k-call stream; and
4. **gap accounting** — a hole in the sequence stream is reported as
   ``gap at seq N..M`` and demotes the verdict to *truncated* rather
   than attesting convergence over missing evidence.
"""

import random
import re

import pytest

from repro.bench import ExperimentConfig, run_harness
from repro.core import Coordination
from repro.datatypes import (
    SPEC_FACTORIES,
    counter_spec,
    courseware_spec,
    gset_spec,
)
from repro.runtime import (
    HambandCluster,
    RuntimeConfig,
    StreamingChecker,
    TraceChecker,
    TraceRecorder,
)
from repro.runtime.trace import TraceEvent
from repro.sim import (
    GRAY_PLAN_NAMES,
    MEMBERSHIP_PLAN_NAMES,
    PLAN_NAMES,
    Environment,
    FaultPlan,
)
from repro.workload import DriverConfig, run_workload


def traced_run(spec_factory, workload, total_ops=150, update_ratio=0.5,
               n=3, seed=1, capacity=1 << 20, config=None):
    env = Environment()
    recorder = TraceRecorder(env, capacity=capacity)
    cluster = HambandCluster.build(
        env, spec_factory(), n_nodes=n, config=config,
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


def founding_roster(declared, events):
    """The roster the run started with — what a live tap is built
    with: the declared (final) one plus leavers minus joiners."""
    members = [e for e in events if e.kind == "member"]
    joins = {e.origin for e in members if e.name == "member_join"}
    leaves = {e.origin for e in members if e.name == "member_leave"}
    return sorted((set(declared or ()) | leaves) - joins)


def verdict(report):
    """What a pin holds: ``ok``, the offending call ids per violation
    kind, and — on a clean trace — the call and apply counts."""
    offending = {}
    for violation in report.violations:
        offending.setdefault(violation.kind, set()).update(
            f"{origin}#{rid}" for origin, rid in violation.calls
        )
    pin = (report.ok, {k: sorted(v) for k, v in sorted(offending.items())})
    if report.ok:
        pin += (report.calls_checked, report.applies_checked)
    return pin


def assert_pinned(name, coordination, declared, events, dropped=0):
    """Both entry points — the offline driver on the declared (final)
    roster and the bare core on the founding one — must reproduce the
    verdict the deleted offline loop gave on these very events."""
    ordered = sorted(events, key=lambda e: e.seq)
    offline = TraceChecker(coordination, processes=declared).check(
        events, dropped=dropped
    )
    core = StreamingChecker(
        coordination, founding_roster(declared, ordered), strict_seq=False
    ).check(ordered, dropped=dropped)
    assert verdict(offline) == PINNED[name], offline.summary()
    assert verdict(core) == PINNED[name], core.summary()
    assert offline.label == "trace check" and core.label == "stream check"
    # The driver holds the trace: its chains are every recorded event
    # of the offending calls, spans and ring hops included.
    for violation in offline.violations:
        assert violation.chain == [
            e for key in violation.calls for e in ordered
            if (e.origin, e.rid) == key
        ]
    return offline, core


def assert_run_pinned(name, run):
    """The offline/core legs over a harness run, plus the live tap's
    verdict when the run was live-checked."""
    offline, _core = assert_pinned(
        name, run.cluster.coordination, run.cluster.node_names(),
        run.recorder.events(), dropped=run.recorder.dropped(),
    )
    if run.stream_report is not None:
        assert verdict(run.stream_report) == PINNED[name], (
            run.stream_report.summary()
        )
    return offline


CLEAN_CONFIGS = {
    "gset": dict(workload="gset"),
    "courseware": dict(workload="courseware"),
    "counter": dict(workload="counter"),  # REDUCE only
    "account": dict(workload="account"),  # REDUCE + CONF
    "bankmap": dict(workload="bankmap"),
    "smr": dict(workload="gset", system="mu", total_ops=120),
}


class TestChaosEquivalence:
    """Every named CI fault plan: live verdict == replay verdict ==
    the verdict pinned from the deleted offline loop."""

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
        offline = assert_run_pinned(f"{plan_name}/{workload}", run)
        assert run.stream_report.ok == offline.ok, (
            run.stream_report.summary() + "\n" + offline.summary()
        )
        assert kinds(run.stream_report) == kinds(offline)
        assert run.stream_report.calls_checked == offline.calls_checked
        assert run.stream_report.applies_checked == offline.applies_checked
        assert offline.ok, offline.summary()

    @pytest.mark.parametrize("plan_name", GRAY_PLAN_NAMES)
    def test_gray_plan_is_pinned(self, plan_name):
        config = ExperimentConfig(
            system="hamband", workload="courseware", n_nodes=4,
            total_ops=300, update_ratio=0.25, seed=2,
        )
        plan = FaultPlan.named(plan_name, horizon_us=500.0)
        run = run_harness(config, plan=plan, live_check=True)
        assert assert_run_pinned(f"{plan_name}/courseware", run).ok

    @pytest.mark.parametrize("plan_name", MEMBERSHIP_PLAN_NAMES)
    def test_membership_plan_is_pinned(self, plan_name):
        """The live tap starts on the founding roster, the offline
        driver is told the final one: one verdict."""
        workload, n = {
            "scale-out-partition": ("gset", 3),
            "scale-in-leader": ("courseware", 4),
        }[plan_name]
        config = ExperimentConfig(
            system="hamband", workload=workload, n_nodes=n,
            total_ops=400, update_ratio=0.25, seed=2,
        )
        plan = FaultPlan.named(plan_name, n_nodes=n, horizon_us=800.0)
        run = run_harness(config, plan=plan, live_check=True)
        assert any(e.kind == "member" for e in run.recorder.events())
        assert assert_run_pinned(f"{plan_name}/{workload}", run).ok

    @pytest.mark.parametrize("name", sorted(CLEAN_CONFIGS))
    def test_clean_run_is_pinned(self, name):
        config = ExperimentConfig(**{
            "system": "hamband", "n_nodes": 3, "total_ops": 150,
            "update_ratio": 0.5, "seed": 2, **CLEAN_CONFIGS[name],
        })
        run = run_harness(config, live_check=True)
        assert assert_run_pinned(f"clean/{name}", run).ok

    def test_clean_batched_conf_run_is_pinned(self):
        recorder, cluster = traced_run(
            courseware_spec, "courseware",
            config=RuntimeConfig(conf_batch=4),
        )
        offline, _core = assert_pinned(
            "clean/courseware-conf-batch-4", cluster.coordination,
            cluster.node_names(), recorder.events(),
        )
        assert offline.ok

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


def first_index(events, predicate):
    return next(i for i, e in enumerate(events) if predicate(e))


def is_rule(event, *names):
    return event.kind == "rule" and (not names or event.name in names)


def membership_cluster(spec_factory, n_nodes):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 18)
    cluster = HambandCluster.build(
        env, spec_factory(), n_nodes=n_nodes,
        probe_factory=recorder.probe_factory,
    )
    recorder.attach(cluster.coordination)

    def submit(name, method, arg):
        env.run(until=cluster.node(name).submit(method, arg))

    return env, recorder, cluster, submit


def join_trace():
    """3 -> 4 scale-out on gset.  ``add(0)`` is issued twice before the
    join — the re-add is invisible in sigma — then p4 joins and replays
    the transferred history, then every member, p4 included, adds."""
    env, recorder, cluster, submit = membership_cluster(gset_spec, 3)
    for i, value in enumerate([0, 1, 2, 0, 3, 4]):
        submit(f"p{1 + i % 3}", "add", value)
    env.run(until=env.now + 300.0)
    cluster.add_node("p4")
    env.run(until=env.now + 6000.0)
    for i in range(4):
        submit(f"p{1 + i % 4}", "add", 100 + i)
    env.run(until=env.now + 2000.0)
    return cluster, recorder.events()


def join_corpus(events):
    """Hand tamperings of :func:`join_trace`, all at the joiner."""
    def at_p4(arg, nth=0):
        """p4's apply of the ``nth`` distinct call ``add(arg)``."""
        rids = sorted({(e.origin, e.rid) for e in events
                       if is_rule(e) and e.arg == arg})
        return first_index(
            events, lambda e: is_rule(e) and e.node == "p4"
            and (e.origin, e.rid) == rids[nth],
        )

    yield "clean", list(events)
    # (1) skips the catch-up apply of the idempotent re-add
    skipped = list(events)
    del skipped[at_p4(0, nth=1)]
    yield "skipped-invisible-catch-up", skipped
    # (2) repeats the apply of its own post-join call, once
    own = next(e for e in events if is_rule(e, "FREE") and e.node == "p4")
    yield "repeated-own-apply", list(events) + [own]
    yield "repeated-catch-up", list(events) + [events[at_p4(1)]]
    dropped = list(events)
    del dropped[at_p4(1)]
    yield "dropped-visible-catch-up", dropped


def group_join_trace():
    """3 -> 4 scale-out on courseware: two conflicting ``addCourse``
    calls (they commute in sigma) retire, then p4 joins and replays
    them, then a third is decided by all four."""
    env, recorder, cluster, submit = membership_cluster(courseware_spec, 3)
    conflict = cluster.node("p2").conflict
    (gid,) = conflict.mu_groups
    leader = conflict.leader_of(gid)
    submit("p2", "registerStudent", "s0")
    for course in ("c1", "c2"):
        submit(leader, "addCourse", course)
    env.run(until=env.now + 300.0)
    cluster.add_node("p4")
    env.run(until=env.now + 6000.0)
    submit(leader, "addCourse", "c3")
    env.run(until=env.now + 2000.0)
    return cluster, recorder.events()


def group_join_corpus(events):
    yield "clean", list(events)
    # The joiner replays two retired calls of one sync group in the
    # opposite order to the one the incumbents agreed on.
    first, second = [
        i for i, e in enumerate(events) if is_rule(e, "CONF_APP")
        and e.node == "p4" and e.arg in ("c1", "c2")
    ]
    swapped = list(events)
    swapped[first], swapped[second] = events[second], events[first]
    yield "swapped-catch-up", swapped
    # ... and one of them after a call that was decided after it joined.
    late = list(events)
    late.append(late.pop(first))
    yield "catch-up-after-in-window", late


def leave_trace():
    """4 -> 3 scale-in on courseware: the group leader leaves, the rest
    re-elect, then two conflicting ``addCourse`` calls are decided."""
    env, recorder, cluster, submit = membership_cluster(courseware_spec, 4)
    for i in range(4):
        submit(f"p{1 + i}", "registerStudent", f"s{i}")
    conflict = cluster.node("p2").conflict
    (gid,) = conflict.mu_groups
    victim = conflict.leader_of(gid)
    submit(victim, "addCourse", "c0")
    env.run(until=env.now + 300.0)
    cluster.remove_node(victim)
    survivors = cluster.node_names()
    deadline = env.now + 20_000.0
    while conflict.leader_of(gid) not in survivors:
        assert env.now < deadline, f"no re-election away from {victim}"
        env.run(until=env.now + 200.0)
    leader = conflict.leader_of(gid)
    for method, arg in [("addCourse", "c1"), ("addCourse", "c2"),
                        ("enroll", ("s0", "c1"))]:
        submit(leader, method, arg)
    env.run(until=env.now + 2000.0)
    return cluster, recorder.events(), victim


def leave_corpus(events, victim):
    yield "clean", list(events)
    # (3) the remaining members apply two conflicting calls after the
    # leave, in the opposite order to the one the leaver acted on.
    survivor = next(e.node for e in events if is_rule(e, "CONF_APP")
                    and e.node != victim)
    first, second = [
        e for e in events if is_rule(e, "CONF", "CONF_APP")
        and e.node == survivor and e.arg in ("c1", "c2")
    ]
    left = first_index(
        events, lambda e: e.kind == "member" and e.name == "member_leave"
    )
    acted = [e._replace(node=victim, name="CONF_APP")
             for e in (second, first)]
    yield "opposite-order-to-the-leaver", (
        events[:left] + acted + events[left:]
    )
    # What the leaver still does after it left is held to the same
    # obligations, convergence apart: it repeats an apply from before
    # the leave; it applies the two calls late, the wrong way round.
    before = next(e for e in events[:left] if is_rule(e) and e.node == victim)
    yield "repeat-after-the-leave", list(events) + [before]
    yield "straggler-repeats-itself", list(events) + [acted[1], acted[1]]
    yield "straggler-in-the-opposite-order", list(events) + acted


@pytest.fixture(scope="module")
def join():
    return join_trace()


@pytest.fixture(scope="module")
def leave():
    return leave_trace()


@pytest.fixture(scope="module")
def group_join():
    return group_join_trace()


class TestCorruptionEquivalence:
    """Seeded tampering: the core and its offline driver flag what the
    deleted offline loop flagged — same kinds, same offending calls."""

    @pytest.fixture(scope="class")
    def courseware(self):
        return traced_run(courseware_spec, "courseware", total_ops=150)

    def both(self, name, cluster, events, **kwargs):
        offline, core = assert_pinned(
            name, cluster.coordination, cluster.node_names(),
            reseq(events), **kwargs
        )
        return core, offline

    def test_dropped_remote_apply(self, courseware):
        recorder, cluster = courseware
        events = [e for e in recorder.events()]
        del events[first_index(events, lambda e: is_rule(e, "CONF_APP"))]
        stream, offline = self.both("dropped-apply", cluster, events)
        assert not stream.ok and not offline.ok
        assert kinds(stream) == kinds(offline)
        # Same call, two chains: the core's bounded rule-event cache,
        # and the driver's every-recorded-event widening of it.
        narrow, wide = (
            {e.kind for v in report.violations
             if v.kind == "convergence" for e in v.chain}
            for report in (stream, offline)
        )
        assert narrow == {"rule"}
        assert wide == {"rule", "xfer", "B", "E"}

    def swapped(self, events):
        events = list(events)
        conf = [i for i, e in enumerate(events)
                if is_rule(e, "CONF_APP") and e.node == "p2"]
        assert len(conf) >= 2
        a, b = conf[0], conf[1]
        ea, eb = events[a], events[b]
        events[a] = eb._replace(seq=ea.seq, t=ea.t)
        events[b] = ea._replace(seq=eb.seq, t=eb.t)
        return events

    def test_swapped_conflicting_applies(self, courseware):
        recorder, cluster = courseware
        stream, offline = self.both(
            "swapped-conf-applies", cluster, self.swapped(recorder.events())
        )
        assert kinds(stream) == kinds(offline)

    def test_order_message_names_the_node_that_applied_first(
        self, courseware
    ):
        recorder, cluster = courseware
        events = self.swapped(recorder.events())
        for report in (stream_verdict(cluster, events),
                       offline_verdict(cluster, events)):
            flagged = [v for v in report.violations if v.kind == "order"]
            assert flagged, report.summary()
            for violation in flagged:
                node, earlier, later, other = re.search(
                    r": (\w+) applied (\S+) before (\S+) but (\w+) ",
                    violation.message,
                ).groups()

                def order_at(name):
                    return [f"{e.origin}#{e.rid}" for e in events
                            if is_rule(e, "CONF", "CONF_APP")
                            and e.node == name
                            and f"{e.origin}#{e.rid}" in (earlier, later)]

                assert order_at(node) == [earlier, later]
                assert order_at(other) == [later, earlier]

    def test_mutated_argument(self, courseware):
        recorder, cluster = courseware
        events = list(recorder.events())
        idx = first_index(
            events, lambda e: is_rule(e) and e.method == "enroll"
        )
        e = events[idx]
        events[idx] = e._replace(arg=("ghost-student", e.arg[1]))
        stream, offline = self.both("mutated-argument", cluster, events)
        assert not stream.ok and not offline.ok
        assert kinds(stream) == kinds(offline)

    def test_a_flood_of_one_kind_does_not_hide_another(self, courseware):
        """Twenty-five integrity findings (the cap), then an inversion:
        the cap is per kind, so the ``order`` finding still shows — the
        deleted loop checked order after the replay, uncapped."""
        recorder, cluster = courseware
        events = list(recorder.events())
        idx = first_index(
            events, lambda e: is_rule(e) and e.method == "enroll"
        )
        events[idx] = events[idx]._replace(
            arg=("ghost-student", events[idx].arg[1])
        )
        a, b = [i for i, e in enumerate(events)
                if is_rule(e, "CONF_APP") and e.node == "p2"][-2:]
        events[a], events[b] = events[b], events[a]
        stream, _offline = self.both("flood-then-swap", cluster, events)
        assert {"integrity", "order"} <= set(kinds(stream))

    def test_duplicated_apply(self, courseware):
        recorder, cluster = courseware
        events = list(recorder.events())
        dup = next(e for e in reversed(events) if is_rule(e, "FREE_APP"))
        events.append(dup._replace(seq=events[-1].seq + 1))
        stream, offline = self.both("duplicated-apply", cluster, events)
        assert "duplicate" in kinds(stream)
        assert kinds(stream) == kinds(offline)

    @pytest.mark.parametrize("field, value", [
        ("name", "MYSTERY"), ("node", "p9"),
    ])
    def test_unknown_vocabulary(self, courseware, field, value):
        recorder, cluster = courseware
        events = list(recorder.events())
        idx = first_index(events, lambda e: is_rule(e, "FREE"))
        events[idx] = events[idx]._replace(**{field: value})
        stream, _offline = self.both(f"unknown-{field}", cluster, events)
        assert "vocabulary" in kinds(stream)

    def renamed_to_reduce(self, events, nth):
        """The ``nth`` of the three applies of a conflicting call — the
        first one a follower applies after the leader's commit —
        relabelled REDUCE: a summary write lands on a call that sits in
        its sync group's apply queues."""
        events = list(events)
        applies = {}
        for i, e in enumerate(events):
            if is_rule(e, "CONF", "CONF_APP"):
                applies.setdefault((e.origin, e.rid), []).append(i)
        target = next(where for where in applies.values()
                      if is_rule(events[where[-1]], "CONF_APP"))
        events[target[nth]] = events[target[nth]]._replace(name="REDUCE")
        return events

    def test_rule_renamed_to_reduce(self, courseware):
        recorder, cluster = courseware
        stream, _offline = self.both(
            "renamed-to-reduce", cluster,
            self.renamed_to_reduce(recorder.events(), 1),
        )
        assert kinds(stream) == ["duplicate"]
        # At the last applier the deleted loop let it pass (the call is
        # applied twice everywhere else); the core does not.
        late = self.renamed_to_reduce(recorder.events(), 2)
        for report in (stream_verdict(cluster, late),
                       offline_verdict(cluster, late)):
            assert kinds(report) == ["duplicate"], report.summary()

    def test_apply_under_another_sync_group(self):
        """A call's applies name a method of another sync group at one
        node: reported (``vocabulary``), and its bookkeeping stays in
        the group it was first applied under."""
        recorder, cluster = traced_run(
            SPEC_FACTORIES["movie"], "movie", total_ops=150
        )
        events = list(recorder.events())
        idx = [i for i, e in enumerate(events)
               if is_rule(e, "CONF_APP") and e.method == "addMovie"][5]
        events[idx] = events[idx]._replace(method="addCustomer")
        for report in (stream_verdict(cluster, events),
                       offline_verdict(cluster, events)):
            assert "vocabulary" in kinds(report), report.summary()

    def test_empty_trace(self, courseware):
        _recorder, cluster = courseware
        assert_pinned("empty-trace", cluster.coordination, None, [])

    def test_recorder_drops(self, courseware):
        recorder, cluster = courseware
        stream, _offline = self.both(
            "dropped-3", cluster, recorder.events(), dropped=3
        )
        assert kinds(stream) == ["truncated"]

    def test_shuffled_input_is_ordered_first(self, courseware):
        recorder, cluster = courseware
        events = list(recorder.events())
        random.Random(7).shuffle(events)
        offline, _core = assert_pinned(
            "shuffled", cluster.coordination, cluster.node_names(), events
        )
        assert offline.ok, offline.summary()

    def test_all_events_share_one_seq(self):
        """``seq`` orders the input and nothing else: a hand-built trace
        with one ``seq`` throughout is checked in full."""
        recorder, cluster = traced_run(gset_spec, "gset", total_ops=60)
        events = [e._replace(seq=0) for e in recorder.events()]
        offline, core = assert_pinned(
            "one-seq", cluster.coordination, cluster.node_names(), events
        )
        assert (offline.calls_checked, offline.applies_checked) == (32, 96)
        assert (core.calls_checked, core.applies_checked) == (32, 96)

    def test_join_corpus(self, join):
        cluster, events = join
        verdicts = {}
        for name, tampered in join_corpus(events):
            core, _offline = self.both(f"join/{name}", cluster, tampered)
            verdicts[name] = kinds(core)
        assert verdicts == {
            "clean": [],
            "skipped-invisible-catch-up": ["convergence"],
            "repeated-own-apply": ["duplicate"],
            "repeated-catch-up": ["duplicate"],
            "dropped-visible-catch-up": ["convergence"],
        }

    def test_group_join_corpus(self, group_join):
        cluster, events = group_join
        verdicts = {}
        for name, tampered in group_join_corpus(events):
            core, _offline = self.both(f"group-join/{name}", cluster, tampered)
            verdicts[name] = kinds(core)
        assert verdicts == {
            "clean": [],
            "swapped-catch-up": ["order"],
            "catch-up-after-in-window": ["order"],
        }

    def test_leave_corpus(self, leave):
        cluster, events, victim = leave
        verdicts = {}
        for name, tampered in leave_corpus(events, victim):
            core, _offline = self.both(f"leave/{name}", cluster, tampered)
            verdicts[name] = kinds(core)
        assert verdicts == {
            "clean": [],
            "opposite-order-to-the-leaver": ["order"],
            "repeat-after-the-leave": ["duplicate"],
            "straggler-repeats-itself": ["duplicate"],
            "straggler-in-the-opposite-order": ["order"],
        }


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

    def test_a_join_costs_intervals_not_calls(self):
        """What a joiner owes is a snapshot of the retired intervals,
        filled in as it catches up: it does not grow with the history."""
        def run(n_calls):
            nodes = ["n0", "n1", "n2"]
            checker = StreamingChecker(
                Coordination.analyze(counter_spec()), processes=nodes
            )
            calls = [(nodes[i % 3], i // 3 + 1) for i in range(n_calls)]
            seq = 0

            def feed(node, kind, name, method, origin, rid):
                nonlocal seq
                checker.feed(TraceEvent(seq, float(seq), node, kind, name,
                                        method, origin, rid, arg=1))
                seq += 1

            for origin, rid in calls:  # dense rids per origin, as issued
                for node in nodes:
                    rule = "FREE" if node == origin else "FREE_APP"
                    feed(node, "rule", rule, "add", origin, rid)
            feed("n0", "member", "member_join", "", "n3", 0)
            for origin, rid in calls:
                feed("n3", "rule", "FREE_APP", "add", origin, rid)
            report = checker.finish()
            assert report.ok and report.nodes == nodes + ["n3"]
            assert report.applies_checked == 4 * n_calls
            return sum(
                len(owed.rids.spans) + len(owed.caught.spans)
                for owed in checker._joiners["n3"].values()
            )

        assert run(30_000) == run(3_000) == 6

    def test_a_groups_retired_order_costs_runs_not_calls(self):
        """The order a joiner's catch-up is held to is run-length
        encoded — a run per stretch of one origin's rising rids — and
        exact where rids retire out of order (an account leader's do)."""
        nodes = ["n0", "n1", "n2"]
        coordination = Coordination.analyze(courseware_spec())

        def run(order, swap=None):
            checker = StreamingChecker(coordination, processes=nodes)
            events = [
                (node, "rule", "CONF" if node == origin else "CONF_APP",
                 origin, rid)
                for origin, rid in order for node in nodes
            ]
            events.append(("n0", "member", "member_join", "n3", 0))
            replayed = list(order)
            if swap is not None:
                replayed[swap:swap + 2] = reversed(replayed[swap:swap + 2])
            events += [("n3", "rule", "CONF_APP", origin, rid)
                       for origin, rid in replayed]
            for seq, (node, kind, name, origin, rid) in enumerate(events):
                checker.feed(TraceEvent(
                    seq, float(seq), node, kind, name, "addCourse",
                    origin, rid, arg=f"{origin}-{rid}",
                ))
            runs = sum(len(r) for r in checker._group_runs.values())
            return checker.finish(), runs

        for n_calls in (100, 1_000):  # one leader, rids as issued
            report, runs = run([("n0", 2 * i) for i in range(n_calls)])
            assert report.ok and runs == 1, report.summary()
        rng = random.Random(11)
        for trial in range(60):
            leaders = nodes[:1 + trial % 3]
            order = [(rng.choice(leaders), rid) for rid in range(60)]
            for i in rng.sample(range(59), 8):  # some retire out of order
                order[i], order[i + 1] = order[i + 1], order[i]
            report, _runs = run(order)
            assert report.ok, report.summary()
            swap = rng.randrange(59)
            report, _runs = run(order, swap)
            assert [(v.kind, set(v.calls)) for v in report.violations] == [
                ("order", {order[swap], order[swap + 1]})
            ], report.summary()


class TestMembershipLedgers:
    """A joiner's debt and a leaver's ledger are snapshots of the
    retired intervals at that event, not views of them."""

    nodes = ["n0", "n1", "n2"]

    def checker(self):
        return StreamingChecker(
            Coordination.analyze(counter_spec()), processes=list(self.nodes)
        )

    @staticmethod
    def feeder(checker):
        seq = 0

        def feed(node, name, origin, rid, kind="rule"):
            nonlocal seq
            method = "add" if kind == "rule" else ""
            checker.feed(TraceEvent(seq, float(seq), node, kind, name,
                                    method, origin, rid, arg=1))
            seq += 1

        return feed

    def test_a_leavers_ledger_does_not_retire_a_call_in_flight(self):
        checker = self.checker()
        feed = self.feeder(checker)
        for node in self.nodes:  # (n0, 1) retires everywhere
            feed(node, "FREE" if node == "n0" else "FREE_APP", "n0", 1)
        feed("n0", "FREE", "n0", 2)
        feed("n2", "FREE_APP", "n0", 2)
        feed("n0", "member_leave", "n2", 0, kind="member")
        # n2 applied (n0, 2) before it left: its ledger holds it, but
        # the call is still owed to n1.
        assert 2 in checker._departed["n2"]["n0"]
        assert 2 not in checker.retired["n0"]
        assert ("n0", 2) in checker.inflight
        feed("n1", "FREE_APP", "n0", 2)
        assert 2 in checker.retired["n0"]
        report = checker.finish()
        assert report.ok, report.summary()

    def test_a_joiners_debt_is_fixed_at_its_join(self):
        checker = self.checker()
        feed = self.feeder(checker)
        for node in self.nodes:
            feed(node, "FREE" if node == "n0" else "FREE_APP", "n0", 1)
        feed("n0", "member_join", "n3", 0, kind="member")
        for node in [*self.nodes, "n3"]:  # retires after the join
            feed(node, "FREE" if node == "n0" else "FREE_APP", "n0", 2)
        assert 2 in checker.retired["n0"]
        owed = checker._joiners["n3"]["n0"]
        assert owed.rids.spans == [[1, 1]]
        feed("n3", "FREE_APP", "n0", 1)  # the catch-up
        report = checker.finish()
        assert report.ok, report.summary()
        assert report.nodes == self.nodes + ["n3"]


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


#: The verdict ``TraceChecker.check`` gave on each case above at
#: dc25e63, when it still ran its own replay loop: (ok, offending call
#: ids per violation kind[, calls checked, applies checked]).
PINNED = {
    "clean/account": (True, {}, 75, 135),
    "clean/bankmap": (True, {}, 70, 210),
    "clean/counter": (True, {}, 75, 75),
    "clean/courseware": (True, {}, 99, 297),
    "clean/courseware-conf-batch-4": (True, {}, 101, 303),
    "clean/gset": (True, {}, 66, 198),
    "clean/smr": (True, {}, 55, 165),
    "corrupt-5pct/courseware": (True, {}, 109, 436),
    "corrupt-5pct/gset": (True, {}, 80, 320),
    "corrupt-crash/courseware": (True, {}, 109, 436),
    "corrupt-crash/gset": (True, {}, 80, 320),
    # Re-recorded: a client redirected to a node that does not lead yet
    # waits instead of bouncing, so no call is rejected mid-failover.
    "crash-leader/courseware": (True, {}, 109, 436),
    "crash-leader/gset": (True, {}, 80, 320),
    "delay-spike/courseware": (True, {}, 109, 436),
    "delay-spike/gset": (True, {}, 80, 320),
    "dropped-3": (False, {"truncated": []}),
    "dropped-apply": (False, {
        "convergence": ["p1#1"],
        "integrity": [
            "p1#30", "p1#31", "p1#32", "p1#33", "p1#34", "p1#35", "p1#36",
            "p1#37", "p1#38", "p1#39", "p1#40", "p1#41", "p1#42", "p1#43",
            "p1#44", "p1#45", "p1#46", "p1#47", "p2#7", "p2#8", "p2#9",
            "p3#11", "p3#12", "p3#13", "p3#14",
        ],
    }),
    "duplicated-apply": (False, {"duplicate": ["p1#71"]}),
    "empty-trace": (False, {"vocabulary": []}),
    "flaky-link/courseware": (True, {}, 109, 436),
    "flood-then-swap": (False, {
        "convergence": [],
        "integrity": [
            "p1#16", "p1#17", "p1#18", "p1#19", "p1#20", "p1#21", "p1#22",
            "p1#23", "p1#24", "p1#25", "p1#26", "p1#27", "p1#28", "p1#29",
            "p1#30", "p1#31", "p1#32", "p1#33", "p1#34", "p2#6", "p2#7",
            "p3#10", "p3#7", "p3#8", "p3#9",
        ],
        "order": ["p1#70", "p1#72"],
    }),
    # Re-recorded: peer health now learns only from timed reads and
    # retried writes (no per-broadcast feed), so the slow leader is
    # demoted later and one fewer call lands in the run.
    "gray-leader/courseware": (True, {}, 109, 436),
    "group-join/catch-up-after-in-window": (False, {
        "order": ["p1#1", "p1#3"],
    }),
    "group-join/clean": (True, {}, 4, 16),
    "group-join/swapped-catch-up": (False, {"order": ["p1#1", "p1#2"]}),
    "join/clean": (True, {}, 10, 40),
    "join/dropped-visible-catch-up": (False, {"convergence": ["p2#1"]}),
    "join/repeated-catch-up": (False, {"duplicate": ["p2#1"]}),
    "join/repeated-own-apply": (False, {"duplicate": ["p4#1"]}),
    "join/skipped-invisible-catch-up": (False, {"convergence": ["p1#2"]}),
    "leave/clean": (True, {}, 8, 29),
    "leave/opposite-order-to-the-leaver": (False, {"order": ["p2#2", "p2#3"]}),
    "leave/repeat-after-the-leave": (False, {"duplicate": ["p1#1"]}),
    "leave/straggler-in-the-opposite-order": (False, {
        "order": ["p2#2", "p2#3"],
    }),
    "leave/straggler-repeats-itself": (False, {"duplicate": ["p2#2"]}),
    "lossy-10pct/courseware": (True, {}, 109, 436),
    "lossy-10pct/gset": (True, {}, 80, 320),
    "mutated-argument": (False, {
        "convergence": [],
        "integrity": [
            "p1#16", "p1#17", "p1#18", "p1#19", "p1#20", "p1#21", "p1#22",
            "p1#23", "p1#24", "p1#25", "p1#26", "p1#27", "p1#28", "p1#29",
            "p1#30", "p1#31", "p1#32", "p1#33", "p1#34", "p2#6", "p2#7",
            "p3#10", "p3#7", "p3#8", "p3#9",
        ],
    }),
    "one-seq": (True, {}, 32, 96),
    "partition-minority/courseware": (True, {}, 109, 436),
    "partition-minority/gset": (True, {}, 80, 320),
    "renamed-to-reduce": (False, {"duplicate": ["p1#5"]}),
    "restart-follower/courseware": (True, {}, 109, 436),
    "restart-follower/gset": (True, {}, 80, 320),
    "scale-in-leader/courseware": (True, {}, 136, 472),
    "scale-out-partition/gset": (True, {}, 108, 432),
    "shuffled": (True, {}, 101, 303),
    "swapped-conf-applies": (False, {"order": ["p1#1", "p1#2"]}),
    "torn-writes/courseware": (True, {}, 109, 436),
    "torn-writes/gset": (True, {}, 80, 320),
    "unknown-name": (False, {
        "convergence": ["p3#1"],
        "integrity": [
            "p1#16", "p1#17", "p1#18", "p1#19", "p1#20", "p1#21", "p1#22",
            "p1#23", "p1#24", "p1#25", "p1#26", "p1#27", "p1#28", "p1#29",
            "p1#30", "p1#31", "p3#10", "p3#8", "p3#9",
        ],
        "vocabulary": ["p3#1"],
    }),
    "unknown-node": (False, {
        "convergence": ["p3#1"],
        "integrity": [
            "p1#16", "p1#17", "p1#18", "p1#19", "p1#20", "p1#21", "p1#22",
            "p1#23", "p1#24", "p1#25", "p1#26", "p1#27", "p1#28", "p1#29",
            "p1#30", "p1#31", "p3#10", "p3#8", "p3#9",
        ],
        "vocabulary": ["p3#1"],
    }),
}
