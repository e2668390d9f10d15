"""Integration tests for the Hamband cluster runtime."""

import pytest

from repro.core import Category
from repro.datatypes import (
    account_spec,
    bankmap_spec,
    counter_spec,
    courseware_spec,
    gset_spec,
    gset_union_spec,
    lww_spec,
    movie_spec,
    orset_spec,
)
from repro.runtime import (
    HambandCluster,
    ImpermissibleError,
    NotLeaderError,
    RuntimeConfig,
    SubmitError,
    TraceChecker,
    TraceRecorder,
)
from repro.runtime.ringbuffer import RECORD_OVERHEAD, span_of
from repro.sim import Environment


def build(spec, n=3, **kwargs):
    env = Environment()
    cluster = HambandCluster.build(env, spec, n_nodes=n, **kwargs)
    return env, cluster


def finish(env, event):
    result = env.run(until=event)
    return result


def settle(env, cluster, us=400):
    env.run(until=env.now + us)


class TestReduciblePath:
    def test_counter_converges_via_summaries(self):
        env, cluster = build(counter_spec())
        finish(env, cluster.node("p1").submit("add", 5))
        finish(env, cluster.node("p2").submit("add", 7))
        settle(env, cluster)
        assert cluster.effective_states() == {"p1": 12, "p2": 12, "p3": 12}
        assert cluster.converged()

    def test_no_buffer_records_for_reducible(self):
        env, cluster = build(counter_spec())
        finish(env, cluster.node("p1").submit("add", 5))
        settle(env, cluster)
        for node in cluster.nodes.values():
            assert all(r.head == 0 for r in node.transport.f_readers.values())

    def test_repeated_adds_summarize(self):
        env, cluster = build(counter_spec())
        for i in range(10):
            finish(env, cluster.node("p1").submit("add", 1))
        settle(env, cluster)
        assert cluster.node("p3").applied_count("p1", "add") == 10
        assert cluster.effective_states()["p3"] == 10

    def test_lww_register_order_insensitive(self):
        env, cluster = build(lww_spec())
        finish(env, cluster.node("p1").submit("write", (5, "p1", "old")))
        finish(env, cluster.node("p2").submit("write", (9, "p2", "new")))
        settle(env, cluster)
        query = cluster.node("p3").submit("read")
        assert finish(env, query) == "new"

    def test_gset_union_reducible(self):
        env, cluster = build(gset_union_spec())
        finish(env, cluster.node("p1").submit("add_all", frozenset({"a"})))
        finish(env, cluster.node("p2").submit("add_all", frozenset({"b"})))
        settle(env, cluster)
        assert cluster.effective_states()["p3"] == frozenset({"a", "b"})

    def test_force_buffered_uses_rings_instead(self):
        env, cluster = build(
            gset_union_spec(), config=RuntimeConfig(force_buffered=True)
        )
        finish(env, cluster.node("p1").submit("add_all", frozenset({"a"})))
        settle(env, cluster)
        assert cluster.effective_states()["p2"] == frozenset({"a"})
        reader = cluster.node("p2").transport.f_readers["p1"]
        assert reader.head == 1  # ring used


class TestConflictFreePath:
    def test_gset_fans_out_through_f_rings(self):
        env, cluster = build(gset_spec())
        finish(env, cluster.node("p1").submit("add", "x"))
        finish(env, cluster.node("p2").submit("add", "y"))
        settle(env, cluster)
        assert cluster.converged()
        assert cluster.effective_states()["p3"] == frozenset({"x", "y"})

    def test_orset_concurrent_add_remove(self):
        env, cluster = build(orset_spec())
        tag = ("p1", 1)
        finish(env, cluster.node("p1").submit("add", ("x", tag)))
        settle(env, cluster)
        finish(env, cluster.node("p2").submit("remove", ("x", frozenset({tag}))))
        # Concurrent add with a fresh tag survives the remove.
        finish(env, cluster.node("p3").submit("add", ("x", ("p3", 1))))
        settle(env, cluster)
        assert cluster.converged()
        query = cluster.node("p1").submit("contains", "x")
        assert finish(env, query) is True

    def test_dependency_respected_across_nodes(self):
        """bankmap: deposit must not apply before its open anywhere."""
        env, cluster = build(bankmap_spec())
        finish(env, cluster.node("p1").submit("open", "acc1"))
        finish(env, cluster.node("p1").submit("deposit", ("acc1", 5)))
        settle(env, cluster)
        assert cluster.integrity_holds()
        assert cluster.converged()
        query = cluster.node("p3").submit("balance", "acc1")
        assert finish(env, query) == 5

    def test_impermissible_free_call_rejected(self):
        env, cluster = build(bankmap_spec())
        request = cluster.node("p1").submit("deposit", ("ghost", 5))
        with pytest.raises(ImpermissibleError):
            finish(env, request)


class TestConflictingPath:
    def test_withdraw_serialized_by_leader(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p2").submit("deposit", 10))
        leader = cluster.node("p1").current_leader("withdraw")
        finish(env, cluster.node(leader).submit("withdraw", 4))
        finish(env, cluster.node(leader).submit("withdraw", 6))
        settle(env, cluster)
        assert cluster.effective_states() == {"p1": 0, "p2": 0, "p3": 0}
        assert cluster.integrity_holds()

    def test_non_leader_gets_redirect_error(self):
        env, cluster = build(account_spec())
        leader = cluster.node("p1").current_leader("withdraw")
        follower = next(n for n in cluster.node_names() if n != leader)
        request = cluster.node(follower).submit("withdraw", 1)
        with pytest.raises(NotLeaderError) as info:
            finish(env, request)
        assert info.value.leader == leader

    def test_overdraft_rejected_after_retries(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.conflict.CONF_RETRY_US", 1.0)
        env, cluster = build(
            account_spec(), config=RuntimeConfig(conf_retry_limit=3)
        )
        leader = cluster.node("p1").current_leader("withdraw")
        request = cluster.node(leader).submit("withdraw", 100)
        with pytest.raises(ImpermissibleError):
            finish(env, request)

    def test_conf_waits_for_dependencies_then_succeeds(self):
        """enroll waits at the leader until its references arrive."""
        env, cluster = build(courseware_spec())
        leader = cluster.node("p1").current_leader("enroll")
        other = next(n for n in cluster.node_names() if n != leader)
        # Issue enroll first; its deps follow shortly after.
        enroll = cluster.node(leader).submit("enroll", ("s1", "c1"))
        course = cluster.node(leader).submit("addCourse", "c1")
        student = cluster.node(other).submit("registerStudent", "s1")
        finish(env, enroll)
        settle(env, cluster)
        assert cluster.converged()
        assert cluster.integrity_holds()

    def test_movie_two_leaders(self):
        env, cluster = build(movie_spec())
        any_node = cluster.node("p1")
        leader_customers = any_node.current_leader("addCustomer")
        leader_movies = any_node.current_leader("addMovie")
        assert leader_customers != leader_movies
        finish(env, cluster.node(leader_customers).submit("addCustomer", "a"))
        finish(env, cluster.node(leader_movies).submit("addMovie", "m"))
        settle(env, cluster)
        assert cluster.converged()
        query = cluster.node("p3").submit("count")
        assert finish(env, query) == (1, 1)


class TestRefinementOfRuntime:
    @pytest.mark.parametrize(
        "spec_factory", [counter_spec, gset_spec, account_spec, movie_spec]
    )
    def test_run_replays_against_abstract_machine(self, spec_factory):
        env = Environment()
        recorder = TraceRecorder(env)
        cluster = HambandCluster.build(
            env, spec_factory(), n_nodes=3,
            probe_factory=recorder.probe_factory,
        )
        spec = cluster.coordination.spec
        import random

        rng = random.Random(7)
        methods = spec.update_names()
        for _ in range(15):
            method = rng.choice(methods)
            if cluster.coordination.category(method) is Category.CONFLICTING:
                node = cluster.node(cluster.node("p1").current_leader(method))
            else:
                node = cluster.node(rng.choice(cluster.node_names()))
            arg = spec.sample_args(method, rng, 1)[0]
            request = node.submit(method, arg)
            env.run(until=env.now + 3)
            # Let impermissible requests fail quietly.
            try:
                env.run(until=request)
            except Exception:
                pass
        settle(env, cluster, us=1500)
        abstract = cluster.check_refinement(recorder.events(), recorder.dropped())
        assert abstract.integrity_holds()
        assert cluster.converged()


class TestQueries:
    def test_query_includes_summaries(self):
        env, cluster = build(account_spec())
        finish(env, cluster.node("p1").submit("deposit", 42))
        settle(env, cluster)
        assert finish(env, cluster.node("p3").submit("balance")) == 42

    def test_query_is_local_and_fast(self):
        env, cluster = build(counter_spec())
        settle(env, cluster, us=10)
        before = env.now
        finish(env, cluster.node("p2").submit("value"))
        # Purely local: well under one network round trip.
        assert env.now - before < 1.0


# -- records longer than one slot -----------------------------------------


def _recorded4(spec, **config):
    env = Environment()
    recorder = TraceRecorder(env, capacity=1 << 16)
    cluster = HambandCluster.build(
        env, spec, n_nodes=4, config=RuntimeConfig(**config),
        probe_factory=recorder.probe_factory,
    )
    recorder.attach(cluster.coordination)
    return env, recorder, cluster


def _check_ok(recorder, cluster):
    return TraceChecker(
        cluster.coordination, processes=cluster.node_names()
    ).check(recorder.events(), dropped=recorder.dropped()).ok


class TestSpannedRecords:
    """A ring payload longer than one slot carries spans consecutive
    slots; everything up to the 503-byte record cap still replicates."""

    def test_free_call_with_a_400_byte_argument_converges(self):
        env, recorder, cluster = _recorded4(gset_spec())
        env.run(until=cluster.node("p2").submit("add", "x" * 400))
        env.run(until=env.now + 500)
        (size,) = [e.size for e in recorder.events()
                   if e.kind == "xfer" and e.name == "F"]
        span = span_of(size, RuntimeConfig().slot_size)
        assert span == 4
        for name in ("p1", "p3", "p4"):
            reader = cluster.node(name).transport.f_readers["p2"]
            assert reader.head == span  # the whole span consumed
        assert cluster.converged()
        assert _check_ok(recorder, cluster)

    def test_batched_decision_longer_than_a_slot_converges(self):
        env, recorder, cluster = _recorded4(courseware_spec(), conf_batch=8)
        leader = cluster.node("p1").current_leader("addCourse")
        requests = [
            cluster.node(leader).submit("addCourse", f"course-{i:02d}")
            for i in range(16)
        ]
        for request in requests:
            env.run(until=request)
        env.run(until=env.now + 500)
        slot_payload = RuntimeConfig().slot_size - RECORD_OVERHEAD
        sizes = [e.size for e in recorder.events()
                 if e.kind == "xfer" and e.name.startswith("L:")]
        assert max(sizes) > slot_payload
        mu = cluster.node(leader).conflict.mu_groups
        for gid, group in mu.items():
            for name in cluster.node_names():
                if name != leader:
                    reader = cluster.node(name).transport.l_readers[gid]
                    assert reader.head == group.decided
        assert cluster.converged()
        assert _check_ok(recorder, cluster)

    def test_spans_crossing_the_wrap_converge(self, monkeypatch):
        """Three-slot records on a 16-slot ring: each origin's sixth
        record sits at slots 15, 0 and 1, landed as two writes."""
        monkeypatch.setattr("repro.runtime.config.RING_SLOTS", 16)
        monkeypatch.setattr("repro.runtime.config.ACK_EVERY", 2)
        env, recorder, cluster = _recorded4(gset_spec())
        for i in range(24):
            node = cluster.node(f"p{1 + i % 4}")
            env.run(until=node.submit("add", f"{i:03d}" + "y" * 300))
        env.run(until=env.now + 1000)
        heads = {
            reader.head
            for name in cluster.node_names()
            for reader in cluster.node(name).transport.f_readers.values()
        }
        assert heads == {18}
        assert cluster.converged()
        assert _check_ok(recorder, cluster)

    def test_payload_over_the_record_cap_is_refused(self):
        env, recorder, cluster = _recorded4(gset_spec())
        with pytest.raises(SubmitError, match="exceeds"):
            env.run(until=cluster.node("p2").submit("add", "x" * 520))
        # Refused before σ changed: nothing to replicate, nothing traced
        # as issued, and the cluster still converges and checks.
        env.run(until=cluster.node("p2").submit("add", "short"))
        env.run(until=env.now + 500)
        assert cluster.converged()
        assert _check_ok(recorder, cluster)
        assert not any(e.kind == "rule" and e.arg == "x" * 520
                       for e in recorder.events())
        env, _recorder, cluster = _recorded4(courseware_spec())
        leader = cluster.node("p1").current_leader("addCourse")
        with pytest.raises(SubmitError, match="exceeds"):
            env.run(until=cluster.node(leader).submit("addCourse", "c" * 520))
