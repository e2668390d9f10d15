"""Unit tests for Store and Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.resources import Resource, Store


def reference_use(resource, duration):
    """The acquire/timeout/release generator ``Resource.hold`` replaced:
    ``yield from reference_use(cpu, cost)``."""
    yield resource.acquire()
    try:
        yield resource.env.timeout(
            duration if resource.speed == 1.0 else duration / resource.speed
        )
    finally:
        resource.release()


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def proc(env):
            yield store.put("m1")
            got = yield store.get()
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "m1"

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            got = yield store.get()
            return (env.now, got)

        def producer(env):
            yield env.timeout(7)
            yield store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (7.0, "late")

    def test_fifo_ordering(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        got = []

        def consumer(env):
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_multiple_getters_served_in_order(self, env):
        store = Store(env)
        got = []

        def consumer(env, tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(consumer(env, "first"))
        env.process(consumer(env, "second"))

        def producer(env):
            yield env.timeout(1)
            store.put("a")
            store.put("b")

        env.process(producer(env))
        env.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_bounded_capacity_blocks_putter(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            times.append(("a", env.now))
            yield store.put("b")
            times.append(("b", env.now))

        def consumer(env):
            yield env.timeout(10)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [("a", 0.0), ("b", 10.0)]

    def test_try_get_nonblocking(self, env):
        store = Store(env)
        assert store.try_get() == (False, None)
        store.put("x")
        env.run()
        assert store.try_get() == (True, "x")

    def test_try_put_respects_capacity(self, env):
        store = Store(env, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestResource:
    def test_capacity_one_serializes(self, env):
        cpu = Resource(env, capacity=1)
        spans = []

        def job(env, tag):
            yield cpu.acquire()
            start = env.now
            yield env.timeout(4)
            cpu.release()
            spans.append((tag, start, env.now))

        for tag in ("a", "b", "c"):
            env.process(job(env, tag))
        env.run()
        assert spans == [("a", 0.0, 4.0), ("b", 4.0, 8.0), ("c", 8.0, 12.0)]

    def test_capacity_two_allows_parallelism(self, env):
        cpu = Resource(env, capacity=2)
        ends = []

        def job(env):
            yield cpu.acquire()
            yield env.timeout(4)
            cpu.release()
            ends.append(env.now)

        for _ in range(4):
            env.process(job(env))
        env.run()
        assert ends == [4.0, 4.0, 8.0, 8.0]

    def test_release_without_acquire_rejected(self, env):
        cpu = Resource(env)
        with pytest.raises(SimulationError):
            cpu.release()

    def test_hold_releases_on_completion(self, env):
        cpu = Resource(env)

        def job(env):
            yield cpu.hold(3)
            return env.now

        p = env.process(job(env))
        env.run()
        assert p.value == 3.0
        assert cpu.available == 1

    def test_available_accounting(self, env):
        cpu = Resource(env, capacity=3)

        def job(env):
            yield cpu.acquire()

        env.process(job(env))
        env.process(job(env))
        env.run()
        assert cpu.available == 1

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)


def _trace(capacity, jobs, slow_at, slow_speed, use_hold):
    """Run ``jobs`` — (start, cost, kind) with kind ``hold`` or
    ``acquire`` — on one resource whose speed drops at ``slow_at``;
    ``(time, tag)`` per job start and end, and the final free units."""
    env = Environment()
    cpu = Resource(env, capacity=capacity)
    trace = []

    def job(tag, start, cost, kind):
        yield env.timeout(start)
        trace.append((env.now, f"{tag}+"))
        if kind == "acquire":
            yield cpu.acquire()
            yield env.timeout(cost)
            cpu.release()
        elif use_hold:
            yield cpu.hold(cost)
        else:
            yield from reference_use(cpu, cost)
        trace.append((env.now, f"{tag}-"))

    def slow():
        yield env.timeout(slow_at)
        cpu.speed = slow_speed
        trace.append((env.now, "slow"))

    env.process(slow())
    for tag, (start, cost, kind) in enumerate(jobs):
        env.process(job(tag, start, cost, kind))
    env.run()
    return trace, cpu.available


class TestHold:
    @given(
        capacity=st.integers(1, 3),
        jobs=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                st.sampled_from(["hold", "hold", "acquire"]),
            ),
            min_size=1, max_size=12,
        ),
        slow_at=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        slow_speed=st.sampled_from([1.0, 0.5, 0.25]),
    )
    @settings(max_examples=200, deadline=None)
    def test_hold_matches_the_reference_generator(
        self, capacity, jobs, slow_at, slow_speed
    ):
        assert _trace(capacity, jobs, slow_at, slow_speed, True) == _trace(
            capacity, jobs, slow_at, slow_speed, False
        )

    def test_hold_is_one_plain_event(self, env):
        cpu = Resource(env)
        hold = cpu.hold(2)
        assert not hasattr(hold, "send")
        env.run(until=hold)
        assert env.now == 2.0
        assert cpu.available == 1

    def test_negative_cost_raises_before_taking_a_unit(self, env):
        cpu = Resource(env)
        with pytest.raises(SimulationError):
            cpu.hold(-1)
        assert cpu.available == 1

    def test_interrupted_while_queued_does_not_leak_the_unit(self, env):
        # The reference generator leaks here: the queued acquire is
        # granted after the interrupt and never released.
        cpu = Resource(env)
        log = []

        def holder():
            yield cpu.hold(5)

        def waiter():
            try:
                yield cpu.hold(3)
            except Interrupt:
                log.append(("interrupted", env.now))

        def attacker(target):
            yield env.timeout(1)
            target.interrupt()

        env.process(holder())
        env.process(attacker(env.process(waiter())))
        env.run()
        # The queued hold is still granted at 5 and released at 8.
        assert log == [("interrupted", 1.0)]
        assert env.now == 8.0
        assert cpu.available == 1

    def test_interrupted_holder_keeps_its_unit_until_the_hold_ends(
        self, env
    ):
        cpu = Resource(env)
        log = []

        def holder():
            try:
                yield cpu.hold(5)
            except Interrupt:
                log.append(("interrupted", env.now, cpu.available))

        def next_job():
            yield env.timeout(1)
            yield cpu.hold(1)
            log.append(("next", env.now))

        def attacker(target):
            yield env.timeout(2)
            target.interrupt()

        env.process(attacker(env.process(holder())))
        env.process(next_job())
        env.run()
        assert log == [("interrupted", 2.0, 0), ("next", 6.0)]
        assert cpu.available == 1
