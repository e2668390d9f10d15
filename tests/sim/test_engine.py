"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
)


@pytest.fixture
def env():
    return Environment()


class TestTimeouts:
    def test_timeout_advances_clock(self, env):
        log = []

        def proc(env):
            yield env.timeout(3)
            log.append(env.now)
            yield env.timeout(4)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [3.0, 7.0]

    def test_zero_delay_timeout(self, env):
        def proc(env):
            yield env.timeout(0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 0.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_timeout_carries_value(self, env):
        def proc(env):
            got = yield env.timeout(1, value="payload")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "payload"

    def test_simultaneous_timeouts_fifo_order(self, env):
        log = []

        def proc(env, tag):
            yield env.timeout(5)
            log.append(tag)

        for tag in ["a", "b", "c"]:
            env.process(proc(env, tag))
        env.run()
        assert log == ["a", "b", "c"]


class TestAbsoluteTimeouts:
    def test_fires_at_when_exactly(self):
        # 0.7 + (2.9 - 0.7) rounds to 2.9000000000000004: a relative
        # timer cannot land on 2.9 from 0.7.
        start, when = 0.7, 2.9
        assert start + (when - start) != when
        env = Environment(initial_time=start)
        fired = []
        timer = env.timeout_at(when, value="v")
        timer.callbacks.append(lambda ev: fired.append((env.now, ev.value)))
        env.run()
        assert fired == [(when, "v")]

    def test_before_now_rejected(self):
        env = Environment(initial_time=2.0)
        with pytest.raises(SimulationError):
            env.timeout_at(1.999)

    def test_at_now_fires_in_the_current_instant(self, env):
        order = []
        env.timeout_at(0.0).callbacks.append(lambda ev: order.append("at"))
        env.timeout(0).callbacks.append(lambda ev: order.append("rel"))
        env.run()
        assert order == ["at", "rel"]
        assert env.now == 0.0

    def test_ties_break_by_creation_order(self, env):
        order = []
        for tag, make in [
            ("rel-a", lambda: env.timeout(5)),
            ("abs-b", lambda: env.timeout_at(5.0)),
            ("rel-c", lambda: env.timeout(5)),
            ("abs-d", lambda: env.timeout_at(5.0)),
        ]:
            make().callbacks.append(lambda ev, tag=tag: order.append(tag))
        env.run()
        assert order == ["rel-a", "abs-b", "rel-c", "abs-d"]


class TestRun:
    def test_run_until_time_stops_clock_there(self, env):
        def proc(env):
            while True:
                yield env.timeout(10)

        env.process(proc(env))
        env.run(until=25)
        assert env.now == 25.0

    def test_run_until_event_returns_value(self, env):
        done = env.event()

        def proc(env):
            yield env.timeout(2)
            done.succeed(42)

        env.process(proc(env))
        assert env.run(until=done) == 42
        assert env.now == 2.0

    def test_run_until_failed_event_raises(self, env):
        done = env.event()

        def proc(env):
            yield env.timeout(1)
            done.fail(ValueError("boom"))

        env.process(proc(env))
        with pytest.raises(ValueError, match="boom"):
            env.run(until=done)

    def test_run_until_unreachable_event_raises(self, env):
        never = env.event()
        with pytest.raises(SimulationError):
            env.run(until=never)

    def test_run_into_past_rejected(self, env):
        env.run(until=10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_empty_run_is_noop(self, env):
        env.run()
        assert env.now == 0.0


class TestEvents:
    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_waiting_on_failed_event_raises_in_process(self, env):
        ev = env.event()
        caught = []

        def proc(env):
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(proc(env))
        ev.fail(RuntimeError("bad"))
        env.run()
        assert caught == ["bad"]

    def test_waiting_on_already_processed_event(self, env):
        """Late waiters on a processed event still resume."""
        ev = env.event()
        ev.succeed("early")
        env.run()
        assert ev.processed

        def late(env):
            got = yield ev
            return got

        p = env.process(late(env))
        env.run()
        assert p.value == "early"


class TestProcesses:
    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "result"

        p = env.process(proc(env))
        env.run()
        assert p.value == "result"

    def test_process_is_waitable(self, env):
        def child(env):
            yield env.timeout(5)
            return 99

        def parent(env):
            got = yield env.process(child(env))
            return got

        p = env.process(parent(env))
        env.run()
        assert p.value == 99

    def test_yield_non_event_raises(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        env.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_exception_stored_on_process(self, env):
        def proc(env):
            yield env.timeout(1)
            raise KeyError("oops")

        p = env.process(proc(env))
        env.run()
        assert not p.ok
        assert isinstance(p.value, KeyError)

    def test_strict_mode_propagates_unhandled_exception(self):
        env = Environment(strict=True)

        def proc(env):
            yield env.timeout(1)
            raise KeyError("oops")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_waiting_parent_receives_child_exception(self, env):
        def child(env):
            yield env.timeout(1)
            raise ValueError("child died")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError:
                return "handled"

        p = env.process(parent(env))
        env.run()
        assert p.value == "handled"

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as inter:
                causes.append(inter.cause)
                return env.now

        def attacker(env, target):
            yield env.timeout(3)
            target.interrupt("failure-detected")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert causes == ["failure-detected"]
        assert v.value == 3.0

    def test_interrupted_process_can_keep_running(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(5)
            return env.now

        def attacker(env, target):
            yield env.timeout(2)
            target.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert v.value == 7.0

    def test_interrupt_dead_process_rejected(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_original_target_does_not_resume_twice(self, env):
        """After an interrupt, the abandoned timeout must not resume the process."""
        resumed = []

        def victim(env):
            try:
                yield env.timeout(10)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
            yield env.timeout(50)
            resumed.append("second")

        def attacker(env, target):
            yield env.timeout(1)
            target.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert resumed == ["interrupt", "second"]
        assert v.value is None

    def test_process_cannot_interrupt_itself(self, env):
        def selfish(env):
            yield env.timeout(1)
            env.active_process.interrupt()

        p = env.process(selfish(env))
        env.run()
        assert isinstance(p.value, SimulationError)
        assert "itself" in str(p.value)

    def test_awaited_process_can_interrupt_its_waiter(self, env):
        """The self-check compares the interrupter with the target, not
        with what the target waits on."""
        causes = []

        def waiter(env):
            try:
                yield callee
            except Interrupt as inter:
                causes.append((inter.cause, env.now))

        def callee_body(env):
            yield env.timeout(2)
            waiting.interrupt("give-up")
            yield env.timeout(1)

        callee = env.process(callee_body(env))
        waiting = env.process(waiter(env))
        env.run()
        assert causes == [("give-up", 2.0)]
        assert callee.ok


class TestConditions:
    def test_all_of_collects_values(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")

        def proc(env):
            got = yield env.all_of([t1, t2])
            return sorted(got.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["a", "b"]
        assert env.now == 2.0

    def test_any_of_returns_first(self, env):
        t1 = env.timeout(5, value="slow")
        t2 = env.timeout(1, value="fast")

        def proc(env):
            got = yield env.any_of([t1, t2])
            return list(got.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["fast"]
        # any_of triggers at the first event's time
        assert p.processed

    def test_empty_all_of_triggers_immediately(self, env):
        def proc(env):
            got = yield env.all_of([])
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == {}


class TestDeterminism:
    def test_two_identical_runs_produce_identical_traces(self):
        def make_trace():
            env = Environment()
            trace = []

            def worker(env, name, period):
                while env.now < 50:
                    yield env.timeout(period)
                    trace.append((env.now, name))

            env.process(worker(env, "x", 3))
            env.process(worker(env, "y", 5))
            env.run(until=60)
            return trace

        assert make_trace() == make_trace()
