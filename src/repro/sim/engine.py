"""Discrete-event simulation engine.

The engine drives every subsystem in this repository: the simulated RDMA
fabric, the Hamband runtime threads, the consensus protocol, and the
message-passing baseline all run as generator-based processes inside a
single :class:`Environment`.

The programming model follows the classic process-interaction style:
a *process* is a Python generator that yields :class:`Event` objects and
is resumed when the event triggers.  Simulated time is a float; the
benchmarks interpret it as microseconds.

Hot-path layout
---------------
The dispatch loop is the single hottest code in the repository — an
open-loop serving run pushes hundreds of thousands of events through
it — so it is arranged for CPython:

- every event class uses ``__slots__`` (half the allocation, faster
  attribute access);
- zero-delay events (``succeed``, process starts, Store/Resource
  grants) bypass the heap entirely through a FIFO *now-queue*; only
  real timers pay the ``heapq`` log-cost.  Ordering is still exactly
  global ``(time, seq)`` order — the now-queue holds events at the
  current instant and the dispatch loop merges the two structures by
  sequence number;
- ``call_later`` callbacks are scheduled as a one-slot :class:`_Deferred`
  instead of a full event-plus-lambda (the RDMA fabric applies every
  in-flight one-sided write this way — it is the hottest scheduling
  primitive under load);
- a CPU charge is one event (``Resource.hold``): granted FIFO, armed
  as a timer, released by its first callback;
- ``run()`` is one inlined loop for both ``until`` forms (a deadline or
  an event), with heap/queue handles hoisted into locals; ``_pop``
  serves only :meth:`step`.

``sim/microbench.py`` measures this loop and ``scripts/bench_gate.py``
gates it (the ``sim-engine-speed`` scenario), so regressions here fail
CI.

Example
-------
>>> env = Environment()
>>> def worker(env, log):
...     yield env.timeout(5)
...     log.append(env.now)
>>> log = []
>>> _ = env.process(worker(env, log))
>>> env.run()
>>> log
[5.0]
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation API."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party supplies an arbitrary ``cause`` that the
    interrupted process can inspect (for instance, a failure notice).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle: created -> triggered (scheduled) -> processed (callbacks ran).
_PENDING = object()


class _Deferred:
    """A bare scheduled callback — ``call_later``'s queue entry.

    One object, one slot; the dispatch loop recognises it by class
    identity and invokes ``fn`` directly, skipping the whole event
    callback machinery.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn


class Event:
    """A condition that processes can wait for.

    Events carry a value once they *succeed* or an exception once they
    *fail*.  Waiting on a failed event re-raises the exception inside
    the waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or will be) processed."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._now_queue.append((next(env._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._now_queue.append((next(env._seq), self))
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at the current time via the
            # now-queue so ordering stays deterministic.  The callback
            # receives this event directly — its value/_ok are final.
            env = self.env
            env._now_queue.append(
                (next(env._seq), _Deferred(lambda: callback(self)))
            )
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        if delay:
            heappush(
                env._queue, (env._now + delay, next(env._seq), self)
            )
        else:
            env._now_queue.append((next(env._seq), self))


class Process(Event):
    """A running process; itself an event that triggers on termination."""

    __slots__ = ("name", "_generator", "_send", "_throw", "_target",
                 "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None
        # One bound method reused for every wait — appending
        # ``self._resume`` directly would allocate a fresh bound method
        # per yield.
        self._resume_cb = self._resume
        # Kick-start the process at the current simulation time.
        env._now_queue.append((next(env._seq), _Deferred(self._start)))

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def _start(self) -> None:
        self._step(None, True)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self.name} has already terminated")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        env = self.env
        exc = Interrupt(cause)
        env._now_queue.append(
            (next(env._seq), _Deferred(lambda: self._deliver_interrupt(exc)))
        )

    def _deliver_interrupt(self, exc: Interrupt) -> None:
        if self._value is not _PENDING:
            return  # Terminated before the interrupt was delivered.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        self._step(exc, False)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._step(event._value, event._ok)

    def _step(self, value: Any, ok: bool) -> None:
        env = self.env
        send = self._send
        throw = self._throw
        while True:
            prev, env.active_process = env.active_process, self
            try:
                if ok:
                    target = send(value)
                else:
                    target = throw(value)
            except StopIteration as exc:
                env.active_process = prev
                self._ok = True
                self._value = exc.value
                env._now_queue.append((next(env._seq), self))
                return
            except BaseException as exc:
                env.active_process = prev
                self._ok = False
                self._value = exc
                env._now_queue.append((next(env._seq), self))
                if not self.callbacks and env.strict:
                    raise
                return
            env.active_process = prev
            if not isinstance(target, Event):
                value, ok = (
                    SimulationError(f"process yielded non-event {target!r}"),
                    False,
                )
                continue
            if target.env is not env:
                value, ok = (
                    SimulationError(
                        "process yielded event from another environment"
                    ),
                    False,
                )
                continue
            self._target = target
            callbacks = target.callbacks
            if callbacks is None:
                env._now_queue.append(
                    (next(env._seq),
                     _Deferred(lambda t=target: self._resume(t)))
                )
            else:
                callbacks.append(self._resume_cb)
            return


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all events must share one environment")
        self._done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev._add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only events whose callbacks already ran count as "arrived"; a
        # pending Timeout holds its value from construction, so checking
        # `triggered` would wrongly include it.
        return {ev: ev._value for ev in self.events if ev.callbacks is None}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when all child events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when any child event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation clock and event queue.

    Two scheduling structures back the clock: ``_queue`` is the usual
    time-ordered binary heap of ``(time, seq, item)`` entries for real
    timers, and ``_now_queue`` is a FIFO of ``(seq, item)`` entries at
    the *current* instant.  Sequence numbers come from one shared
    counter, so merging the two by ``(time, seq)`` reproduces exactly
    the order a single heap would produce — the now-queue is purely an
    allocation/log-cost optimisation for the dominant zero-delay case.
    ``item`` is an :class:`Event` or a :class:`_Deferred` callback.
    """

    __slots__ = ("_now", "_queue", "_now_queue", "_seq", "active_process",
                 "strict")

    def __init__(self, initial_time: float = 0.0, strict: bool = False):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Any]] = []
        self._now_queue: deque[tuple[int, Any]] = deque()
        self._seq = itertools.count()
        self.active_process: Optional[Process] = None
        #: When True, exceptions escaping a process with no waiter propagate
        #: out of run(); otherwise they are stored on the process event.
        self.strict = strict

    @property
    def now(self) -> float:
        return self._now

    def _schedule(self, event: Any, delay: float = 0.0) -> None:
        if delay:
            heappush(self._queue, (self._now + delay, next(self._seq), event))
        else:
            self._now_queue.append((next(self._seq), event))

    # -- public API ------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` without spawning a process.

        This is the cheap primitive the RDMA fabric uses to apply remote
        writes at their arrival time; a full process per in-flight verb
        would dominate simulation cost.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if delay:
            heappush(
                self._queue,
                (self._now + delay, next(self._seq), _Deferred(callback)),
            )
        else:
            self._now_queue.append((next(self._seq), _Deferred(callback)))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timer that fires at the absolute time ``when``.

        ``timeout(when - now)`` is not the same timer: ``now + (when -
        now)`` need not round back to ``when``.  A caller that sums its
        own delays (the open-loop arrival draws) schedules the sum
        exactly here.
        """
        now = self._now
        if when < now:
            raise SimulationError(f"timer at {when} is before now ({now})")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event.delay = when - now
        event._ok = True
        event._value = value
        if when > now:
            heappush(self._queue, (when, next(self._seq), event))
        else:
            self._now_queue.append((next(self._seq), event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def peek(self) -> float:
        """Time of the next scheduled event, or infinity if none."""
        if self._now_queue:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def _pop(self) -> Any:
        """The next item in global ``(time, seq)`` order, advancing the
        clock; None when nothing is eligible."""
        now_queue = self._now_queue
        queue = self._queue
        if now_queue:
            # A heap entry can only precede the now-queue head when it
            # fires at the current instant with a smaller seq (it was
            # scheduled earlier with a real delay that has just
            # elapsed).
            if queue:
                head = queue[0]
                if head[0] <= self._now and head[1] < now_queue[0][0]:
                    self._now, _, item = heappop(queue)
                    return item
            return now_queue.popleft()[1]
        if queue:
            self._now, _, item = heappop(queue)
            return item
        return None

    def step(self) -> None:
        """Process one event from the queue."""
        item = self._pop()
        if item is None:
            raise SimulationError("no more events")
        if item.__class__ is _Deferred:
            item.fn()
            return
        callbacks, item.callbacks = item.callbacks, None
        for callback in callbacks:
            callback(item)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline, or an event triggers.

        ``until`` may be a simulation time or an :class:`Event`; when it
        is an event, its value is returned (failures re-raise).
        """
        if isinstance(until, Event):
            stop, deadline = until, float("inf")
        else:
            # Never triggers: the deadline or a drained queue ends the loop.
            stop = Event(self)
            deadline = float("inf") if until is None else float(until)
            if deadline < self._now:
                raise SimulationError("cannot run into the past")
        now_queue = self._now_queue
        queue = self._queue
        # Inlined dispatch: this loop dominates every run's profile.
        while stop.callbacks is not None:
            if now_queue:
                if queue:
                    head = queue[0]
                    if head[0] <= self._now and head[1] < now_queue[0][0]:
                        self._now, _, item = heappop(queue)
                    else:
                        item = now_queue.popleft()[1]
                else:
                    item = now_queue.popleft()[1]
            elif queue and queue[0][0] <= deadline:
                self._now, _, item = heappop(queue)
            else:
                break
            if item.__class__ is _Deferred:
                item.fn()
                continue
            callbacks, item.callbacks = item.callbacks, None
            for callback in callbacks:
                callback(item)
        if stop is until:
            if stop.callbacks is not None:
                raise SimulationError(
                    "queue drained before the awaited event triggered"
                )
            if not stop._ok:
                raise stop._value
            return stop._value
        if deadline != float("inf"):
            self._now = deadline
        return None
