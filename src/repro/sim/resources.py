"""Waitable resources built on the event engine.

Two primitives cover everything the substrates need:

- :class:`Store` — an unbounded (or bounded) FIFO queue with blocking
  ``get``.  Message channels, completion queues, and request queues are
  stores.
- :class:`Resource` — a counted semaphore.  Each simulated CPU core is a
  ``Resource(capacity=1)``; a :meth:`Resource.hold` models CPU
  occupancy, which is what makes throughput saturate realistically.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Optional

from .engine import Environment, Event, SimulationError, _Deferred

__all__ = ["Store", "Resource"]


class Store:
    """FIFO queue of items with event-based blocking get/put."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; the returned event triggers when stored."""
        event = Event(self.env)
        if self.capacity is not None and len(self.items) >= self.capacity:
            self._putters.append((event, item))
            return event
        self._deposit(item)
        event.succeed()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when the store is full."""
        if self.capacity is not None and len(self.items) >= self.capacity:
            return False
        self._deposit(item)
        return True

    def get(self) -> Event:
        """Returned event triggers with the next item."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; ``(False, None)`` when empty."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        self._admit_putter()
        return True, item

    def _deposit(self, item: Any) -> None:
        # Hand the item straight to a waiting getter when one exists.
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self.items.append(item)

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            event, item = self._putters.popleft()
            self._deposit(item)
            event.succeed()


class _Hold(Event):
    """One CPU charge (:meth:`Resource.hold`); released by callback 0."""

    __slots__ = ("cost",)

    def __init__(self, env: Environment, cost: float, release) -> None:
        self.env = env
        self.callbacks = [release]
        self._value = None
        self._ok = True
        self.cost = cost


class Resource:
    """A counted semaphore with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        #: Execution speed factor: 1.0 is nominal; a ``cpuslow`` fault
        #: window lowers it, stretching every :meth:`hold` granted while
        #: the window is open by ``1/speed``.
        self.speed = 1.0
        self._waiters: deque[Event] = deque()
        #: Granted holds not yet armed.  Grants dispatch in the order
        #: made, so one shared now-queue entry arms them all.
        self._granted: deque[_Hold] = deque()
        self._arm_entry = _Deferred(self._arm)
        self._release_cb = self.release

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        """Returned event triggers once a unit is granted."""
        event = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self, _hold: Optional[Event] = None) -> None:
        """Free one unit for the oldest waiter (an ending hold's callback)."""
        if self.in_use <= 0:
            raise SimulationError("release without acquire")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.__class__ is _Hold:
                self._grant(waiter)
                return
            if not waiter.triggered:
                waiter.succeed()
                return
        self.in_use -= 1

    def hold(self, cost: float) -> Event:
        """Occupy one unit for ``cost`` time units: ``yield cpu.hold(cost)``.

        The returned event triggers once the unit is released again.
        Holds queue FIFO with :meth:`acquire` callers; ``speed`` is read
        when the hold is granted.  Two rules follow from the hold being
        an event rather than a step of its caller: a hold whose process
        is interrupted while it is queued is still granted and released
        (the unit never leaks), and an interrupted holder keeps its unit
        until the hold ends.
        """
        if cost < 0:
            raise SimulationError(f"negative hold cost {cost}")
        hold = _Hold(self.env, cost, self._release_cb)
        if self.in_use < self.capacity:
            self.in_use += 1
            self._grant(hold)
        else:
            self._waiters.append(hold)
        return hold

    def _grant(self, hold: _Hold) -> None:
        env = self.env
        self._granted.append(hold)
        env._now_queue.append((next(env._seq), self._arm_entry))

    def _arm(self) -> None:
        """Start the oldest granted hold's timer (the grant's slot)."""
        hold = self._granted.popleft()
        env = self.env
        cost = hold.cost if self.speed == 1.0 else hold.cost / self.speed
        if cost:
            heappush(env._queue, (env._now + cost, next(env._seq), hold))
        else:
            env._now_queue.append((next(env._seq), hold))
