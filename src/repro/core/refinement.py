"""Refinement checking (paper Lemma 3) as an executable test.

The paper proves that every trace of the concrete RDMA WRDT semantics
is a trace of the abstract WRDT semantics.  The refinement mapping:

- ``REDUCE(p, c)`` — abstract ``CALL(p, c)`` followed immediately by
  ``PROP(p', c)`` at every other process (the rule installs the new
  summary and applied count at *all* processes in one step);
- ``FREE(p, c)`` and ``CONF(p, c)`` — abstract ``CALL(p, c)``;
- ``FREE-APP(p, c)`` and ``CONF-APP(p, c)`` — abstract ``PROP(p, c)``.

:class:`RefinementChecker` replays a concrete event log through an
:class:`~repro.core.abstract_semantics.AbstractMachine`, re-checking
every abstract guard.  A :class:`GuardViolation` during replay is a
counterexample to refinement (and the test suite asserts none occur,
across random schedules).  The same checker validates the *runtime*:
:func:`concrete_events` derives the same event vocabulary from a
flight-recorder trace, so a driven run is replayed from what the
recorder saw — the runtime itself retains nothing per apply.
"""

from __future__ import annotations

from typing import Any, Iterable

from .abstract_semantics import AbstractMachine, GuardViolation
from .calls import Call
from .categories import Coordination
from .rdma_semantics import ConcreteEvent, RdmaMachine

__all__ = ["RefinementChecker", "check_refinement", "concrete_events"]

#: Recorded rule events that are concrete transitions where they stand.
_DIRECT_RULES = frozenset(("REDUCE", "FREE", "FREE_APP", "CONF_APP"))


def concrete_events(trace: Iterable[Any], dropped: int = 0,
                    ) -> list[ConcreteEvent]:
    """The concrete transitions a recorded runtime trace witnessed.

    ``trace`` is a recorder's ``events()`` view (read through its
    ``iter_kinds``, so spans are never built) or any ``TraceEvent``
    sequence in ``seq`` order.  REDUCE / FREE / FREE_APP / CONF_APP
    rule events map one to one.  A conflicting call *issues* when its
    leader posts the decision — the ``xfer "L:<gid>"`` event, which
    orders it before every follower's CONF_APP — while its ``CONF``
    rule event is only recorded at commit: the rule event marks the
    call decided and carries the argument, the xfer supplies position
    and time.  A posted batch that never committed (a deposed leader's)
    yields nothing; queries and spans are not transitions.  A truncated
    trace (``dropped > 0``) is refused: a suffix cannot be replayed.
    """
    if dropped:
        raise GuardViolation(
            "REPLAY",
            f"trace dropped {dropped} event(s): a truncated trace cannot "
            "be replayed (raise the recorder capacity)",
        )
    if hasattr(trace, "iter_kinds"):
        # A recorder's view: read only the rule and transfer rows.
        rules = trace.iter_kinds(("rule",))
        steps = trace.iter_kinds(("rule", "xfer"))
    else:
        trace = trace if isinstance(trace, (list, tuple)) else list(trace)
        rules = steps = trace
    committed = {
        (e.origin, e.rid): e.arg
        for e in rules if e.kind == "rule" and e.name == "CONF"
    }
    derived = []
    for e in steps:
        if e.kind == "rule" and e.name in _DIRECT_RULES:
            rule, arg = e.name, e.arg
        elif (e.kind == "xfer" and e.name.startswith("L:")
                and (e.origin, e.rid) in committed):
            rule, arg = "CONF", committed[(e.origin, e.rid)]
        else:
            continue
        derived.append(ConcreteEvent(
            rule, e.node, Call(e.method, arg, e.origin, e.rid), at=e.t
        ))
    return derived


class RefinementChecker:
    """Replays concrete events against the abstract specification."""

    def __init__(self, coordination: Coordination,
                 processes: Iterable[str]):
        self.coordination = coordination
        self.abstract = AbstractMachine(
            coordination.spec,
            coordination.call_relations(),
            processes,
        )

    def replay(self, events: Iterable[ConcreteEvent]) -> AbstractMachine:
        """Replay, raising :class:`GuardViolation` on the first mismatch."""
        for event in events:
            self.step(event)
        return self.abstract

    def step(self, event: ConcreteEvent) -> None:
        if event.rule == "REDUCE":
            self.abstract.do_call(event.process, event.call)
            for p in self.abstract.processes:
                if p != event.process:
                    self.abstract.do_prop(p, event.call)
        elif event.rule in ("FREE", "CONF"):
            self.abstract.do_call(event.process, event.call)
        elif event.rule in ("FREE_APP", "CONF_APP"):
            self.abstract.do_prop(event.process, event.call)
        else:
            raise GuardViolation("REPLAY", f"unknown rule {event.rule!r}")


def check_refinement(machine: RdmaMachine) -> AbstractMachine:
    """Replay a concrete machine's whole event log (Lemma 3 for one trace).

    Returns the resulting abstract machine so callers can additionally
    assert Lemma 1 (integrity) and Lemma 2 (convergence) on it.
    """
    checker = RefinementChecker(machine.coordination, machine.processes)
    return checker.replay(machine.events)
