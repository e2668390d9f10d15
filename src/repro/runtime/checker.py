"""Offline trace checker: hold a recorded flight-recorder trace to the
paper's Figure-5/Figure-7 obligations after the run.

The obligations are implemented once, in
:class:`~repro.runtime.stream_checker.StreamingChecker` (they compose
per object over a window, so the offline check *is* the streaming one
with an unbounded window and no checkpoint):

1. **Integrity (Lemma 1)** — every applied update was *permissible at
   its apply state* (a REDUCE at every node at once), and no node
   applied one call twice (the runtime's dedup obligation).
2. **Total order per synchronization group** — the per-node apply
   sequences of one sync group, restricted to any pair's common calls,
   contain no inversion.
3. **Convergence (Lemma 2)** — at quiescence every node has applied the
   same set of calls and all replayed states are equal under
   ``spec.state_eq``.

:meth:`TraceChecker.check` is the driver for a trace held in memory: it
orders the events, derives the roster the run *started* with from the
``member`` events, feeds the core, and widens every violation's *causal
event chain* from the core's bounded cache to every recorded event
(spans, ring transfers, rule instants) of the offending calls — from
the failed obligation back to where the call was issued, which rings it
crossed, and where it was applied.  :class:`ShardedTraceChecker` runs it
per shard and adds cross-shard atomicity.

A trace truncated by the recorder's bounded ring buffer cannot attest
convergence and is reported as such, not silently passed.  ``fault``
events (:mod:`repro.sim.faults`) and ``repair`` events (a CRC-failed
ring record healed from an authoritative copy) are tallied, so a report
correlates *injected* ⇒ *detected* ⇒ *repaired*: a corruption campaign
that converged with zero repairs never landed or was silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

from ..core import Coordination
from .trace import (
    LoadedTrace, TraceEvent, TraceView, gap_detail, load_jsonl,
)

__all__ = [
    "CheckReport",
    "ShardedCheckReport",
    "ShardedTraceChecker",
    "TraceChecker",
    "Violation",
]

#: Event kinds that bear an obligation or a tally; spans and ring
#: transfers — two thirds of a trace — bear none and never reach the core.
_CHECKED_KINDS = frozenset(("rule", "member", "fault", "repair"))


@dataclass
class Violation:
    """One failed obligation, with the offending call's event chain."""

    kind: str  # integrity | duplicate | order | convergence |
    #            truncated | vocabulary
    message: str
    chain: list[TraceEvent] = field(default_factory=list)
    #: The offending calls' ``(origin, rid)`` identities.
    calls: tuple = ()

    def render(self) -> str:
        lines = [f"[{self.kind}] {self.message}"]
        for event in self.chain:
            lines.append(
                f"    t={event.t:<12.3f} {event.node:>4s} "
                f"{event.kind:>4s} {event.name:<10s} "
                f"{event.method}@{event.call_id()}"
            )
        return "\n".join(lines)


@dataclass
class CheckReport:
    """The outcome of one offline trace check."""

    nodes: list[str]
    calls_checked: int = 0
    applies_checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: Injected-fault tally by fault kind (``corrupt``, ``torn``,
    #: ``crash``, ...), from the trace's ``fault`` events.
    faults: dict[str, int] = field(default_factory=dict)
    #: Repair tally by corruption classification (``bitflip``,
    #: ``torn``, ``scrub``), from the trace's ``repair`` events.
    repairs: dict[str, int] = field(default_factory=dict)
    #: Which checker produced this report ("trace check" offline,
    #: "stream check" for the in-run streaming checker).
    label: str = "trace check"

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (
            f"{self.label}: {len(self.nodes)} nodes, "
            f"{self.calls_checked} calls, "
            f"{self.applies_checked} applies -> "
            f"{'OK' if self.ok else f'{len(self.violations)} violation(s)'}"
        )
        if self.faults or self.repairs:
            head += (
                f" | faults {self._tally(self.faults)}"
                f" repaired {self._tally(self.repairs)}"
            )
        if self.ok:
            return head
        return "\n".join([head] + [v.render() for v in self.violations])

    @staticmethod
    def _tally(counts: dict[str, int]) -> str:
        if not counts:
            return "none"
        return ",".join(
            f"{kind}={count}" for kind, count in sorted(counts.items())
        )


class TraceChecker:
    """Checks a whole recorded trace against the object specification."""

    def __init__(self, coordination: Coordination,
                 processes: Optional[Iterable[str]] = None,
                 max_violations: int = 25):
        self.coordination = coordination
        self.spec = coordination.spec
        self.processes = sorted(processes) if processes else None
        self.max_violations = max_violations

    # -- entry points ----------------------------------------------------

    def check_jsonl(self, path: str) -> CheckReport:
        """Check a trace previously exported with ``export_jsonl``."""
        trace: LoadedTrace = load_jsonl(path)
        return self.check(
            trace.events, dropped=trace.dropped,
            processes=self.processes or trace.nodes,
            gaps=trace.gaps,
        )

    def check(self, events: Iterable[TraceEvent], dropped: int = 0,
              processes: Optional[Iterable[str]] = None,
              gaps: Iterable[tuple] = ()) -> CheckReport:
        """Check a whole trace: the streaming core over an unbounded
        window.  A recorder's :class:`~repro.runtime.trace.TraceView`
        streams into the core as it stands; any other iterable may
        arrive in any order (``seq`` orders it, ties keep their input
        order).  ``processes`` names the FINAL roster — joiners
        included, departed excluded."""
        from .stream_checker import StreamingChecker  # imports this module

        by_seq = attrgetter("seq")
        if isinstance(events, TraceView):
            # Already in seq order: stream the checked rows straight
            # from the rings; the other rows are never built.
            checked = events.iter_kinds(_CHECKED_KINDS)
            members = list(events.iter_kinds(("member",)))
        else:
            if not isinstance(events, (list, tuple)):
                events = list(events)
            checked = [e for e in events if e.kind in _CHECKED_KINDS]
            checked.sort(key=by_seq)
            members = [event for event in checked if event.kind == "member"]
        # The core starts on the founding roster and evolves it at the
        # member events, as a live tap would.
        joins = {e.origin for e in members if e.name == "member_join"}
        leaves = {e.origin for e in members if e.name == "member_leave"}
        declared = processes or self.processes or (
            events.nodes() if isinstance(events, TraceView)
            else {e.node for e in events}
        )
        report = StreamingChecker(
            self.coordination, (set(declared) | leaves) - joins,
            max_violations=self.max_violations, strict_seq=False,
        ).check(checked, dropped=dropped, gaps=gaps)
        report.label = "trace check"
        # The core caches a bounded tail of each in-window call's rule
        # events; this driver holds the trace, so its chains are every
        # recorded event of the offending calls.
        chains = {key: [] for v in report.violations for key in v.calls}
        if chains:
            for event in events:
                chain = chains.get((event.origin, event.rid))
                if chain is not None:
                    chain.append(event)
            for chain in chains.values():
                chain.sort(key=by_seq)
            for violation in report.violations:
                violation.chain = [
                    event for key in violation.calls for event in chains[key]
                ]
        return report


# -- sharded topologies -----------------------------------------------------


@dataclass
class ShardedCheckReport:
    """Per-shard reports plus the cross-shard atomicity verdict."""

    shard_reports: dict[int, CheckReport] = field(default_factory=dict)
    #: Cross-shard obligations only (``atomicity`` / ``atomicity-order``
    #: / ``truncated``); per-shard violations live in their reports.
    violations: list[Violation] = field(default_factory=list)
    txns_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and all(
            report.ok for report in self.shard_reports.values()
        )

    def all_violations(self) -> list[Violation]:
        merged = list(self.violations)
        for shard in sorted(self.shard_reports):
            merged.extend(self.shard_reports[shard].violations)
        return merged

    def summary(self) -> str:
        lines = []
        for shard in sorted(self.shard_reports):
            lines.append(f"s{shard}: {self.shard_reports[shard].summary()}")
        verdict = (
            "OK" if not self.violations
            else f"{len(self.violations)} violation(s)"
        )
        lines.append(
            f"cross-shard atomicity: {self.txns_checked} txn(s) -> {verdict}"
        )
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)


class ShardedTraceChecker:
    """Checks a sharded run: every shard's stream must satisfy the
    single-cluster obligations (Lemma 1 integrity, per-group total
    order, Lemma 2 convergence), and the transaction stream must
    satisfy cross-shard atomicity:

    1. **Commit completeness** — every call identity a COMMIT receipt
       names was actually applied on its shard.
    2. **Abort emptiness (all-or-nothing)** — no call identity an ABORT
       receipt names was applied anywhere: an aborted transaction left
       no partial effects.  This is the obligation the conflicting-txn
       lock path is load-bearing for — with the lock path disabled, a
       rejected constituent no longer aborts the set before its
       siblings land, and this check fails.
    3. **Cross-shard order** — two committed *locked* transactions
       sharing two or more shards must take effect in the same order on
       every shared shard (first-apply order by global sequence number;
       an inversion means the per-shard lock/commit protocol was
       bypassed).

    Commuting transactions are exempt from (3) by construction: their
    calls commute with all concurrent updates, so any apply
    interleaving is equivalent.
    """

    def __init__(self, coordination: Coordination, n_shards: int,
                 processes: Optional[Iterable[str]] = None,
                 max_violations: int = 25):
        self.coordination = coordination
        self.n_shards = n_shards
        self.processes = sorted(processes) if processes else None
        self.max_violations = max_violations

    def check_recorder(self, recorder) -> ShardedCheckReport:
        """Check a :class:`~repro.runtime.trace.ShardedRecorder`."""
        return self.check(
            recorder.shard_events(),
            recorder.txn_events(),
            dropped=recorder.dropped(),
            gaps=recorder.drop_gaps(),
        )

    def check(self, shard_events: dict[int, list[TraceEvent]],
              txn_events: Iterable[TraceEvent],
              dropped: int = 0,
              gaps: Iterable[tuple] = ()) -> ShardedCheckReport:
        report = ShardedCheckReport()
        for shard in range(self.n_shards):
            checker = TraceChecker(
                self.coordination,
                processes=self.processes,
                max_violations=self.max_violations,
            )
            report.shard_reports[shard] = checker.check(
                shard_events.get(shard, [])
            )
        if dropped:
            report.violations.append(Violation(
                "truncated",
                f"trace dropped {dropped} event(s){gap_detail(gaps)}: "
                "cannot attest cross-shard atomicity (raise the recorder "
                "capacity)",
            ))
        self._check_atomicity(report, shard_events, list(txn_events))
        return report

    # -- the cross-shard obligations -------------------------------------

    def _check_atomicity(self, report, shard_events, txn_events):
        def violation(kind: str, message: str,
                      chain: Optional[list] = None) -> None:
            if len(report.violations) < self.max_violations:
                report.violations.append(
                    Violation(kind, message, chain or [])
                )

        # First-apply position of every call identity, per shard, in
        # the recorder's global sequence order.
        applied_at: dict[int, dict[tuple[str, int], int]] = {}
        for shard, events in shard_events.items():
            first = applied_at.setdefault(shard, {})
            if isinstance(events, TraceView):
                events = events.iter_kinds(("rule",))
            for event in events:
                if event.kind == "rule" and event.name != "QUERY":
                    first.setdefault((event.origin, event.rid), event.seq)

        outcomes = [
            event for event in txn_events
            if event.kind == "txn" and event.name in ("COMMIT", "ABORT")
        ]
        report.txns_checked = len(outcomes)
        for event in outcomes:
            issued = tuple(event.arg or ())
            for identity in issued:
                shard, method, origin, rid = identity
                landed = (origin, rid) in applied_at.get(shard, {})
                if event.name == "COMMIT" and not landed:
                    violation(
                        "atomicity",
                        f"txn #{event.rid} ({event.method}) committed "
                        f"but {method}@{origin}#{rid} never applied on "
                        f"shard s{shard}",
                        [event],
                    )
                elif event.name == "ABORT" and landed:
                    violation(
                        "atomicity",
                        f"txn #{event.rid} ({event.method}) aborted but "
                        f"{method}@{origin}#{rid} was applied on shard "
                        f"s{shard}: partial effects survived the abort",
                        [event],
                    )

        # Obligation 3: pairwise order agreement for committed locked
        # transactions sharing >= 2 shards.
        locked = [
            event for event in outcomes
            if event.name == "COMMIT" and event.method == "locked"
        ]
        positions: list[tuple[TraceEvent, dict[int, int]]] = []
        for event in locked:
            per_shard: dict[int, int] = {}
            for shard, _method, origin, rid in tuple(event.arg or ()):
                seq = applied_at.get(shard, {}).get((origin, rid))
                if seq is not None:
                    per_shard[shard] = min(
                        per_shard.get(shard, seq), seq
                    )
            positions.append((event, per_shard))
        for i, (event_a, pos_a) in enumerate(positions):
            for event_b, pos_b in positions[i + 1:]:
                shared = sorted(set(pos_a) & set(pos_b))
                if len(shared) < 2:
                    continue
                orders = {
                    shard: pos_a[shard] < pos_b[shard] for shard in shared
                }
                if len(set(orders.values())) > 1:
                    violation(
                        "atomicity-order",
                        f"locked txns #{event_a.rid} and #{event_b.rid} "
                        f"took effect in opposite orders on shared "
                        f"shards {', '.join(f's{s}' for s in shared)}",
                        [event_a, event_b],
                    )
