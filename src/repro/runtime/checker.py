"""Offline trace analyzer: replay a flight-recorder trace and check
the paper's Figure-5/Figure-7 obligations against what actually ran.

:class:`TraceChecker` consumes the rule events of a recorded trace
(:mod:`repro.runtime.trace`) in their global order and re-derives every
node's state, asserting three obligations:

1. **Integrity (Lemma 1)** — every applied update was *permissible at
   its apply state*: for each rule event, folding the call into the
   applying node's replayed state must preserve the invariant (for
   REDUCE the summary is visible at every node, so the check runs at
   all of them).  It also rejects double-application of one call at one
   node (the runtime's dedup obligation).
2. **Total order per synchronization group** — the conflicting calls of
   one sync group must be applied in a single total order on all nodes:
   the per-node apply sequences, restricted to any pair's common calls,
   may not contain an inversion.
3. **Convergence (Lemma 2)** — at quiescence every node has applied the
   same set of calls and all replayed states are equal under
   ``spec.state_eq``.

Violations carry the *causal event chain* — every recorded event
(spans, ring transfers, rule instants) mentioning the offending call —
so a report points from the failed obligation back to where the call
was issued, which rings it crossed, and where it was applied.

A trace truncated by the recorder's bounded ring buffer cannot attest
convergence; the checker reports that as a violation instead of
silently passing.

Chaos runs additionally record ``fault`` events (injected by
:mod:`repro.sim.faults`) and ``repair`` events (emitted when a node
detects a CRC-failed ring record and heals it from an authoritative
copy).  The checker tallies both so a report correlates *injected* ⇒
*detected* ⇒ *repaired*: a corruption campaign that converged with
zero repairs either never landed or was silently absorbed, and either
way the tally makes that visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core import Call, Coordination
from ..core.replay import Replay
from .trace import LoadedTrace, TraceEvent, gap_detail, load_jsonl

__all__ = [
    "CheckReport",
    "ShardedCheckReport",
    "ShardedTraceChecker",
    "TraceChecker",
    "Violation",
]

#: Rules that mutate σ at exactly the event's node.
LOCAL_APPLY_RULES = ("FREE", "CONF", "FREE_APP", "CONF_APP")


@dataclass
class Violation:
    """One failed obligation, with the offending call's event chain."""

    kind: str  # integrity | duplicate | order | convergence |
    #            truncated | vocabulary
    message: str
    chain: list[TraceEvent] = field(default_factory=list)

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
    """Replays recorded rule events against the object specification."""

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
        """Replay ``events``, which arrive in global ``seq`` order (as
        the recorder's merge and a JSONL export deliver them; any other
        order is sorted first)."""
        if not isinstance(events, (list, tuple)):
            events = list(events)
        members = [event for event in events if event.kind == "member"]
        nodes = sorted(processes or self.processes or {
            event.node for event in events
        })
        # Elastic membership: the declared node list names the FINAL
        # roster (joiners included, departed excluded).  Reconstruct the
        # founding roster from the member events, then evolve it during
        # the replay — a joiner's state begins at its ``member_join``
        # event, a departed node stops being held to convergence at its
        # ``member_leave``.
        joins = {e.origin for e in members if e.name == "member_join"}
        leaves = {e.origin for e in members if e.name == "member_leave"}
        initial = sorted((set(nodes) | leaves) - joins)
        report = CheckReport(nodes=nodes)
        if not initial:
            report.violations.append(
                Violation("vocabulary", "empty trace: no nodes recorded")
            )
            return report

        def chain(origin: str, rid: int) -> list[TraceEvent]:
            """The call's causal chain — built only for a call about to
            be reported, so a clean trace never pays for an index."""
            return [e for e in events if e.origin == origin and e.rid == rid]

        def report_violation(kind: str, message: str,
                             key: tuple[str, int]) -> None:
            if len(report.violations) < self.max_violations:
                report.violations.append(
                    Violation(kind, message, chain(*key))
                )

        replay = Replay(self.spec, initial)
        sigma = replay.sigma
        applied: dict[str, set[tuple[str, int]]] = {
            node: set() for node in initial
        }
        #: Nodes currently part of the cluster (evolves at member
        #: events); convergence is only owed by the final roster.
        present: set[str] = set(initial)
        #: Every REDUCE replayed so far: a joiner's state starts from
        #: ``replay.seed``, which already folds these.
        reduced: list[tuple[str, int]] = []
        #: Per-(gid, node) apply order of conflicting calls.
        group_order: dict[tuple[str, str], list[tuple[str, int]]] = {}
        seen_calls: set[tuple[str, int]] = set()

        last_seq = float("-inf")
        for event in events:
            if event.seq < last_seq:
                return self.check(
                    sorted(events, key=lambda e: e.seq), dropped=dropped,
                    processes=processes, gaps=gaps,
                )
            last_seq = event.seq
            kind = event.kind
            if kind != "rule":
                if kind == "member":
                    subject = event.origin
                    if event.name == "member_join":
                        if subject not in sigma:
                            replay.join(subject)
                            applied[subject] = set(reduced)
                        present.add(subject)
                    elif event.name == "member_leave":
                        present.discard(subject)
                    # state_xfer and friends are informational
                elif kind in ("fault", "repair"):
                    tally = report.faults if kind == "fault" else report.repairs
                    tally[event.name] = tally.get(event.name, 0) + 1
                continue
            rule = event.name
            if rule == "QUERY":
                continue
            node = event.node
            key = (event.origin, event.rid)
            call = Call(event.method, event.arg, event.origin, event.rid)
            if node not in sigma:
                report_violation(
                    "vocabulary", f"event at unknown node {node!r}", key
                )
                continue
            if rule == "REDUCE":
                seen_calls.add(key)
                report.applies_checked += 1
                if key in applied[node]:
                    report_violation(
                        "duplicate", f"{call} reduced twice at {node}", key
                    )
                    continue
                # A summary write is visible at every node (refinement:
                # REDUCE = CALL at origin + immediate PROP everywhere).
                # Departed nodes no longer see summary writes.
                reduced.append(key)
                for other in replay.reduce(call, sorted(present)):
                    report_violation(
                        "integrity",
                        f"{call} (REDUCE at {node}) breaks the "
                        f"invariant at {other}",
                        key,
                    )
                for other in present:
                    applied[other].add(key)
            elif rule in LOCAL_APPLY_RULES:
                seen_calls.add(key)
                report.applies_checked += 1
                if key in applied[node]:
                    report_violation(
                        "duplicate",
                        f"{call} applied twice at {node} (rule {rule})",
                        key,
                    )
                    continue
                if not replay.step(call, node):
                    report_violation(
                        "integrity",
                        f"{call} not permissible at its apply state "
                        f"({rule} at {node})",
                        key,
                    )
                applied[node].add(key)
                if rule in ("CONF", "CONF_APP"):
                    group = self.coordination.sync_group(event.method)
                    if group is None:
                        report_violation(
                            "vocabulary",
                            f"{rule} event for conflict-free method "
                            f"{event.method!r} at {node}",
                            key,
                        )
                    else:
                        group_order.setdefault(
                            (group.gid, node), []
                        ).append(key)
            else:
                report_violation(
                    "vocabulary", f"unknown rule {rule!r} at {node}", key
                )
        report.calls_checked = len(seen_calls)
        report.nodes = sorted(present)

        # The total-order obligation holds for every node that was ever
        # a member — a departed node's (partial) order must still agree.
        self._check_group_orders(report, group_order, chain, sorted(sigma))
        # Convergence is owed only by the final roster: a departed node
        # legitimately froze mid-history.
        self._check_convergence(
            report, replay, applied, chain, sorted(present), dropped, gaps
        )
        return report

    # -- obligation 2: one total order per sync group --------------------

    def _check_group_orders(self, report, group_order, chain, nodes):
        gids = sorted({gid for gid, _node in group_order})
        for gid in gids:
            sequences = [
                (node, group_order.get((gid, node), []))
                for node in nodes
            ]
            for i, (node_a, seq_a) in enumerate(sequences):
                positions = {key: idx for idx, key in enumerate(seq_a)}
                for node_b, seq_b in sequences[i + 1:]:
                    common = [key for key in seq_b if key in positions]
                    last = -1
                    for key in common:
                        if positions[key] < last:
                            prev = next(
                                k for k, idx in positions.items()
                                if idx == last
                            )
                            report.violations.append(Violation(
                                "order",
                                f"sync group {gid}: {node_a} applied "
                                f"{key[0]}#{key[1]} before "
                                f"{prev[0]}#{prev[1]} but {node_b} "
                                f"applied them in the opposite order",
                                chain(*key) + chain(*prev),
                            ))
                            break
                        last = positions[key]

    # -- obligation 3: convergence at quiescence -------------------------

    def _check_convergence(self, report, replay, applied, chain, nodes,
                           dropped, gaps=()):
        if dropped:
            report.violations.append(Violation(
                "truncated",
                f"trace dropped {dropped} event(s){gap_detail(gaps)}: "
                "cannot attest convergence (raise the recorder capacity)",
            ))
            return
        if not nodes:
            return  # everyone scaled in: nobody owes convergence
        union: set[tuple[str, int]] = set()
        for node in nodes:
            union |= applied[node]
        for node in nodes:
            missing = union - applied[node]
            for key in sorted(missing)[:3]:
                report.violations.append(Violation(
                    "convergence",
                    f"{node} never applied {key[0]}#{key[1]} "
                    f"({len(missing)} call(s) missing at {node})",
                    chain(*key),
                ))
        if any(applied[node] != union for node in nodes):
            return  # states legitimately differ when calls are missing
        report.violations.extend(
            Violation("convergence", message)
            for message in replay.divergence(nodes)
        )


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
