"""Streaming trace checker: verify a run *while* it executes.

The offline :class:`~repro.runtime.checker.TraceChecker` replays a
whole recorded trace in memory, so its cost and footprint grow with
trace length — it cannot attest a long-running, million-op serving
run.  :class:`StreamingChecker` reformulates the same three
obligations (Lemma-1 integrity, one total order per synchronization
group, Lemma-2 convergence) as an *incremental, windowed* analysis in
the style of replication-aware linearizability (Enea et al.): the
compositional per-object criterion makes it sound to verify each sync
group's obligations over a bounded window of in-flight calls,
checkpoint the verified prefix, and discard it.

Feed it events online — tapped directly off the per-node
:class:`~repro.runtime.trace.TracingProbe`\\ s via
:meth:`~repro.runtime.trace.TraceRecorder.stream_to`, or tailing a
JSONL stream — in global sequence order.  Memory is bounded by the
*window* (calls issued but not yet applied everywhere), not the trace:

- a call **retires** once every node has applied it (REDUCE retires
  immediately — a summary write is visible everywhere at once); its
  chain of rule events, apply bookkeeping, and sync-group entries are
  dropped
  and only a compact per-origin interval set of retired request ids
  remains (for exact duplicate detection, O(gaps) not O(calls));
- sync-group total order is checked pairwise *as applies arrive*: per
  node pair, the common in-window calls are kept sorted by one node's
  apply position, and a new common call is an inversion exactly when
  it breaks monotonicity against a neighbour.  Group calls retire in
  common-prefix order, so an inversion always surfaces while both
  calls are still in the window;
- convergence is asserted at :meth:`finish` over the residual window —
  every retired call was applied everywhere by construction.

Sequence-number continuity doubles as gap detection: a jump in ``seq``
means events were lost upstream (a :class:`TracingProbe` ring drop),
and the checker reports ``gap at seq N..M`` explicitly — and declines
to attest convergence, exactly like the offline checker on a truncated
trace — instead of failing opaquely.

:class:`CheckpointState` snapshots the full checker state (replayed
states, retired intervals, window, group frontiers, violations so far)
as deterministic JSON.  A checker resumed from a checkpoint skips
already-verified events (``seq < next_seq``) and reaches the same
verdict as an uninterrupted run.
"""

from __future__ import annotations

import base64
import bisect
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..core import Call, Coordination
from ..core.replay import Replay
from .checker import LOCAL_APPLY_RULES, CheckReport, Violation
from .trace import (
    TraceEvent,
    event_from_dict,
    event_to_dict,
    gap_detail,
    iter_jsonl,
)
from .wire import decode_value, encode_value

__all__ = [
    "CheckpointState",
    "StreamingChecker",
]

#: Per-call causal-chain cap: violations carry at most this many of the
#: call's most recent rule events (the offline checker can gather every
#: event of a call from the trace it holds — a streaming checker cannot).
_CHAIN_LIMIT = 48


class _IntervalSet:
    """A set of ints stored as sorted disjoint ``[lo, hi]`` intervals.

    Retired request ids per origin are dense (nodes assign them
    sequentially), so this stays at one or two intervals no matter how
    many calls retire — the structure that makes exact duplicate
    detection O(1) memory per origin.
    """

    __slots__ = ("spans",)

    def __init__(self, spans: Optional[list[list[int]]] = None):
        self.spans: list[list[int]] = spans or []

    def add(self, value: int) -> None:
        spans = self.spans
        index = bisect.bisect_left(spans, [value])
        if index < len(spans) and spans[index][0] <= value <= spans[index][1]:
            return
        if index > 0 and spans[index - 1][0] <= value <= spans[index - 1][1]:
            return
        joins_prev = index > 0 and spans[index - 1][1] == value - 1
        joins_next = index < len(spans) and spans[index][0] == value + 1
        if joins_prev and joins_next:
            spans[index - 1][1] = spans[index][1]
            del spans[index]
        elif joins_prev:
            spans[index - 1][1] = value
        elif joins_next:
            spans[index][0] = value
        else:
            spans.insert(index, [value, value])

    def __contains__(self, value: int) -> bool:
        spans = self.spans
        index = bisect.bisect_right(spans, [value, float("inf")])
        return index > 0 and spans[index - 1][0] <= value <= spans[index - 1][1]

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.spans)


@dataclass
class _CallState:
    """Bookkeeping for one in-window (not yet fully replicated) call."""

    first_seq: int
    gid: str = ""
    applied: set[str] = field(default_factory=set)
    #: Node -> this call's position in that node's per-group apply order.
    group_pos: dict[str, int] = field(default_factory=dict)


def _pack(value: Any) -> str:
    """A replayed state as canonical wire bytes, base64 (for JSON)."""
    return base64.b64encode(encode_value(value)).decode("ascii")


def _unpack(text: str) -> Any:
    return decode_value(base64.b64decode(text.encode("ascii")))


def _key_str(key: tuple[str, int]) -> str:
    return f"{key[0]}#{key[1]}"


def _key_from_str(text: str) -> tuple[str, int]:
    origin, _, rid = text.rpartition("#")
    return (origin, int(rid))


@dataclass
class CheckpointState:
    """A serializable, resumable snapshot of a :class:`StreamingChecker`.

    ``next_seq`` is the first sequence number the resumed checker will
    process; everything below it is part of the verified prefix or the
    serialized window.  :meth:`to_json` is deterministic — identical
    checker states produce identical bytes — so checkpoints can be
    compared, content-addressed, and replayed in tests.
    """

    spec_name: str
    nodes: list[str]
    next_seq: int
    payload: dict[str, Any]
    version: int = 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "checkpoint",
                "version": self.version,
                "spec": self.spec_name,
                "nodes": self.nodes,
                "next_seq": self.next_seq,
                "payload": self.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckpointState":
        record = json.loads(text)
        if record.get("kind") != "checkpoint":
            raise ValueError("not a checkpoint record")
        return cls(
            spec_name=record["spec"],
            nodes=list(record["nodes"]),
            next_seq=record["next_seq"],
            payload=record["payload"],
            version=record.get("version", 1),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json())
            fp.write("\n")

    @classmethod
    def load(cls, path: str) -> "CheckpointState":
        with open(path, encoding="utf-8") as fp:
            return cls.from_json(fp.read())


class StreamingChecker:
    """Incremental trace checker with bounded (window-sized) memory.

    >>> checker = StreamingChecker(cluster.coordination,
    ...                            processes=cluster.node_names())
    >>> recorder.stream_to(checker.feed)   # tap the live probes
    ... # drive the cluster ...
    >>> report = checker.finish()          # CheckReport, like offline

    Events must arrive in nondecreasing ``seq`` order (the recorder's
    shared counter guarantees this for a tapped run; JSONL exports are
    written in that order).  Events with ``seq`` below the resume
    frontier are skipped, which makes re-feeding a stream from the
    start after :meth:`resume` idempotent.
    """

    def __init__(self, coordination: Coordination,
                 processes: Iterable[str],
                 max_violations: int = 25,
                 strict_seq: bool = True):
        self.coordination = coordination
        self.spec = coordination.spec
        self.nodes = sorted(processes)
        self.max_violations = max_violations
        #: When True, a jump in sequence numbers is recorded as a gap
        #: (events lost upstream).  Turn off to accept re-sequenced or
        #: filtered streams the way the offline checker does.
        self.strict_seq = strict_seq

        #: σ per node and the REDUCE-folded seed a joiner starts from.
        self.replay = Replay(self.spec, self.nodes)
        self._node_set = set(self.nodes)
        #: Elastic membership: nodes that joined / left mid-stream.
        #: A joiner replays the whole transferred history through
        #: ordinary apply events, so applies of already-retired calls at
        #: a joined node are catch-up (tracked exactly in
        #: ``_joiner_caught``), not duplicates.
        self._joined: set[str] = set()
        self._departed: set[str] = set()
        #: joiner -> origin -> retired rids it has replayed (exact
        #: duplicate detection for the catch-up path).
        self._joiner_caught: dict[str, dict[str, _IntervalSet]] = {}
        #: In-window calls: issued/applied somewhere, not yet everywhere.
        self.inflight: dict[tuple[str, int], _CallState] = {}
        #: Retired request ids per origin (applied at every node).
        self.retired: dict[str, _IntervalSet] = {}
        self.retired_count = 0
        #: Per-(gid, node) monotone apply-position counters.
        self._group_counts: dict[tuple[str, str], int] = {}
        #: Per-gid per-node unretired group applies, in apply order.
        self._group_queues: dict[str, dict[str, list]] = {}
        #: Per-(gid, a, b) common in-window calls as (pos_a, pos_b, key)
        #: sorted by pos_a (a < b lexicographically).
        self._group_pairs: dict[tuple[str, str, str], list] = {}
        #: Bounded per-call causal-event cache backing violation chains.
        self._chains: dict[tuple[str, int], list[TraceEvent]] = {}
        self._retained = 0

        self.violations: list[Violation] = []
        self.faults: dict[str, int] = {}
        self.repairs: dict[str, int] = {}
        #: Gaps inferred from seq discontinuities: list of (first, last).
        self.gaps: list[tuple[int, int]] = []

        self.events_checked = 0
        self.calls_checked = 0
        self.applies_checked = 0
        self.peak_window = 0
        self.peak_retained = 0
        self.last_seq = -1
        self._expect: Optional[int] = None

    # -- feeding ---------------------------------------------------------

    def feed_many(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.feed(event)

    def feed(self, event: TraceEvent) -> None:
        seq = event.seq
        if self._expect is not None:
            if seq < self._expect:
                return  # already verified (checkpoint resume replay)
            if seq > self._expect and self.strict_seq:
                self.gaps.append((self._expect, seq - 1))
        self._expect = seq + 1
        self.last_seq = seq
        self.events_checked += 1

        # Spans and ring transfers carry no obligation and are most of
        # the stream: they leave before any per-call work.
        kind = event.kind
        if kind != "rule":
            if kind in ("fault", "repair"):
                tally = self.faults if kind == "fault" else self.repairs
                tally[event.name] = tally.get(event.name, 0) + 1
            elif kind == "member":
                self._member(event)
            return
        rule = event.name
        if rule == "QUERY":
            return

        node = event.node
        key = (event.origin, event.rid)
        self._chain_add(key, event)
        call = Call(event.method, event.arg, event.origin, event.rid)
        if node not in self._node_set:
            if node in self._departed:
                return  # trailing event from a scaled-in node
            self._violation(
                "vocabulary", f"event at unknown node {node!r}", key
            )
            return

        state = self.inflight.get(key)
        retired = (
            state is None
            and event.origin in self.retired
            and event.rid in self.retired[event.origin]
        )
        if state is None and not retired:
            self.calls_checked += 1

        if rule == "REDUCE":
            self.applies_checked += 1
            if retired or (state is not None and node in state.applied):
                self._violation(
                    "duplicate", f"{call} reduced twice at {node}", key
                )
                return
            # A summary write is visible at every node at once.
            for other in self.replay.reduce(call, self.nodes):
                self._violation(
                    "integrity",
                    f"{call} (REDUCE at {node}) breaks the "
                    f"invariant at {other}",
                    key,
                )
            if state is None:
                state = _CallState(first_seq=seq)
                self.inflight[key] = state
            state.applied = set(self.nodes)
            self._retire(key, state)
        elif rule in LOCAL_APPLY_RULES:
            self.applies_checked += 1
            if retired and node in self._joined:
                # Catch-up replay: the joiner drains the transferred
                # rings, re-emitting applies for calls the rest of the
                # cluster retired long ago.  Fold them (order comes
                # from the authoritative rings, already verified among
                # the incumbents) and dedup exactly per origin.
                caught = self._joiner_caught.setdefault(
                    node, {}
                ).setdefault(event.origin, _IntervalSet())
                if event.rid in caught:
                    self._violation(
                        "duplicate",
                        f"{call} applied twice at {node} (rule {rule})",
                        key,
                    )
                    return
                caught.add(event.rid)
                if not self.replay.step(call, node):
                    self._violation(
                        "integrity",
                        f"{call} not permissible at its apply state "
                        f"({rule} at {node}, catch-up)",
                        key,
                    )
                return
            if retired or (state is not None and node in state.applied):
                self._violation(
                    "duplicate",
                    f"{call} applied twice at {node} (rule {rule})",
                    key,
                )
                return
            if state is None:
                state = _CallState(first_seq=seq)
                self.inflight[key] = state
                if len(self.inflight) > self.peak_window:
                    self.peak_window = len(self.inflight)
            if not self.replay.step(call, node):
                self._violation(
                    "integrity",
                    f"{call} not permissible at its apply state "
                    f"({rule} at {node})",
                    key,
                )
            state.applied.add(node)
            if rule in ("CONF", "CONF_APP"):
                group = self.coordination.sync_group(event.method)
                if group is None:
                    self._violation(
                        "vocabulary",
                        f"{rule} event for conflict-free method "
                        f"{event.method!r} at {node}",
                        key,
                    )
                else:
                    self._group_apply(group.gid, node, key, state)
            if len(state.applied) == len(self.nodes):
                if state.gid:
                    self._drain_group(state.gid)
                else:
                    self._retire(key, state)
        else:
            self._violation(
                "vocabulary", f"unknown rule {rule!r} at {node}", key
            )

    # -- elastic membership ----------------------------------------------

    def _member(self, event: TraceEvent) -> None:
        """Evolve the roster at a ``member`` trace event.

        ``member_join`` seeds the joiner's replayed state from the
        running REDUCE fold (its state transfer pulls the summary
        slots); its apply events then replay the transferred history.
        ``member_leave`` excuses the node from convergence: in-window
        calls stop waiting for it, and its group-order structures drop.
        """
        subject = event.origin
        if event.name == "member_join":
            if subject in self._node_set:
                return
            self._node_set.add(subject)
            self.nodes = sorted(self._node_set)
            self._joined.add(subject)
            self._departed.discard(subject)
            self.replay.join(subject)
        elif event.name == "member_leave":
            if subject not in self._node_set:
                return
            self._node_set.discard(subject)
            self.nodes = sorted(self._node_set)
            self._departed.add(subject)
            self.replay.sigma.pop(subject, None)
            self._joiner_caught.pop(subject, None)
            self._drop_node(subject)
        # state_xfer and friends are informational

    def _drop_node(self, name: str) -> None:
        """Sweep the window after ``name`` left the cluster."""
        for queues in self._group_queues.values():
            queues.pop(name, None)
        self._group_counts = {
            (gid, node): count
            for (gid, node), count in self._group_counts.items()
            if node != name
        }
        self._group_pairs = {
            (gid, a, b): pairs
            for (gid, a, b), pairs in self._group_pairs.items()
            if name not in (a, b)
        }
        for state in self.inflight.values():
            state.applied.discard(name)
            state.group_pos.pop(name, None)
        # Conflict-free calls now applied at every remaining node retire;
        # group calls retire through the usual common-prefix drain.
        for key, state in list(self.inflight.items()):
            if not state.gid and len(state.applied) == len(self.nodes):
                self._retire(key, state)
        for gid in list(self._group_queues):
            self._drain_group(gid)

    # -- sync-group total order (obligation 2, incremental) --------------

    def _group_apply(self, gid: str, node: str, key: tuple[str, int],
                     state: _CallState) -> None:
        pos = self._group_counts.get((gid, node), 0)
        self._group_counts[(gid, node)] = pos + 1
        state.gid = gid
        state.group_pos[node] = pos
        self._group_queues.setdefault(gid, {}).setdefault(
            node, []
        ).append(key)
        for other, other_pos in state.group_pos.items():
            if other == node:
                continue
            if node < other:
                a, b, pos_a, pos_b = node, other, pos, other_pos
            else:
                a, b, pos_a, pos_b = other, node, other_pos, pos
            pairs = self._group_pairs.setdefault((gid, a, b), [])
            entry = (pos_a, pos_b, key)
            index = bisect.bisect_left(pairs, entry)
            # The existing common set is pos_b-monotone in pos_a order,
            # so the new call is an inversion iff it breaks monotonicity
            # against an immediate neighbour.
            if index > 0 and pairs[index - 1][1] > pos_b:
                self._order_violation(gid, a, b, key, pairs[index - 1][2])
            elif index < len(pairs) and pairs[index][1] < pos_b:
                self._order_violation(gid, a, b, pairs[index][2], key)
            pairs.insert(index, entry)

    def _order_violation(self, gid: str, a: str, b: str,
                         earlier: tuple[str, int],
                         later: tuple[str, int]) -> None:
        self._violation(
            "order",
            f"sync group {gid}: {a} applied {_key_str(earlier)} before "
            f"{_key_str(later)} but {b} applied them in the opposite "
            f"order",
            later, earlier,
        )

    def _drain_group(self, gid: str) -> None:
        """Retire the group's verified common prefix.

        A group call leaves the window only when it heads *every*
        node's unretired apply order and is applied everywhere — so a
        retired call can never be the missing half of a future
        inversion, and the pairwise structures shrink from the front.
        """
        queues = self._group_queues.get(gid)
        if queues is None:
            return
        while True:
            if len(queues) < len(self.nodes):
                return  # some node has not applied any group call yet
            heads = {queue[0] if queue else None for queue in queues.values()}
            if len(heads) != 1:
                return
            (head,) = heads
            if head is None:
                return
            state = self.inflight.get(head)
            if state is None or len(state.applied) < len(self.nodes):
                return
            for node, queue in queues.items():
                queue.pop(0)
                other_nodes = [m for m in state.group_pos if m != node]
                for other in other_nodes:
                    a, b = (node, other) if node < other else (other, node)
                    pairs = self._group_pairs.get((gid, a, b))
                    if not pairs:
                        continue
                    pos_a = state.group_pos[a]
                    index = bisect.bisect_left(pairs, (pos_a,))
                    if index < len(pairs) and pairs[index][2] == head:
                        pairs.pop(index)
            self._retire(head, state)

    # -- retirement ------------------------------------------------------

    def _retire(self, key: tuple[str, int], state: _CallState) -> None:
        self.retired.setdefault(key[0], _IntervalSet()).add(key[1])
        self.retired_count += 1
        self.inflight.pop(key, None)
        chain = self._chains.pop(key, None)
        if chain is not None:
            self._retained -= len(chain)

    def verified_seq(self) -> int:
        """The checkpointed frontier: every event at or below this
        sequence number belongs to a fully verified (retired) prefix or
        the serialized window."""
        if not self.inflight:
            return self.last_seq
        return min(s.first_seq for s in self.inflight.values()) - 1

    # -- chains ----------------------------------------------------------

    def _chain_add(self, key: tuple[str, int], event: TraceEvent) -> None:
        chain = self._chains.get(key)
        if chain is None:
            if len(self._chains) > max(256, 4 * len(self.inflight) + 64):
                self._prune_chains()
            chain = self._chains[key] = []
        chain.append(event)
        self._retained += 1
        if len(chain) > _CHAIN_LIMIT:
            chain.pop(0)
            self._retained -= 1
        if self._retained > self.peak_retained:
            self.peak_retained = self._retained

    def _prune_chains(self) -> None:
        """Evict cached chains of calls that never became (or are no
        longer) in-window — e.g. span events whose rule event was lost
        to a gap — oldest first."""
        excess = len(self._chains) - max(128, 2 * len(self.inflight) + 32)
        if excess <= 0:
            return
        for key in list(self._chains):
            if excess <= 0:
                break
            if key in self.inflight:
                continue
            self._retained -= len(self._chains.pop(key))
            excess -= 1

    def _chain(self, key: tuple[str, int]) -> list[TraceEvent]:
        return list(self._chains.get(key, ()))

    def _violation(self, kind: str, message: str,
                   *keys: tuple[str, int]) -> None:
        if len(self.violations) < self.max_violations:
            chain = [event for key in keys for event in self._chain(key)]
            self.violations.append(Violation(kind, message, chain))

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Live progress counters (sampled by the metrics emitter)."""
        return {
            "events": self.events_checked,
            "calls": self.calls_checked,
            "applies": self.applies_checked,
            "violations": len(self.violations),
            "window": len(self.inflight),
            "retained_events": self._retained,
            "peak_window": self.peak_window,
            "peak_retained_events": self.peak_retained,
            "retired": self.retired_count,
            "verified_seq": self.verified_seq(),
            "last_seq": self.last_seq,
            "gaps": len(self.gaps),
        }

    def finish(self, dropped: int = 0,
               gaps: Iterable[tuple] = ()) -> CheckReport:
        """Close the stream and return the verdict.

        ``dropped``/``gaps`` fold in drop accounting from an upstream
        recorder (tap mode sees every event, so both default to zero);
        gaps the checker inferred from sequence discontinuities are
        reported either way.  Like the offline checker, a stream with
        losses cannot attest convergence — integrity, order, and
        duplicate findings stand regardless.
        """
        report = CheckReport(nodes=list(self.nodes), label="stream check")
        report.calls_checked = self.calls_checked
        report.applies_checked = self.applies_checked
        report.violations = list(self.violations)
        report.faults = dict(self.faults)
        report.repairs = dict(self.repairs)
        if not self.nodes:
            if not self._departed:
                report.violations.append(
                    Violation("vocabulary", "empty trace: no nodes recorded")
                )
            return report
        all_gaps = [(int(g[0]), int(g[1])) for g in self.gaps]
        all_gaps += [(int(g[0]), int(g[1])) for g in gaps]
        missing = sum(hi - lo + 1 for lo, hi in self.gaps)
        if dropped or all_gaps:
            report.violations.append(Violation(
                "truncated",
                f"stream dropped {dropped or missing} event(s)"
                f"{gap_detail(all_gaps)}: cannot attest convergence",
            ))
            return report
        union = set(self.inflight)
        for node in self.nodes:
            node_missing = sorted(
                key for key, state in self.inflight.items()
                if node not in state.applied
            )
            for key in node_missing[:3]:
                report.violations.append(Violation(
                    "convergence",
                    f"{node} never applied {key[0]}#{key[1]} "
                    f"({len(node_missing)} call(s) missing at {node})",
                    self._chain(key),
                ))
        fully_applied = all(
            len(state.applied) == len(self.nodes)
            for state in self.inflight.values()
        )
        if union and not fully_applied:
            return report
        report.violations.extend(
            Violation("convergence", message)
            for message in self.replay.divergence(self.nodes)
        )
        return report

    # -- convenience entry points ----------------------------------------

    def check(self, events: Iterable[TraceEvent], dropped: int = 0,
              gaps: Iterable[tuple] = ()) -> CheckReport:
        """Feed a whole (ordered) event sequence and finish."""
        self.feed_many(events)
        return self.finish(dropped=dropped, gaps=gaps)

    def check_jsonl(self, path: str) -> CheckReport:
        """Tail a JSONL trace file with bounded memory."""
        dropped = 0
        gaps: list = []
        for record in iter_jsonl(path):
            if isinstance(record, dict):  # the meta line
                dropped = record.get("dropped", 0)
                gaps = [tuple(g[:2]) for g in record.get("gaps", [])]
                continue
            self.feed(record)
        return self.finish(dropped=dropped, gaps=gaps)

    # -- checkpoint / resume ---------------------------------------------

    def checkpoint(self) -> CheckpointState:
        """Snapshot the full checker state as deterministic JSON."""
        payload: dict[str, Any] = {
            "events_checked": self.events_checked,
            "calls_checked": self.calls_checked,
            "applies_checked": self.applies_checked,
            "peak_window": self.peak_window,
            "peak_retained": self.peak_retained,
            "retired_count": self.retired_count,
            "last_seq": self.last_seq,
            "sigma": {
                node: _pack(state)
                for node, state in self.replay.sigma.items()
            },
            "retired": {
                origin: [list(span) for span in spans.spans]
                for origin, spans in sorted(self.retired.items())
            },
            "group_counts": {
                f"{gid}|{node}": count
                for (gid, node), count in sorted(self._group_counts.items())
            },
            "group_queues": {
                gid: {
                    node: [_key_str(key) for key in queue]
                    for node, queue in sorted(queues.items())
                }
                for gid, queues in sorted(self._group_queues.items())
            },
            "group_pairs": {
                f"{gid}|{a}|{b}": [
                    [pos_a, pos_b, _key_str(key)]
                    for pos_a, pos_b, key in pairs
                ]
                for (gid, a, b), pairs in sorted(self._group_pairs.items())
            },
            "inflight": {
                _key_str(key): {
                    "first_seq": state.first_seq,
                    "gid": state.gid,
                    "applied": sorted(state.applied),
                    "group_pos": dict(sorted(state.group_pos.items())),
                }
                for key, state in sorted(self.inflight.items())
            },
            "chains": {
                _key_str(key): [event_to_dict(e) for e in chain]
                for key, chain in sorted(self._chains.items())
            },
            "violations": [
                {
                    "kind": v.kind,
                    "message": v.message,
                    "chain": [event_to_dict(e) for e in v.chain],
                }
                for v in self.violations
            ],
            "faults": dict(sorted(self.faults.items())),
            "repairs": dict(sorted(self.repairs.items())),
            "gaps": [list(gap) for gap in self.gaps],
            "joined": sorted(self._joined),
            "departed": sorted(self._departed),
            "reduce_sigma": _pack(self.replay.seed),
            "joiner_caught": {
                joiner: {
                    origin: [list(span) for span in spans.spans]
                    for origin, spans in sorted(per_origin.items())
                }
                for joiner, per_origin in sorted(self._joiner_caught.items())
            },
        }
        return CheckpointState(
            spec_name=self.spec.name,
            nodes=list(self.nodes),
            next_seq=self._expect if self._expect is not None else 0,
            payload=payload,
        )

    @classmethod
    def resume(cls, coordination: Coordination,
               checkpoint: CheckpointState,
               max_violations: int = 25,
               strict_seq: bool = True) -> "StreamingChecker":
        """Rebuild a checker from a checkpoint; feeding it the stream
        from the beginning (or from the checkpoint) reaches the same
        verdict as an uninterrupted run."""
        if checkpoint.spec_name != coordination.spec.name:
            raise ValueError(
                f"checkpoint is for spec {checkpoint.spec_name!r}, "
                f"not {coordination.spec.name!r}"
            )
        checker = cls(
            coordination, processes=checkpoint.nodes,
            max_violations=max_violations, strict_seq=strict_seq,
        )
        payload = checkpoint.payload
        checker.events_checked = payload["events_checked"]
        checker.calls_checked = payload["calls_checked"]
        checker.applies_checked = payload["applies_checked"]
        checker.peak_window = payload["peak_window"]
        checker.peak_retained = payload["peak_retained"]
        checker.retired_count = payload["retired_count"]
        checker.last_seq = payload["last_seq"]
        checker._expect = checkpoint.next_seq
        checker.replay.sigma = {
            node: _unpack(data) for node, data in payload["sigma"].items()
        }
        checker.retired = {
            origin: _IntervalSet([list(span) for span in spans])
            for origin, spans in payload["retired"].items()
        }
        checker._group_counts = {}
        for key_text, count in payload["group_counts"].items():
            gid, _, node = key_text.rpartition("|")
            checker._group_counts[(gid, node)] = count
        checker._group_queues = {
            gid: {
                node: [_key_from_str(text) for text in queue]
                for node, queue in queues.items()
            }
            for gid, queues in payload["group_queues"].items()
        }
        checker._group_pairs = {}
        for key_text, pairs in payload["group_pairs"].items():
            gid, a, b = key_text.rsplit("|", 2)
            checker._group_pairs[(gid, a, b)] = [
                (pos_a, pos_b, _key_from_str(text))
                for pos_a, pos_b, text in pairs
            ]
        checker.inflight = {}
        for key_text, state in payload["inflight"].items():
            checker.inflight[_key_from_str(key_text)] = _CallState(
                first_seq=state["first_seq"],
                gid=state["gid"],
                applied=set(state["applied"]),
                group_pos=dict(state["group_pos"]),
            )
        checker._chains = {}
        checker._retained = 0
        for key_text, chain in payload["chains"].items():
            events = [event_from_dict(record) for record in chain]
            checker._chains[_key_from_str(key_text)] = events
            checker._retained += len(events)
        checker.violations = [
            Violation(
                record["kind"],
                record["message"],
                [event_from_dict(e) for e in record["chain"]],
            )
            for record in payload["violations"]
        ]
        checker.faults = dict(payload["faults"])
        checker.repairs = dict(payload["repairs"])
        checker.gaps = [tuple(gap) for gap in payload["gaps"]]
        checker._joined = set(payload.get("joined", []))
        checker._departed = set(payload.get("departed", []))
        reduce_sigma = payload.get("reduce_sigma")
        if reduce_sigma is not None:
            checker.replay.seed = _unpack(reduce_sigma)
        checker._joiner_caught = {
            joiner: {
                origin: _IntervalSet([list(span) for span in spans])
                for origin, spans in per_origin.items()
            }
            for joiner, per_origin in payload.get("joiner_caught", {}).items()
        }
        return checker
