"""The trace-checker core: verify a run *while* it executes.

:class:`StreamingChecker` is the one implementation of the three
obligations (Lemma-1 integrity, one total order per synchronization
group, Lemma-2 convergence), as an *incremental, windowed* analysis in
the style of replication-aware linearizability (Enea et al.): the
obligations compose per object, so it is sound to verify them over a
bounded window of in-flight calls and discard the verified prefix.
Two drivers feed it events in global sequence order: the live tap
(:meth:`~repro.runtime.trace.TraceRecorder.stream_to`, or a JSONL
tail), and the offline :meth:`~repro.runtime.checker.TraceChecker.
check`, which hands it a whole recorded trace (``strict_seq=False``).
Memory is bounded by the *window* (calls issued but not yet applied
everywhere), not the trace:

- a call **retires** once every member has applied it (a REDUCE at
  once — a summary write is visible everywhere); its rule events, apply
  bookkeeping and sync-group entries go, and only a per-origin interval
  set of retired request ids stays (exact dedup in O(gaps) memory);
- sync-group total order is checked pairwise *as applies arrive*: per
  node pair, the common in-window calls are kept sorted by one node's
  apply position, and a new common call is an inversion exactly when
  it breaks monotonicity against a neighbour.  Group calls retire in
  common-prefix order, so an inversion always surfaces while both
  calls are still in the window; the order they retired in is kept
  run-length encoded (a run per leader term) for the nodes that apply
  a call only *after* it retired;
- those are a joiner, which *owes* the history retired before it joined
  (a snapshot of the interval sets, filled in as it catches up, in the
  retired order, due at :meth:`finish`), and a leaver, which gates
  nothing and owes no convergence once it left but stays held — by its
  own ledger, replayed state and group positions — to dedup, integrity
  and order for whatever it applied or still applies;
- convergence is asserted at :meth:`finish` over the residual window —
  every retired call was applied everywhere by construction.

A jump in ``seq`` means events were lost upstream (a
:class:`TracingProbe` ring drop): the checker reports ``gap at seq
N..M`` and declines to attest convergence, as it does for a trace the
recorder truncated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..core import Call, Coordination
from ..core.replay import Replay
from .checker import CheckReport, Violation
from .trace import TraceEvent, gap_detail, iter_jsonl

__all__ = ["StreamingChecker"]

#: Rules that mutate σ at exactly the event's node.
LOCAL_APPLY_RULES = ("FREE", "CONF", "FREE_APP", "CONF_APP")
#: Per-call causal-chain cap: violations carry at most this many of the
#: call's most recent rule events (the offline driver widens them to
#: every event of the call from the trace it holds — the core cannot).
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
        # spans[:index] start at or below ``value``, spans[index:] above
        index = bisect.bisect_right(spans, [value, float("inf")])
        if index > 0 and spans[index - 1][1] >= value:
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
        return index > 0 and spans[index - 1][1] >= value

    def __len__(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.spans)

    def copy(self) -> "_IntervalSet":
        return _IntervalSet([list(span) for span in self.spans])


@dataclass
class _CallState:
    """Bookkeeping for one in-window (not yet fully replicated) call."""

    first_seq: int
    gid: str = ""
    applied: set[str] = field(default_factory=set)
    #: Node -> this call's position in that node's per-group apply order.
    group_pos: dict[str, int] = field(default_factory=dict)


@dataclass
class _Owed:
    """What a joiner owes one origin: the ``rids`` retired when it
    joined — ``reduces`` of them REDUCEs, which reach it as state and
    never as applies — and the ones it has ``caught`` up on so far."""

    rids: _IntervalSet
    reduces: int = 0
    caught: _IntervalSet = field(default_factory=_IntervalSet)


class StreamingChecker:
    """Incremental trace checker with bounded (window-sized) memory.

    >>> checker = StreamingChecker(cluster.coordination,
    ...                            processes=cluster.node_names())
    >>> recorder.stream_to(checker.feed)   # tap the live probes
    ... # drive the cluster ...
    >>> report = checker.finish()          # CheckReport, like offline

    Events must arrive in nondecreasing ``seq`` order (the recorder's
    shared counter guarantees this for a tapped run; JSONL exports are
    written in that order); nothing but gap accounting depends on
    ``seq``.
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
        #: (events lost upstream): the live tap.  Off for re-sequenced
        #: or filtered streams: the offline and per-shard drivers.
        self.strict_seq = strict_seq

        #: σ per node and the REDUCE-folded seed a joiner starts from.
        self.replay = Replay(self.spec, self.nodes)
        #: A joiner replays the transferred history through ordinary
        #: apply events: joiner -> origin -> what it owes, snapshotted
        #: from ``retired`` at its ``member_join``.  Only those rids pass
        #: as catch-up, and all of them are due by :meth:`finish`.
        self._joiners: dict[str, dict[str, _Owed]] = {}
        #: A leaver gates nothing and owes no convergence, but what it
        #: applies is still held to dedup, integrity and order: leaver
        #: -> origin -> the rids it has applied.
        self._departed: dict[str, dict[str, _IntervalSet]] = {}
        #: In-window calls: issued/applied somewhere, not yet everywhere.
        self.inflight: dict[tuple[str, int], _CallState] = {}
        #: Retired request ids per origin (applied at every node).
        self.retired: dict[str, _IntervalSet] = {}
        self.retired_count = 0
        #: How many of each origin's retired calls were REDUCEs.
        self._reduced: dict[str, int] = {}
        #: Per-(gid, node) monotone apply-position counters.
        self._group_counts: dict[tuple[str, str], int] = {}
        #: Per-gid per-node unretired group applies, in apply order.
        self._group_queues: dict[str, dict[str, list]] = {}
        #: Per-(gid, a, b) common in-window calls as (pos_a, pos_b, key)
        #: sorted by pos_a (a < b lexicographically).
        self._group_pairs: dict[tuple[str, str, str], list] = {}
        #: Per-gid retired order, run-length encoded: ``[origin, lo, hi]``
        #: is a stretch of one origin's calls retired in rising rid
        #: order (a leader's term, typically).  ``_group_tops``: the
        #: highest rid retired per (gid, origin); ``_group_cursor``: the
        #: latest-retired call each (gid, node) applied, as (rank, key).
        self._group_runs: dict[str, list[list]] = {}
        self._group_tops: dict[tuple[str, str], int] = {}
        self._group_cursor: dict[tuple[str, str], tuple] = {}
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
        if (self._expect is not None and seq > self._expect
                and self.strict_seq):
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
        origin, rid = key = (event.origin, event.rid)
        self._chain_add(key, event)
        call = Call(event.method, event.arg, origin, rid)
        ledger = self._departed.get(node)
        if ledger is None and node not in self.nodes:
            self._violation(
                "vocabulary", f"event at unknown node {node!r}", key
            )
            return

        state = self.inflight.get(key)
        retired = state is None and rid in self.retired.get(origin, ())
        if state is None and not retired:
            self.calls_checked += 1

        if rule == "REDUCE":
            self.applies_checked += 1
            if retired or state is not None:
                # A REDUCE is its call's one apply, at every node at once.
                self._violation(
                    "duplicate",
                    f"{call} reduced at {node} over an earlier apply", key,
                )
                if retired or node in state.applied:
                    return
            for other in self.replay.reduce(call, self.nodes):
                self._violation(
                    "integrity",
                    f"{call} (REDUCE at {node}) breaks the "
                    f"invariant at {other}",
                    key,
                )
            self._reduced[origin] = self._reduced.get(origin, 0) + 1
            self._retire(key, state or _CallState(first_seq=seq))
            if state is not None and state.gid:
                self._drain_group(state.gid)
        elif rule in LOCAL_APPLY_RULES:
            self.applies_checked += 1
            if ledger is None:
                done = retired or (state is not None and node in state.applied)
            else:
                done = rid in ledger.get(origin, ())
            # Catch-up: a joiner drains the transferred rings, re-emitting
            # applies for calls the cluster retired before it joined.
            owed = done and self._joiners.get(node, {}).get(origin)
            if owed and rid in owed.rids and rid not in owed.caught:
                owed.caught.add(rid)
            elif done:
                self._violation(
                    "duplicate",
                    f"{call} applied twice at {node} (rule {rule})",
                    key,
                )
                return
            elif ledger is not None:
                ledger.setdefault(origin, _IntervalSet()).add(rid)
            if state is None and not retired:
                state = self.inflight[key] = _CallState(first_seq=seq)
                self.peak_window = max(self.peak_window, len(self.inflight))
            if state is not None and ledger is None:
                state.applied.add(node)
            if not self.replay.step(call, node):
                self._violation(
                    "integrity",
                    f"{call} not permissible at its apply state "
                    f"({rule} at {node})",
                    key,
                )
            if rule in ("CONF", "CONF_APP"):
                group = self.coordination.sync_group(event.method)
                gid = group.gid if group is not None else ""
                mine = state.gid if state is not None else ""
                if not gid or mine not in ("", gid):
                    self._violation(
                        "vocabulary",
                        f"{rule} event at {node} for {event.method!r}, which "
                        f"is not of this call's sync group ({mine or 'none'})",
                        key,
                    )
                elif state is None:
                    self._late_group_apply(gid, node, key)
                else:
                    self._group_apply(gid, node, key, state)
            if state is not None and len(state.applied) == len(self.nodes):
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
        slots) and records what it owes: every call retired so far,
        which its apply events must now replay.  After ``member_leave``
        nothing waits for the node or holds it to convergence, but what
        it applied, and still applies, binds as before: its replayed
        state and group positions stay, its applied set is its ledger.
        """
        subject = event.origin
        if event.name == "member_join":
            if subject in self.nodes:
                return
            self.nodes = sorted([*self.nodes, subject])
            self._departed.pop(subject, None)  # a leaver, back afresh
            for gid in self._group_runs:
                self._group_cursor.pop((gid, subject), None)
            self.replay.join(subject)
            self._joiners[subject] = {
                origin: _Owed(rids.copy(), self._reduced.get(origin, 0))
                for origin, rids in sorted(self.retired.items())
            }
        elif event.name == "member_leave":
            if subject not in self.nodes:
                return
            self.nodes = [node for node in self.nodes if node != subject]
            ledger = self._departed[subject] = {
                origin: rids.copy()
                for origin, rids in sorted(self.retired.items())
            }
            # Conflict-free calls now applied at every remaining node
            # retire; group calls through the common-prefix drain.
            for key, state in list(self.inflight.items()):
                if subject in state.applied:
                    state.applied.discard(subject)
                    ledger.setdefault(key[0], _IntervalSet()).add(key[1])
                if not state.gid and len(state.applied) == len(self.nodes):
                    self._retire(key, state)
            for gid in self._group_queues:
                self._drain_group(gid)
        # state_xfer and friends are informational

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
                self._order_violation(gid, a, b, pairs[index - 1][2], key)
            elif index < len(pairs) and pairs[index][1] < pos_b:
                self._order_violation(gid, a, b, key, pairs[index][2])
            pairs.insert(index, entry)

    def _late_group_apply(self, gid: str, node: str,
                          key: tuple[str, int]) -> None:
        """``node`` applies a group call the members already retired (a
        joiner catching up, a leaver's straggler).  It must extend the
        retired order: after every retired call ``node`` applied, and
        not after one it applied that is still in the window."""
        origin, rid = key
        runs = self._group_runs.get(gid, ())
        # An out-of-order rid sits in a later run than the stretch whose
        # span covers it, never an earlier one: the latest match is it.
        for index in range(len(runs) - 1, -1, -1):
            who, lo, hi = runs[index]
            if who == origin and lo <= rid <= hi:
                break
        else:
            return  # did not retire as a call of this group
        rank = (index, rid)
        queue = self._group_queues.get(gid, {}).get(node)
        last = self._group_cursor.get((gid, node), ((-1,), None))
        if queue or rank < last[0]:
            self._order_violation(
                gid, node, "the members", queue[0] if queue else last[1], key
            )
        else:
            self._group_cursor[(gid, node)] = (rank, key)

    def _order_violation(self, gid: str, a: str, b: str,
                         earlier: tuple[str, int],
                         later: tuple[str, int]) -> None:
        self._violation(
            "order",
            f"sync group {gid}: {a} applied {earlier[0]}#{earlier[1]} "
            f"before {later[0]}#{later[1]} but {b} applied them in the "
            f"opposite order",
            earlier, later,
        )

    def _drain_group(self, gid: str) -> None:
        """Retire the group's verified common prefix: a group call
        leaves the window only when every member applied it and it
        heads the unretired apply order of *every* node that applied
        it, a departed member's included — so a retired call can never
        be the missing half of a future inversion, and the pairwise
        structures shrink from the front."""
        queues = self._group_queues.get(gid)
        while queues and self.nodes:
            queue = queues.get(self.nodes[0])
            if not queue:
                return  # nothing unretired at this member
            head = queue[0]
            state = self.inflight.get(head)
            if (state is None or len(state.applied) < len(self.nodes)
                    or any(queues[a][0] != head for a in state.group_pos)):
                return
            self._retire(head, state)

    # -- retirement ------------------------------------------------------

    def _retire(self, key: tuple[str, int], state: _CallState) -> None:
        origin, rid = key
        self.retired.setdefault(origin, _IntervalSet()).add(rid)
        self.retired_count += 1
        self.inflight.pop(key, None)
        chain = self._chains.pop(key, None)
        if chain is not None:
            self._retained -= len(chain)
        gid = state.gid
        if not gid:
            return
        # A group call also leaves its appliers' queues (at the head,
        # on the drain path) and pair lists, and extends the group's
        # retired order, which every applier has now followed this far.
        runs = self._group_runs.setdefault(gid, [])
        top = self._group_tops.get((gid, origin), -1)
        if runs and runs[-1][0] == origin and runs[-1][2] == top < rid:
            runs[-1][2] = rid
        else:
            runs.append([origin, rid, rid])
        self._group_tops[(gid, origin)] = max(top, rid)
        appliers = sorted(state.group_pos)
        for index, a in enumerate(appliers):
            self._group_queues[gid][a].remove(key)
            self._group_cursor[(gid, a)] = ((len(runs) - 1, rid), key)
            for b in appliers[index + 1:]:
                self._group_pairs[(gid, a, b)].remove(
                    (state.group_pos[a], state.group_pos[b], key)
                )

    def verified_seq(self) -> int:
        """The verified frontier: every event at or below this sequence
        number belongs to a fully verified (retired) prefix."""
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
        for key in list(self._chains):
            if excess <= 0:
                break
            if key in self.inflight:
                continue
            self._retained -= len(self._chains.pop(key))
            excess -= 1

    def _violation(self, kind: str, message: str,
                   *keys: tuple[str, int]) -> None:
        # Capped per kind: a flood of one never hides another.
        if sum(v.kind == kind for v in self.violations) < self.max_violations:
            chain = [e for key in keys for e in self._chains.get(key, ())]
            self.violations.append(Violation(kind, message, chain, keys))

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
        reported either way.  A stream with losses cannot attest
        convergence — integrity, order, and duplicate findings stand
        regardless.  Integrity was stepped on the spec's declared
        deltas, so the whole-state invariant is evaluated once per node
        here (:meth:`Replay.audit`): a delta that broke its contract is
        an ``integrity`` violation naming the last method stepped there.
        """
        report = CheckReport(
            list(self.nodes), self.calls_checked, self.applies_checked,
            list(self.violations), dict(self.faults), dict(self.repairs),
            label="stream check",
        )
        report.violations.extend(
            Violation("integrity", message) for message in self.replay.audit()
        )
        if not self.nodes:
            if not self._departed:
                report.violations.append(
                    Violation("vocabulary", "empty trace: no nodes recorded")
                )
            return report
        all_gaps = [(int(g[0]), int(g[1])) for g in (*self.gaps, *gaps)]
        missing = sum(hi - lo + 1 for lo, hi in self.gaps)
        if dropped or all_gaps:
            report.violations.append(Violation(
                "truncated",
                f"stream dropped {dropped or missing} event(s)"
                f"{gap_detail(all_gaps)}: cannot attest convergence "
                "(raise the recorder capacity)",
            ))
            return report
        behind = False
        for node in self.nodes:
            node_missing = sorted(
                key for key, state in self.inflight.items()
                if node not in state.applied
            )
            behind = behind or bool(node_missing)
            for key in node_missing[:3]:
                report.violations.append(Violation(
                    "convergence",
                    f"{node} never applied {key[0]}#{key[1]} "
                    f"({len(node_missing)} call(s) missing at {node})",
                    list(self._chains.get(key, ())), (key,),
                ))
        # A joiner also owes the history that retired before it joined.
        for joiner, owes in sorted(self._joiners.items()):
            for origin, owed in sorted(owes.items()):
                short = len(owed.rids) - owed.reduces - len(owed.caught)
                if short <= 0 or joiner not in self.nodes:
                    continue
                behind = True
                if owed.reduces:  # which owed rids were REDUCEs is not kept
                    what, calls = f"{short} call(s)", ()
                else:
                    rid = next(
                        rid for lo, hi in owed.rids.spans
                        for rid in range(lo, hi + 1) if rid not in owed.caught
                    )
                    what = f"{origin}#{rid} ({short} call(s) in all)"
                    calls = ((origin, rid),)
                report.violations.append(Violation(
                    "convergence",
                    f"{joiner} never applied {what} of the history "
                    f"{origin} had retired when it joined",
                    calls=calls,
                ))
        if behind:
            return report  # states legitimately differ
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
