"""Flight recorder: causal event tracing over the probe seam.

PR 1 threaded a :class:`~repro.runtime.probe.RuntimeProbe` through all
four runtime layers but only backed it with flat counters.  This module
turns the seam into a real observability layer:

- :class:`TracingProbe` — a per-node probe recording sim-timestamped
  structured :class:`TraceEvent`\\ s into a bounded ring buffer: one
  *rule* event per concrete-semantics transition that became visible in
  σ (REDUCE / FREE / CONF / FREE_APP / CONF_APP / QUERY), begin/end
  *span* events for per-call lifecycle phases (invoke → propagate →
  decide → apply → … → visible, where "visible" is the rule instant),
  and *transfer* events for payload bytes crossing a ring.  Span pairs
  feed per-phase latency :class:`~repro.workload.Histogram`\\ s.
- :class:`TraceRecorder` — the cluster-side aggregator: hand its
  :meth:`~TraceRecorder.probe_factory` to
  :meth:`~repro.runtime.HambandCluster.build` and every node records
  into one globally sequenced trace.
- :class:`TraceView` — what ``events()`` returns: a read-only,
  ``seq``-ordered view over one or more rings.
- Exporters — newline-delimited JSON (:func:`export_jsonl`, one event
  per line, deterministic bytes for a deterministic run) and the Chrome
  ``trace_event`` format (:func:`export_chrome_trace`, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev, with flow arrows
  linking each call's issue event to its applies — the causal chain).

The offline integrity/convergence analyzer over recorded traces lives
in :mod:`repro.runtime.checker`.

Probes must never change runtime behaviour: :class:`TracingProbe` adds
no simulated delays and stores each event as columns — ``seq``, ``t``,
``rid`` and ``size`` in :mod:`array` columns, the argument in a list,
and ``(node, kind, name, method, origin, gid)`` as an interned *site*
id — so a retained event costs its fields (~40 B), not an 11-field
tuple.  No object is built per hook unless a live tap is attached (the
tap gets one :class:`TraceEvent` per hook); a view materializes the
rows it hands out, each equal to, not the same object as, the row any
other read returns.  The ring drops the *oldest* events once full (the
``dropped`` counter records how many — the offline checker refuses to
attest convergence for a truncated trace).
"""

from __future__ import annotations

import base64
import itertools
import json
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import eq, itemgetter
from typing import (
    Any, Callable, Iterable, Iterator, NamedTuple, Optional, TextIO,
)

from ..workload.metrics import Histogram
from .probe import CountingProbe
from .wire import WireError, decode_value, encode_value

__all__ = [
    "ShardedRecorder",
    "TraceEvent",
    "TraceView",
    "TracingProbe",
    "TraceRecorder",
    "export_chrome_trace",
    "export_jsonl",
    "iter_jsonl",
    "load_jsonl",
]

#: Canonical lifecycle phase order (also the Chrome-export lane order).
PHASES = ("invoke", "propagate", "decide", "apply")

#: The concrete-semantics rule vocabulary recorded by rule events.
RULES = ("REDUCE", "FREE", "CONF", "FREE_APP", "CONF_APP", "QUERY")


class TraceEvent(NamedTuple):
    """One recorded probe event (immutable).

    ``kind`` is ``"rule"`` (a transition became visible in σ at
    ``node``), ``"B"``/``"E"`` (a lifecycle span began/ended), or
    ``"xfer"`` (payload bytes crossed a ring).  ``name`` holds the rule
    name, the phase, or the ring label respectively.  ``(origin, rid)``
    is the call's globally unique identity (``rid == 0`` for queries);
    ``arg`` rides along on rule events so the offline checker can
    replay state.  Derive a modified copy with ``event._replace(...)``.
    """

    seq: int
    t: float
    node: str
    kind: str
    name: str
    method: str
    origin: str
    rid: int
    gid: str = ""
    size: int = 0
    arg: Any = None

    def call_id(self) -> str:
        return f"{self.origin}#{self.rid}"


#: What ``TraceEvent(...)`` calls, minus its generated Python-level
#: ``__new__`` frame: the tap and the views build rows here.
_new_event = tuple.__new__
_BY_SEQ = itemgetter(0)


def _merge_phases(tables: Iterable[dict[str, Histogram]]
                  ) -> dict[str, Histogram]:
    merged: dict[str, Histogram] = defaultdict(Histogram)
    for phases in tables:
        for phase, histogram in phases.items():
            merged[phase].merge(histogram)
    return dict(merged)


class TracingProbe(CountingProbe):
    """A :class:`CountingProbe` that additionally records a trace.

    Counters keep backing ``HambandNode.stats()`` exactly as before;
    on top, every span/trace hook appends one row to a bounded columnar
    ring and span ends feed per-phase
    :class:`~repro.workload.Histogram`\\ s.

    ``clock`` supplies timestamps (pass ``lambda: env.now``); ``seq``
    may be a shared :func:`itertools.count` so events from several
    nodes interleave into one total order (see :class:`TraceRecorder`).
    """

    def __init__(self, clock: Callable[[], float], node: str,
                 capacity: int = 65536,
                 seq: Optional[Iterable[int]] = None,
                 gid_of: Optional[Callable[[str], str]] = None):
        super().__init__()
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.clock = clock
        self.node = node
        self.capacity = capacity
        #: The ring, one column per field: filled by appending up to
        #: ``capacity`` rows, then overwritten in place from ``_head``,
        #: the oldest row's index.
        self._seqs = array("q")
        self._ts = array("d")
        self._rids = array("q")
        self._sizes = array("I")
        self._sites = array("I")
        self._args: list[Any] = []
        self._head = 0
        #: Interned sites: ``(kind, name, method, origin, gid)`` -> id,
        #: and per id the row's ``(node, kind, name, method, origin,
        #: gid)``.
        self._site_ids: dict[tuple[str, str, str, str, str], int] = {}
        self._site_rows: list[tuple[str, str, str, str, str, str]] = []
        self.dropped = 0
        #: Overflow episodes as ``[first_seq, last_seq, count]`` — the
        #: sequence range of evicted events, so consumers can localize
        #: the gap ("gap at seq N..M") instead of refusing the whole
        #: trace.  A ring that reached capacity drops continuously, so
        #: in practice this holds one episode per probe.
        self.drop_episodes: list[list[int]] = []
        #: Optional live tap: called with a :class:`TraceEvent` per
        #: hook, equal to the row the ring keeps (see
        #: :meth:`TraceRecorder.stream_to`).  Tap consumers see every
        #: event even when the bounded ring evicts old ones.
        self.sink: Optional[Callable[[TraceEvent], None]] = None
        self._seq = iter(seq) if seq is not None else itertools.count()
        #: Bound method, hoisted so the hot path skips the ``next()``
        #: builtin lookup (the probe fires on every span/apply/xfer).
        self._next_seq = self._seq.__next__
        self._gid_of = gid_of or (lambda method: "")
        #: Latency histograms per lifecycle phase, fed by span pairs.
        self.phases: dict[str, Histogram] = {}
        #: Open span start times, keyed by (phase, method, origin, rid).
        self._open: dict[tuple[str, str, str, int], float] = {}

    # -- recording -------------------------------------------------------

    def _record(self, kind: str, name: str, method: str, origin: str,
                rid: int, gid: str = "", size: int = 0,
                arg: Any = None) -> float:
        key = (kind, name, method, origin, gid)
        site = self._site_ids.get(key)
        if site is None:
            site = self._site_ids[key] = len(self._site_rows)
            self._site_rows.append((self.node, *key))
        seq = self._next_seq()
        t = self.clock()
        seqs = self._seqs
        if len(seqs) < self.capacity:
            seqs.append(seq)
            self._ts.append(t)
            self._rids.append(rid)
            self._sizes.append(size)
            self._sites.append(site)
            self._args.append(arg)
        else:
            index = self._head
            evicted = seqs[index]
            self.dropped += 1
            episodes = self.drop_episodes
            if episodes:
                episodes[-1][1] = evicted
                episodes[-1][2] += 1
            else:
                episodes.append([evicted, evicted, 1])
            seqs[index] = seq
            self._ts[index] = t
            self._rids[index] = rid
            self._sizes[index] = size
            self._sites[index] = site
            self._args[index] = arg
            index += 1
            self._head = 0 if index == self.capacity else index
        if self.sink is not None:
            self.sink(_new_event(TraceEvent, (
                seq, t, self.node, kind, name, method, origin, rid, gid,
                size, arg,
            )))
        return t

    def span_begin(self, phase: str, method: str, origin: str,
                   rid: int) -> None:
        t = self._record("B", phase, method, origin, rid)
        self._open[(phase, method, origin, rid)] = t

    def span_end(self, phase: str, method: str, origin: str,
                 rid: int) -> None:
        t = self._record("E", phase, method, origin, rid)
        started = self._open.pop((phase, method, origin, rid), None)
        if started is not None:
            histogram = self.phases.get(phase)
            if histogram is None:
                histogram = self.phases[phase] = Histogram()
            histogram.add(t - started)

    def trace_apply(self, rule: str, method: str, origin: str, rid: int,
                    arg: Any = None) -> None:
        applies = self.sections["applies"]
        applies[rule] = applies.get(rule, 0) + 1
        self._record(
            "rule", rule, method, origin, rid,
            gid=self._gid_of(method), arg=arg,
        )

    def trace_transfer(self, ring: str, method: str, origin: str,
                       rid: int, size: int) -> None:
        self._record("xfer", ring, method, origin, rid, size=size)

    def trace_fault(self, kind: str, target: str, detail: str) -> None:
        """An injected fault (kind/target/detail ride in name/origin/
        method so faults render inline with rule events)."""
        super().trace_fault(kind, target, detail)
        self._record("fault", kind, detail, target, 0)

    def trace_repair(self, ring: str, index: int, kind: str) -> None:
        """A detected corruption was repaired (kind/ring/index ride in
        name/origin/rid); pairs with the ``fault`` events so the
        offline checker and Chrome traces can correlate *injected* ⇒
        *detected* ⇒ *repaired*."""
        super().trace_repair(ring, index, kind)
        self._record("repair", kind, ring, self.node, index)

    def giveup(self, loop: str, subject: str, gid: str = "") -> None:
        """A bounded loop stopped: the event is ``giveup`` with the loop
        in ``name``, its subject (the suspect leader, the stalled
        reader, the transfer reason, the redirected method) in
        ``origin`` and the group, if any, in ``gid``."""
        super().giveup(loop, subject, gid)
        self._record("giveup", loop, "", subject, 0, gid=gid)

    def member_event(self, event: str, node: str, detail: str = "") -> None:
        """A membership change (``member_join``/``member_leave``) or a
        completed state transfer (``state_xfer``) became visible.  The
        event name rides in ``name``, the subject node in ``origin``,
        and the detail (epoch / transfer reason) in ``method`` — so the
        trace checkers account for mid-run membership."""
        super().member_event(event, node, detail)
        self._record("member", event, detail, node, 0)

    # -- reporting -------------------------------------------------------

    @property
    def events(self) -> "TraceView":
        """The retained events, oldest first, as a :class:`TraceView`."""
        return TraceView([self])

    def _stream(self, table: list[tuple], sites: Optional[frozenset] = None
                ) -> tuple[Sequence[int], Iterator[TraceEvent]]:
        """``(seqs, events)`` of the retained rows, oldest first: every
        row, or only those whose site id is in ``sites``.  ``table``
        resolves site ids (``_site_rows``, or a relabelled copy)."""
        seqs, head = self._seqs, self._head
        if sites is None:
            indices = chain(range(head, len(seqs)), range(head))
            return self._seqs_by_age(), self._rows(indices, table)
        if not sites:
            return (), iter(())
        kept = array("I", compress(
            range(len(seqs)), map(sites.__contains__, self._sites)
        ))
        split = bisect_left(kept, head)
        indices = kept[split:] + kept[:split]
        return array("q", map(seqs.__getitem__, indices)), self._rows(
            indices, table)

    def _seqs_by_age(self) -> Sequence[int]:
        head = self._head
        return self._seqs[head:] + self._seqs[:head] if head else self._seqs

    def _rows(self, indices: Iterable[int], table: list[tuple]
              ) -> Iterator[TraceEvent]:
        seqs, ts, rids, sizes = self._seqs, self._ts, self._rids, self._sizes
        sites, args = self._sites, self._args
        for index in indices:
            node, kind, name, method, origin, gid = table[sites[index]]
            yield _new_event(TraceEvent, (
                seqs[index], ts[index], node, kind, name, method, origin,
                rids[index], gid, sizes[index], args[index],
            ))

    def snapshot(self) -> dict[str, Any]:
        snapshot = super().snapshot()
        snapshot["trace"] = {
            "events": len(self._seqs),
            "dropped": self.dropped,
            "phases": {
                phase: histogram.summary()
                for phase, histogram in sorted(self.phases.items())
            },
        }
        return snapshot


#: The ``seq`` span one merge window covers: a merged read allocates
#: one byte per sequence number of the current window, never a sorted
#: copy of the trace.
_MERGE_WINDOW = 1 << 16


def _merge_order(keys: list[Sequence[int]]) -> Sequence[int]:
    """Each row's ring number (1-based: ``keys[0]`` is ring 1) in
    ``seq`` order, given every ring's ascending ``seq`` keys.  Window
    by window, each ring marks the slots of its keys in a table indexed
    by ``seq``; the marks, read in slot order with the holes dropped,
    are the merge."""
    wide = len(keys) >= 255
    order = array("H") if wide else bytearray()
    cursors = [0] * len(keys)
    live = [ring for ring in range(len(keys)) if keys[ring]]
    while live:
        low = min(keys[ring][cursors[ring]] for ring in live)
        slots = (array("H", bytes(2 * _MERGE_WINDOW)) if wide
                 else bytearray(_MERGE_WINDOW))
        for ring in live:
            ring_keys, start = keys[ring], cursors[ring]
            end = bisect_left(ring_keys, low + _MERGE_WINDOW, start)
            mark = ring + 1
            for seq in ring_keys[start:end]:
                slots[seq - low] = mark
            cursors[ring] = end
        if wide:
            order.extend(filter(None, slots))
        else:
            order += slots.replace(b"\0", b"")
        live = [ring for ring in live if cursors[ring] < len(keys[ring])]
    if len(order) != sum(map(len, keys)):
        raise ValueError("the rings of one view must draw seq from one "
                         "counter: two of them hold the same seq")
    return order


class TraceView(Sequence):
    """A read-only view of one or more probes' rings in ``seq`` order.

    ``recorder.events()`` and ``probe.events`` return one.  Making it
    copies nothing; each read materializes the :class:`TraceEvent`\\ s
    it hands out, equal to those any other read returns.  It supports
    ``len``, int and slice indexing (a slice is a list), ``==`` against
    a list or another view, and repeated iteration, and
    :meth:`iter_kinds` yields only rows of the given kinds, skipping
    the others at the column level without building them.  A read sees
    the rings as they are when it starts; ``probes`` may be a live
    collection (a recorder's probe table), re-read at every read.
    ``prefixes`` relabel each probe's node (``"s0/"`` for shard 0).
    """

    def __init__(self, probes: Iterable[TracingProbe],
                 prefixes: Sequence[str] = ()):
        self._probes = probes
        self._prefixes = prefixes
        #: ``(stamp, order, ranks)`` for indexing, rebuilt once the
        #: rings record again: each row's ring and its rank there.
        self._index: Optional[tuple] = None

    def _table(self, ring: int, probe: TracingProbe) -> list[tuple]:
        prefix = self._prefixes[ring] if ring < len(self._prefixes) else ""
        if not prefix:
            return probe._site_rows
        return [(prefix + row[0], *row[1:]) for row in probe._site_rows]

    def _read(self, kinds: Optional[frozenset]) -> Iterator[TraceEvent]:
        streams = []
        for ring, probe in enumerate(self._probes):
            table = self._table(ring, probe)
            sites = None if kinds is None else frozenset(
                site for site, row in enumerate(table) if row[1] in kinds
            )
            streams.append(probe._stream(table, sites))
        if len(streams) == 1:
            return streams[0][1]
        order = _merge_order([keys for keys, _events in streams])
        rows = [None, *(events for _keys, events in streams)]
        return map(next, map(rows.__getitem__, order))

    def __iter__(self) -> Iterator[TraceEvent]:
        return self._read(None)

    def iter_kinds(self, kinds: Iterable[str]) -> Iterator[TraceEvent]:
        """The rows whose ``kind`` is in ``kinds``, in ``seq`` order;
        rows of other kinds are skipped by site id, never built."""
        return self._read(frozenset(kinds))

    def __len__(self) -> int:
        return sum(len(probe._seqs) for probe in self._probes)

    def nodes(self) -> set[str]:
        """The nodes with a row in the view, read off their rings' site
        tables; no row is built."""
        return {
            self._table(ring, probe)[0][0]
            for ring, probe in enumerate(self._probes) if len(probe._seqs)
        }

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        probes = list(self._probes)
        stamp = [probe.dropped + len(probe._seqs) for probe in probes]
        if self._index is None or self._index[0] != stamp:
            order = _merge_order([probe._seqs_by_age() for probe in probes])
            counts = [0] * (len(probes) + 1)
            ranks = array("I")
            for ring in order:
                ranks.append(counts[ring])
                counts[ring] += 1
            self._index = (stamp, order, ranks)
        _stamp, order, ranks = self._index
        ring = order[index] - 1
        probe = probes[ring]
        row = probe._head + ranks[index]  # the rank-th oldest row
        if row >= len(probe._seqs):
            row -= len(probe._seqs)
        return next(probe._rows((row,), self._table(ring, probe)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, TraceView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<TraceView of {len(self)} events>"


class TraceRecorder:
    """Cluster-wide flight recorder built from per-node tracing probes.

    >>> from repro.sim import Environment
    >>> from repro.datatypes import gset_spec
    >>> from repro.runtime import HambandCluster, TraceRecorder
    >>> env = Environment()
    >>> recorder = TraceRecorder(env)
    >>> cluster = HambandCluster.build(
    ...     env, gset_spec(), n_nodes=3,
    ...     probe_factory=recorder.probe_factory)
    >>> recorder.attach(cluster.coordination)

    Each probe draws sequence numbers from one shared counter, so
    :meth:`events` is a single total order consistent with both sim
    time and per-node program order.
    """

    def __init__(self, env, capacity: int = 65536,
                 coordination: Any = None,
                 seq: Optional[Iterable[int]] = None):
        self.env = env
        self.capacity = capacity
        self.probes: dict[str, TracingProbe] = {}
        self._sink: Optional[Callable[[TraceEvent], None]] = None
        #: ``seq`` may be an externally shared counter so several
        #: recorders (one per shard) interleave into one total order.
        self._seq = iter(seq) if seq is not None else itertools.count()
        self._gid_cache: dict[str, str] = {}
        self.coordination = None
        if coordination is not None:
            self.attach(coordination)

    def attach(self, coordination: Any) -> "TraceRecorder":
        """Teach the recorder the object's sync groups (for gid tags)."""
        self.coordination = coordination
        self._gid_cache.clear()
        return self

    def _gid_of(self, method: str) -> str:
        gid = self._gid_cache.get(method)
        if gid is None:
            gid = ""
            if self.coordination is not None:
                try:
                    group = self.coordination.sync_group(method)
                except Exception:  # queries / unknown methods
                    group = None
                if group is not None:
                    gid = group.gid
            self._gid_cache[method] = gid
        return gid

    def probe_factory(self, name: str) -> TracingProbe:
        """Build (and remember) the tracing probe for node ``name``."""
        probe = TracingProbe(
            clock=lambda: self.env.now,
            node=name,
            capacity=self.capacity,
            seq=self._seq,
            gid_of=self._gid_of,
        )
        probe.sink = self._sink
        self.probes[name] = probe
        return probe

    def stream_to(self, sink: Callable[[TraceEvent], None],
                  replay: bool = True) -> "TraceRecorder":
        """Tap the live event stream: ``sink`` is called with every
        event as it is recorded, on every current and future probe.

        With ``replay`` (the default), already-buffered events are
        delivered first in global order, so a consumer attached
        mid-run still sees a seq-contiguous stream.  Tap consumers are
        independent of the bounded ring — a
        :class:`~repro.runtime.stream_checker.StreamingChecker` fed
        this way verifies the *complete* run even when the ring keeps
        only the most recent events.
        """
        if replay:
            for event in self.events():
                sink(event)
        self._sink = sink
        for probe in self.probes.values():
            probe.sink = sink
        return self

    # -- views -----------------------------------------------------------

    def events(self) -> TraceView:
        """All nodes' events in the global total order, as a
        :class:`TraceView` over the live probe table."""
        return TraceView(self.probes.values())

    def dropped(self) -> int:
        return sum(probe.dropped for probe in self.probes.values())

    def drop_gaps(self) -> list[tuple[int, int, int]]:
        """Ring-overflow gaps as ``(first_seq, last_seq, count)``,
        merged across probes (nodes share one seq counter, so episodes
        from different probes may interleave)."""
        episodes = [
            episode
            for probe in self.probes.values()
            for episode in probe.drop_episodes
        ]
        return merge_gap_ranges(episodes)

    def nodes(self) -> list[str]:
        return sorted(self.probes)

    def phase_histograms(self) -> dict[str, Histogram]:
        """Per-phase latency histograms merged across all nodes."""
        return _merge_phases(probe.phases for probe in self.probes.values())

    # -- exports ---------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        """Write the merged trace as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as fp:
            return export_jsonl(self.events(), fp,
                                dropped=self.dropped(),
                                nodes=self.nodes(),
                                gaps=self.drop_gaps())

    def export_chrome(self, path: str) -> int:
        """Write a ``chrome://tracing`` / Perfetto JSON file."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(chrome_trace_dict(events), fp)
        return len(events)


class ShardedRecorder:
    """Flight recorder for a :class:`~repro.runtime.ShardedCluster`.

    One :class:`TraceRecorder` per shard — every shard names its nodes
    ``p1..pn``, so a single recorder's per-node probe table would
    collide — all drawing sequence numbers from ONE shared counter, so
    the merged view is still a single total order across the topology.

    On top of the per-shard streams it records ``txn`` events emitted
    by the cross-shard transaction coordinator: BEGIN / COMMIT / ABORT
    instants carrying the transaction's classification and the
    identities of the constituent calls it actually issued
    (``(shard, method, origin, rid)`` tuples) — the input of the
    offline cross-shard atomicity check
    (:class:`~repro.runtime.checker.ShardedTraceChecker`).
    """

    def __init__(self, env, n_shards: int, capacity: int = 65536):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.env = env
        self.capacity = capacity
        self._seq = itertools.count()
        self.shard_recorders = [
            TraceRecorder(env, capacity=capacity, seq=self._seq)
            for _ in range(n_shards)
        ]
        #: The txn instants, in a ring of their own.
        self._txn = TracingProbe(
            clock=lambda: env.now, node="txn", capacity=capacity,
            seq=self._seq,
        )

    @property
    def n_shards(self) -> int:
        return len(self.shard_recorders)

    def attach(self, coordination: Any) -> "ShardedRecorder":
        for recorder in self.shard_recorders:
            recorder.attach(coordination)
        return self

    def probe_factory_for(self, shard: int) -> Callable[[str], TracingProbe]:
        """The per-node probe factory for one shard (hand to
        :meth:`~repro.runtime.ShardedCluster.build` via
        ``shard_probe_factory``)."""
        return self.shard_recorders[shard].probe_factory

    # -- txn events ------------------------------------------------------

    def record_txn(self, name: str, txn_id: int, classification: str,
                   shards: Iterable[int],
                   issued: Iterable[tuple] = ()) -> None:
        """Record one transaction lifecycle instant.

        ``name`` is ``BEGIN`` / ``COMMIT`` / ``ABORT``;
        ``classification`` (``commuting`` / ``locked``) rides in the
        event's method field, the participating shards in ``gid``, and
        the issued call identities in ``arg``.
        """
        self._txn._record(
            "txn", name, classification, "txn", txn_id,
            gid="+".join(f"s{index}" for index in sorted(shards)),
            arg=tuple(tuple(identity) for identity in issued),
        )

    # -- views -----------------------------------------------------------

    def shard_events(self) -> dict[int, TraceView]:
        """Per-shard event streams with unprefixed node names (the
        per-shard checker input)."""
        return {
            index: recorder.events()
            for index, recorder in enumerate(self.shard_recorders)
        }

    def txn_events(self) -> TraceView:
        return self._txn.events

    def events(self) -> TraceView:
        """All shards' events merged, nodes labelled ``s<i>/<node>``,
        txn instants interleaved — one exportable total order."""
        probes, prefixes = [], []
        for index, recorder in enumerate(self.shard_recorders):
            for probe in recorder.probes.values():
                probes.append(probe)
                prefixes.append(f"s{index}/")
        probes.append(self._txn)
        prefixes.append("")
        return TraceView(probes, prefixes)

    def dropped(self) -> int:
        return self._txn.dropped + sum(
            recorder.dropped() for recorder in self.shard_recorders
        )

    def drop_gaps(self) -> list[tuple[int, int, int]]:
        """Ring-overflow gaps across every shard plus the txn ring."""
        episodes = list(self._txn.drop_episodes)
        for recorder in self.shard_recorders:
            episodes += recorder.drop_gaps()
        return merge_gap_ranges(episodes)

    def nodes(self) -> list[str]:
        return [
            f"s{index}/{name}"
            for index, recorder in enumerate(self.shard_recorders)
            for name in recorder.nodes()
        ]

    def phase_histograms(self) -> dict[str, Histogram]:
        """Phase latencies merged across every shard."""
        return _merge_phases(
            recorder.phase_histograms() for recorder in self.shard_recorders
        )

    def phase_histograms_by_shard(self) -> dict[str, dict[str, Histogram]]:
        """``{"s0": {...}, ...}`` — one phase table per shard, so
        multi-shard reports don't interleave into one misleading table."""
        return {
            f"s{index}": recorder.phase_histograms()
            for index, recorder in enumerate(self.shard_recorders)
            if recorder.probes
        }

    # -- exports ---------------------------------------------------------

    def export_jsonl(self, path: str) -> int:
        events = self.events()
        with open(path, "w", encoding="utf-8") as fp:
            return export_jsonl(events, fp, dropped=self.dropped(),
                                nodes=self.nodes(),
                                gaps=self.drop_gaps())

    def export_chrome(self, path: str) -> int:
        events = self.events()
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(chrome_trace_dict(events), fp)
        return len(events)


# -- serialization ---------------------------------------------------------


def merge_gap_ranges(episodes: Iterable[Iterable[int]]
                     ) -> list[tuple[int, int, int]]:
    """Merge overlapping/adjacent drop episodes ``[first, last, count]``
    into sorted disjoint ``(first, last, count)`` ranges."""
    ranges = sorted(
        (int(e[0]), int(e[1]), int(e[2]) if len(list(e)) > 2 else 0)
        for e in (list(e) for e in episodes)
    )
    merged: list[list[int]] = []
    for first, last, count in ranges:
        if merged and first <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], last)
            merged[-1][2] += count
        else:
            merged.append([first, last, count])
    return [tuple(gap) for gap in merged]


def gap_detail(gaps: Iterable[tuple]) -> str:
    """`` — gap at seq N..M, …`` for a truncation message ('' if none)."""
    gap_list = [tuple(gap) for gap in gaps]
    if not gap_list:
        return ""
    shown = ", ".join(f"gap at seq {g[0]}..{g[1]}" for g in gap_list[:5])
    if len(gap_list) > 5:
        shown += f", … ({len(gap_list)} gaps)"
    return f" — {shown}"


#: Version of the JSONL layout, written on the meta line.  Version 1
#: files carry args in a wire encoding this codebase no longer reads.
_JSONL_VERSION = 2


def _encode_arg(arg: Any) -> tuple[str, str]:
    """Encode a rule event's argument for JSONL.

    Uses the runtime wire codec (exact round-trip for every value shape
    the bundled data types use) with a ``repr`` fallback for anything
    exotic a custom spec might carry.
    """
    try:
        return "wire", base64.b64encode(encode_value(arg)).decode("ascii")
    except WireError:
        return "repr", repr(arg)


def _decode_arg(scheme: str, payload: str) -> Any:
    if scheme == "wire":
        return decode_value(base64.b64decode(payload.encode("ascii")))
    return payload  # repr fallback: opaque, not replayable exactly


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    record: dict[str, Any] = {
        "seq": event.seq,
        "t": event.t,
        "node": event.node,
        "kind": event.kind,
        "name": event.name,
        "method": event.method,
        "origin": event.origin,
        "rid": event.rid,
    }
    if event.gid:
        record["gid"] = event.gid
    if event.size:
        record["size"] = event.size
    if event.kind in ("rule", "txn"):
        scheme, payload = _encode_arg(event.arg)
        record["arg_kind"] = scheme
        record["arg"] = payload
    return record


def event_from_dict(record: dict[str, Any]) -> TraceEvent:
    arg = None
    if record.get("kind") in ("rule", "txn") and "arg" in record:
        arg = _decode_arg(record.get("arg_kind", "wire"), record["arg"])
    return TraceEvent(
        seq=record["seq"],
        t=record["t"],
        node=record["node"],
        kind=record["kind"],
        name=record["name"],
        method=record["method"],
        origin=record["origin"],
        rid=record["rid"],
        gid=record.get("gid", ""),
        size=record.get("size", 0),
        arg=arg,
    )


def export_jsonl(events: Iterable[TraceEvent], fp: TextIO,
                 dropped: int = 0,
                 nodes: Optional[list[str]] = None,
                 gaps: Optional[Iterable[Iterable[int]]] = None) -> int:
    """Write one meta line plus one JSON line per event; returns the
    event count.

    ``events`` may be any iterable (e.g. the recorder's lazy merge) —
    it is consumed once, streaming.  Output bytes are a pure function
    of the events (sorted keys, fixed separators), so identical runs
    export identical files — the trace determinism tests pin this.
    ``gaps`` records ring-overflow seq ranges; a lossless trace's meta
    line carries no ``gaps`` key, keeping historical bytes intact.
    """
    if not nodes:
        events = list(events)
        nodes = sorted({event.node for event in events})
    meta: dict[str, Any] = {
        "kind": "meta",
        "version": _JSONL_VERSION,
        "dropped": dropped,
        "nodes": nodes,
    }
    gap_list = [list(gap) for gap in gaps] if gaps else []
    if gap_list:
        meta["gaps"] = gap_list
    fp.write(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    fp.write("\n")
    count = 0
    for event in events:
        fp.write(
            json.dumps(
                event_to_dict(event), sort_keys=True, separators=(",", ":")
            )
        )
        fp.write("\n")
        count += 1
    return count


@dataclass
class LoadedTrace:
    """A trace read back from a JSONL export."""

    events: list[TraceEvent] = field(default_factory=list)
    dropped: int = 0
    nodes: list[str] = field(default_factory=list)
    #: Ring-overflow seq ranges ``(first, last, count)`` from the meta
    #: line (empty for lossless traces).
    gaps: list[tuple[int, ...]] = field(default_factory=list)


def load_jsonl(path: str) -> LoadedTrace:
    trace = LoadedTrace()
    for record in iter_jsonl(path):
        if isinstance(record, dict):
            trace.dropped = record.get("dropped", 0)
            trace.nodes = list(record.get("nodes", []))
            trace.gaps = [tuple(gap) for gap in record.get("gaps", [])]
            continue
        trace.events.append(record)
    if not trace.nodes:
        trace.nodes = sorted({event.node for event in trace.events})
    return trace


def iter_jsonl(path: str) -> "Iterable[Any]":
    """Stream a JSONL trace one record at a time with O(1) memory:
    yields the raw meta dict(s) first (as written), then each
    :class:`TraceEvent` — the input of
    :meth:`~repro.runtime.stream_checker.StreamingChecker.check_jsonl`.
    A meta line of any other layout version raises :class:`ValueError`.
    """
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "meta":
                version = record.get("version")
                if version != _JSONL_VERSION:
                    raise ValueError(
                        f"{path}: trace layout version {version}, this "
                        f"reader takes version {_JSONL_VERSION}"
                    )
                yield record
            else:
                yield event_from_dict(record)


# -- Chrome trace_event export ---------------------------------------------


def chrome_trace_dict(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """The merged trace in Chrome ``trace_event`` JSON object format.

    - each node becomes one *process* (named via metadata events),
    - lifecycle spans become complete (``X``) events on per-phase
      thread lanes, paired B/E at export time,
    - rule transitions and ring transfers become instant (``i``)
      events, with flow arrows (``s``/``t``) linking every call's issue
      event (REDUCE/FREE/CONF) to its applies on other nodes — load the
      file in ``chrome://tracing`` or Perfetto and the causal chains
      render as arrows across processes.
    """
    pids: dict[str, int] = {}
    out: list[dict[str, Any]] = []

    def pid_of(node: str) -> int:
        pid = pids.get(node)
        if pid is None:
            pid = len(pids) + 1
            pids[node] = pid
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": node},
            })
            for index, phase in enumerate(PHASES):
                out.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": index + 1, "args": {"name": phase},
                })
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": len(PHASES) + 1, "args": {"name": "events"},
            })
        return pid

    def tid_of(phase: str) -> int:
        return PHASES.index(phase) + 1 if phase in PHASES else len(PHASES) + 1

    open_spans: dict[tuple[str, str, str, str, int], list[float]] = {}
    flow_started: set[str] = set()
    for event in sorted(events, key=_BY_SEQ):
        pid = pid_of(event.node)
        label = f"{event.method}@{event.call_id()}"
        if event.kind == "B":
            open_spans.setdefault(
                (event.node, event.name, event.method, event.origin,
                 event.rid), []
            ).append(event.t)
        elif event.kind == "E":
            key = (event.node, event.name, event.method, event.origin,
                   event.rid)
            stack = open_spans.get(key)
            if stack:
                start = stack.pop()
                out.append({
                    "ph": "X", "name": f"{event.name}:{event.method}",
                    "cat": "span", "pid": pid, "tid": tid_of(event.name),
                    "ts": start, "dur": max(event.t - start, 0.0),
                    "args": {"call": label},
                })
        elif event.kind == "rule":
            instant = {
                "ph": "i", "name": event.name, "cat": "rule",
                "pid": pid, "tid": len(PHASES) + 1, "ts": event.t,
                "s": "t",
                "args": {"call": label, "gid": event.gid},
            }
            out.append(instant)
            if event.rid:  # queries (rid 0) have no causal chain
                flow = {
                    "cat": "causal", "name": event.method,
                    "id": event.call_id(), "pid": pid,
                    "tid": len(PHASES) + 1, "ts": event.t,
                }
                if event.call_id() not in flow_started:
                    flow_started.add(event.call_id())
                    out.append({"ph": "s", **flow})
                else:
                    out.append({"ph": "t", **flow})
        elif event.kind == "txn":
            out.append({
                "ph": "i", "name": f"TXN:{event.name}", "cat": "txn",
                "pid": pid, "tid": len(PHASES) + 1, "ts": event.t,
                "s": "g",  # global scope: a txn spans shards
                "args": {
                    "txn": event.rid, "classification": event.method,
                    "shards": event.gid,
                },
            })
        elif event.kind == "member":
            out.append({
                "ph": "i", "name": f"MEMBER:{event.name}", "cat": "member",
                "pid": pid, "tid": len(PHASES) + 1, "ts": event.t,
                "s": "g",  # global scope: membership spans the cluster
                "args": {"member": event.origin, "detail": event.method},
            })
        elif event.kind == "fault":
            out.append({
                "ph": "i", "name": f"FAULT:{event.name}", "cat": "fault",
                "pid": pid, "tid": len(PHASES) + 1, "ts": event.t,
                "s": "g",  # global scope: draw across the whole track
                "args": {"target": event.origin, "detail": event.method},
            })
        elif event.kind == "repair":
            out.append({
                "ph": "i", "name": f"REPAIR:{event.name}", "cat": "repair",
                "pid": pid, "tid": len(PHASES) + 1, "ts": event.t,
                "s": "p",  # process scope: one node healed itself
                "args": {"ring": event.method, "index": event.rid},
            })
        elif event.kind == "xfer":
            out.append({
                "ph": "i", "name": event.name, "cat": "xfer",
                "pid": pid, "tid": len(PHASES) + 1, "ts": event.t,
                "s": "t",
                "args": {"call": label, "bytes": event.size},
            })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def export_chrome_trace(events: Iterable[TraceEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(chrome_trace_dict(events), fp)
