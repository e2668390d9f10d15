"""Layer 2 — buffered-call application (paper §4, Fig. 7 transitions).

:class:`ApplyEngine` owns the replicated-object *state* of one node and
every rule that mutates it:

- the stored state ``σ`` and the applied-calls map ``A``,
- the dedup set of applied call keys,
- the summary mirror and summary-slot readers (``S``),
- dependency projection (``A | Dep(u)``) and dependency checks,
- permissibility (the method's declared delta, or the invariant folded
  over the summaries on a node with summary slots; a method declaring
  ``keeps_always`` needs neither),
- the REDUCE / FREE / QUERY request paths,
- the buffer-traversal loop that drives the transport's F drains, the
  conflict coordinator's L drains, and the recovered-call queue.

It deliberately knows nothing about ring layouts (transport), leaders
(conflict), or control messages (control): those layers are handed in
through :meth:`bind` by the façade, and every state transition reports
its rule to the instrumentation probe (``probe.trace_apply``).  Nothing is
retained per apply beyond the call's dedup id: a decoded call dies once
it is folded into σ, and the flight recorder (if one is installed on
the probe seam) is the only record of the run.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Callable, Optional

from ..core import Call, Category, Coordination, keeps_always
from ..core.rdma_semantics import DependencyMap
from ..rdma import RdmaNode, WcStatus
from ..sim import Event
from . import config as runtime_config
from .config import RuntimeConfig, s_region
from .errors import ImpermissibleError, SubmitError
from .probe import RuntimeProbe
from .ringbuffer import MAX_RECORD_PAYLOAD, RingCorruptionError, RingError
from .summary import (
    SUMMARY_SLOT_SIZE,
    SummarySlot,
    current_record_bytes,
    parse_slot,
    render_summary,
    slot_size_for,
)
from .transport import HOLE_PATIENCE
from .wire import WireCodec

__all__ = ["ApplyEngine"]

#: CPU cost of applying one buffered call to σ, and of one query.
APPLY_CPU_US = 0.15
QUERY_CPU_US = 0.20
#: The poller's wait after progress (records often arrive in trains),
#: and its idle backoff (see :meth:`ApplyEngine.poll_loop`).
POLL_HOT_US = 0.2
POLL_BACKOFF = 2.0
POLL_IDLE_MAX_US = 8.0


class ApplyEngine:
    """σ, A, S and the machinery that advances them at one node."""

    def __init__(self, rnode: RdmaNode, coordination: Coordination,
                 config: RuntimeConfig,
                 probe: Optional[RuntimeProbe] = None,
                 codec: Optional[WireCodec] = None):
        self.rnode = rnode
        self.env = rnode.env
        self.name = rnode.name
        self.coordination = coordination
        self.spec = coordination.spec
        self.processes: list[str] = []  # filled by the summary init
        self.config = config
        self.probe = probe or RuntimeProbe()
        self.codec = codec or WireCodec()
        #: Methods whose guard cannot fail (``keeps_always``): they
        #: need no effective state to be permitted.
        self._always = frozenset(
            name for name, update in self.spec.updates.items()
            if update.keeps is keeps_always
        )

        self.sigma = self.spec.initial_state()
        #: A — applied counts for buffered (F/L) calls, incl. our own.
        self.applied: dict[tuple[str, str], int] = {}
        #: Request ids applied via buffers or recovery, per origin, for
        #: dedup (an int per applied call, not a tuple).
        self._seen: defaultdict[str, set[int]] = defaultdict(set)
        self._rid = itertools.count(1)
        #: Recovered-from-backup calls awaiting their dependencies.
        self.pending_recovered: list[tuple[Call, DependencyMap]] = []
        #: ``F<-<origin>`` per F ring read, formatted once per origin
        #: (a joiner's on its first sweep), not once per sweep.
        self._drain_labels: dict[str, str] = {}
        #: ``S:<group>`` per summarization group, the trace label of a
        #: REDUCE call's transfer, formatted once.
        self._s_labels = {
            summarizer.group: f"S:{summarizer.group}"
            for summarizer in self.spec.summarizers
        }
        # Collaborators, wired by the façade via bind().
        self.transport = None
        self.conflict = None
        self.broadcast = None
        self.is_suspected: Callable[[str], bool] = lambda peer: False

    def init_summaries(self, processes: list[str]) -> None:
        """Build summary-slot readers over the registered S regions.

        Requires the transport (or a test harness) to have registered
        the ``s_region`` memory regions first.
        """
        self.processes = sorted(processes)
        self.summary_readers: dict[tuple[str, str], SummarySlot] = {}
        #: Our in-memory mirror: group -> (seq, summary call, counts).
        self.summary_mirror: dict[str, tuple[int, Call, dict[str, int]]] = {}
        #: Sweeps each damaged peer slot has stayed unreadable (the
        #: summary half of the hole detector).
        self._slot_misses: dict[tuple[str, str], float] = {}
        for summarizer in self.spec.summarizers:
            for owner in self.processes:
                self._add_summary_reader(summarizer.group, owner)
            self.summary_mirror[summarizer.group] = (
                0,
                summarizer.identity(self.name),
                {},
            )

    def _add_summary_reader(self, group: str, owner: str) -> None:
        region = self.rnode.regions[s_region(group, owner)]
        self.summary_readers[(group, owner)] = SummarySlot(
            region, 0, SUMMARY_SLOT_SIZE,
            codec=self.codec,
        )
        self._slots = list(self.summary_readers.values())
        #: ``effective_state``'s fold, keyed on σ and the slot stamps.
        self._folded: tuple = (None, None, None)

    def add_process(self, name: str) -> None:
        """Rewire the apply layer for a newly joined process.

        The transport must have registered the new ``s_region`` memory
        regions first (``RingTransport.add_peer``).  There is no
        ``remove_process``: a departed node's summary slots and applied
        counts are kept — dependency arrays already in flight reference
        its counts, and frozen state is consistent on both sides of
        every dependency check.
        """
        if name in self.processes:
            return
        self.processes = sorted([*self.processes, name])
        for summarizer in self.spec.summarizers:
            self._add_summary_reader(summarizer.group, name)

    def bind(self, transport, conflict, broadcast,
             is_suspected: Callable[[str], bool]) -> None:
        """Wire the sibling layers (composition root: the façade)."""
        self.transport = transport
        self.conflict = conflict
        self.broadcast = broadcast
        self.is_suspected = is_suspected

    # -- call construction -----------------------------------------------

    def next_rid(self) -> int:
        return next(self._rid)

    def make_call(self, method: str, arg: Any) -> Call:
        return Call(method, arg, self.name, self.next_rid())

    def category(self, method: str) -> Category:
        category = self.coordination.category(method)
        if self.config.force_buffered and category is Category.REDUCIBLE:
            return Category.IRREDUCIBLE_CONFLICT_FREE
        return category

    # -- state views -----------------------------------------------------

    def effective_state(self) -> Any:
        """``Apply(S)(σ)``: summaries folded over the stored state.

        The fold is redone only when σ or a slot region has changed
        since the last call (updates are pure, so σ's identity stands
        for its value)."""
        sigma = self.sigma
        if not self.summary_readers:
            return sigma
        stamps = [slot.region.stamp for slot in self._slots]
        folded_sigma, folded_stamps, state = self._folded
        if sigma is folded_sigma and stamps == folded_stamps:
            return state
        state = sigma
        for slot in self._slots:
            value = slot.read()
            if value is not None:
                state = self.spec.apply_call(value[0], state)
        self._folded = (sigma, stamps, state)
        return state

    def applied_count(self, process: str, method: str) -> int:
        """A(p, u), consulting summary slots for reducible methods."""
        if self.category(method) is Category.REDUCIBLE:
            summarizer = self.spec.summarizer_of(method)
            slot = self.summary_readers[(summarizer.group, process)]
            return slot.applied_count(method)
        return self.applied.get((process, method), 0)

    def applied_total(self) -> int:
        """Total update calls reflected at this node (A summed)."""
        total = sum(self.applied.values())
        for slot in self.summary_readers.values():
            value = slot.read()
            if value is not None:
                total += sum(value[1].values())
        return total

    def permits(self, call: Call, pre: Any, post: Any) -> bool:
        """The FREE/CONF guard ``P(pre, call)``, given ``post = call(pre)``.

        ``pre`` is this node's σ, or a leader batch's speculative
        successor of it, and ``I`` holds on both (Lemma 1: σ advances
        only by permissible calls, and the checkers verify that it
        does), so the method's declared delta decides
        (:meth:`ObjectSpec.holds_after`).  A node with summary slots
        checks the whole state with the summaries folded in (folding
        does not commute with a delta), unless the method declares
        ``keeps_always``: such a call keeps ``I`` on every state.
        """
        if self.summary_readers:
            if call.method in self._always:
                return True
            return self.invariant_with_summaries(post)
        return self.spec.holds_after(call, pre, post, True)

    def invariant_with_summaries(self, sigma: Any) -> bool:
        state = sigma
        for slot in self.summary_readers.values():
            value = slot.read()
            if value is not None:
                state = self.spec.apply_call(value[0], state)
        return bool(self.spec.invariant(state))

    # -- dependency arrays -----------------------------------------------

    def dep_projection(self, method: str,
                       overlay: Optional[dict] = None) -> DependencyMap:
        """``A | Dep(u)``, plus the batch's speculative counts."""
        if self.config.full_dep_barrier:
            dep_methods = list(self.spec.updates)
        else:
            dep_methods = self.coordination.dep(method)
        dep: DependencyMap = {}
        for dep_method in dep_methods:
            for process in self.processes:
                count = self.applied_count(process, dep_method)
                if overlay:
                    count += overlay.get((process, dep_method), 0)
                if count:
                    dep[(process, dep_method)] = count
        return dep

    def dep_ok(self, dep: DependencyMap) -> bool:
        return all(
            self.applied_count(process, method) >= need
            for (process, method), need in dep.items()
        )

    def bump_applied(self, process: str, method: str) -> None:
        key = (process, method)
        self.applied[key] = self.applied.get(key, 0) + 1

    def has_seen(self, key: tuple[str, int]) -> bool:
        return key[1] in self._seen.get(key[0], ())

    def mark_seen(self, key: tuple[str, int]) -> None:
        self._seen[key[0]].add(key[1])

    # -- applying buffered calls -----------------------------------------

    def apply(self, call: Call, rule: str):
        """Generator: pay the apply CPU cost, then commit the call."""
        self.probe.span_begin("apply", call.method, call.origin, call.rid)
        yield self.rnode.cpu.hold(APPLY_CPU_US)
        self.apply_buffered(call, rule)
        self.probe.span_end("apply", call.method, call.origin, call.rid)

    def apply_buffered(self, call: Call, rule: str) -> None:
        self.sigma = self.spec.apply_call(call, self.sigma)
        self.bump_applied(call.origin, call.method)
        self.mark_seen(call.key())
        self.probe.trace_apply(
            rule, call.method, call.origin, call.rid, call.arg
        )

    def add_recovered(self, call: Call, dep: DependencyMap) -> None:
        self.pending_recovered.append((call, dep))

    def drain_recovered(self):
        progressed = False
        remaining = []
        for call, dep in self.pending_recovered:
            if self.has_seen(call.key()):
                continue
            if self.dep_ok(dep):
                yield from self.apply(call, "FREE_APP")
                self.probe.count("recoveries", "FREE_APP")
                progressed = True
            else:
                remaining.append((call, dep))
        self.pending_recovered = remaining
        return progressed

    # -- request paths (cases 1-3) ---------------------------------------

    def query(self, method: str, arg: Any) -> Event:
        """Case 1, QUERY, without a process: a deferred start, one CPU
        hold, and a callback on it that answers the returned event — in
        the slots a process's start, charge and completion took."""
        result = Event(self.env)

        def answer(_hold: Event) -> None:
            self.probe.trace_apply("QUERY", method, self.name, 0, arg)
            try:
                value = self.spec.run_query(method, arg, self.effective_state())
            except Exception as exc:  # noqa: BLE001 - the caller's to handle
                result.fail(exc)
            else:
                result.succeed(value)

        def start() -> None:
            hold = self.rnode.cpu.hold(QUERY_CPU_US)
            hold.callbacks.append(answer)

        self.env.call_later(0, start)
        return result

    # Case 2: reducible — summarize locally, one remote write per peer.
    def do_reduce(self, method: str, arg: Any):
        yield self.rnode.cpu.hold(runtime_config.LOCAL_CPU_US)
        call = self.make_call(method, arg)
        self.probe.span_begin("invoke", method, call.origin, call.rid)
        if method not in self._always and not self.spec.invariant(
            self.spec.apply_call(call, self.effective_state())
        ):
            self.probe.span_end("invoke", method, call.origin, call.rid)
            self.probe.count("rejections", "impermissible")
            raise ImpermissibleError(f"{call} violates the invariant")
        summarizer = self.spec.summarizer_of(method)
        seq, current, counts = self.summary_mirror[summarizer.group]
        combined = summarizer.combine(current, call)
        counts = dict(counts)
        counts[method] = counts.get(method, 0) + 1
        seq += 1
        self.summary_mirror[summarizer.group] = (seq, combined, counts)
        slot_bytes = render_summary(
            seq, combined, counts, SUMMARY_SLOT_SIZE,
            codec=self.codec,
        )
        region_name = s_region(summarizer.group, self.name)
        # Local install first (the REDUCE transition's own-process part).
        own_region = self.rnode.regions[region_name]
        own_region.write(0, slot_bytes)
        self.probe.trace_apply("REDUCE", method, call.origin, call.rid, arg)
        self.probe.span_end("invoke", method, call.origin, call.rid)
        # A retried summary write re-renders the region's CURRENT bytes
        # (used prefix only), so it never replaces a newer summary with
        # a stale one and never ships the whole reserved region.
        writes = [
            (
                self.rnode.qp_to(peer),
                self.rnode.region_of(peer, region_name),
                0,
                lambda region=own_region: current_record_bytes(region),
            )
            for peer in self.transport.peers
        ]
        message = self.codec.encode_s_backup(summarizer.group, slot_bytes)
        self.probe.span_begin("propagate", method, call.origin, call.rid)
        self.probe.trace_transfer(
            self._s_labels[summarizer.group], method, call.origin, call.rid,
            len(slot_bytes),
        )
        yield from self.broadcast.broadcast(
            message, writes, is_suspected=self.is_suspected,
            piggyback=self._due_ack_piggyback(),
        )
        self.probe.span_end("propagate", method, call.origin, call.rid)
        return call

    # Case 3: irreducible conflict-free — local apply + F-ring fan-out.
    def do_free(self, method: str, arg: Any):
        yield self.rnode.cpu.hold(runtime_config.LOCAL_CPU_US)
        call = self.make_call(method, arg)
        self.probe.span_begin("invoke", method, call.origin, call.rid)
        post_sigma = self.spec.apply_call(call, self.sigma)
        if not self.permits(call, self.sigma, post_sigma):
            self.probe.span_end("invoke", method, call.origin, call.rid)
            self.probe.count("rejections", "impermissible")
            raise ImpermissibleError(f"{call} violates the invariant")
        dep = self.dep_projection(method)
        # Render the record before σ changes: a call the F ring cannot
        # carry is refused here, not after the origin already holds it.
        try:
            packet = self.codec.encode_call_packet(call, dep)
        except Exception as exc:
            self.probe.span_end("invoke", method, call.origin, call.rid)
            raise SubmitError(f"cannot encode {call}: {exc}") from exc
        if len(packet) > MAX_RECORD_PAYLOAD:
            self.probe.span_end("invoke", method, call.origin, call.rid)
            raise SubmitError(
                f"record of {len(packet)} bytes exceeds ring slots"
            )
        self.sigma = post_sigma
        self.bump_applied(self.name, method)
        self.mark_seen(call.key())
        self.probe.trace_apply("FREE", method, call.origin, call.rid, arg)
        self.probe.span_end("invoke", method, call.origin, call.rid)
        self.probe.span_begin("propagate", method, call.origin, call.rid)
        self.probe.trace_transfer(
            "F", method, call.origin, call.rid, len(packet)
        )
        writes = yield from self.transport.prepare_f_writes(packet)
        message = self.codec.encode_f_backup(packet)
        # Due flow-control acks coalesce onto this fan-out's doorbell
        # batch instead of paying their own post later.
        yield from self.broadcast.broadcast(
            message, writes, is_suspected=self.is_suspected,
            piggyback=self._due_ack_piggyback(),
        )
        self.probe.span_end("propagate", method, call.origin, call.rid)
        return call

    def _due_ack_piggyback(self) -> list:
        """Flow-control acks due now, rendered as piggyback writes."""
        if self.conflict is None:
            return []
        return self.transport.piggyback_ack_writes(self.conflict.leader_of)

    # -- buffer traversal ------------------------------------------------

    def poll_loop(self):
        """Adaptive poller: hot after progress, exponential idle backoff.

        Each empty sweep multiplies the idle wait by :data:`POLL_BACKOFF`
        up to ``max(POLL_IDLE_MAX_US, POLL_INTERVAL_US)`` (the ``max``
        keeps a base interval above the cap honest); any progress snaps
        the wait back down to ``POLL_INTERVAL_US``.
        """
        poll_us = runtime_config.POLL_INTERVAL_US
        idle_us = poll_us
        idle_cap = max(POLL_IDLE_MAX_US, poll_us)
        waited_us = 0.0
        while True:
            progressed = False
            if self.rnode.alive:
                progressed = yield from self.traverse_once(waited_us)
            if progressed:
                idle_us = poll_us
                waited_us = POLL_HOT_US
            else:
                waited_us = idle_us
                idle_us = min(idle_us * POLL_BACKOFF, idle_cap)
            yield self.env.timeout(waited_us)

    def traverse_once(self, waited_us: float = 0.0):
        """One sweep over every ring; ``waited_us`` is the poller's wait
        since the previous sweep (the hole detector's clock)."""
        progressed = False
        labels = self._drain_labels
        for origin, repairer in self.transport.f_repairers.items():
            label = labels.get(origin)
            if label is None:
                label = labels[origin] = f"F<-{origin}"
            try:
                ring_progressed = yield from self.transport.drain(
                    repairer.reader, "FREE_APP", self, label=label
                )
            except RingCorruptionError as corrupt:
                # A checksummed record failed CRC: a bitflipped or torn
                # one-sided write landed.  Quarantine the slot and
                # refetch it from an authoritative copy — detection
                # without delivery, repair without restart.
                ring_progressed = yield from repairer.refetch(corrupt.index)
            except RingError:
                # Lapped while cut off: fast-forward past the
                # overwritten window (recovered out of band) and
                # resume from the writer's surviving records.
                ring_progressed = yield from repairer.resync()
            if ring_progressed:
                repairer.waited = 0.0
            else:
                # Empty sweep: is a lost write blocking this ring?
                ring_progressed = yield from repairer.detect(waited_us)
            progressed |= ring_progressed
        for gid in self.transport.l_readers:
            progressed |= yield from self.conflict.drain_l(gid, waited_us)
        if self.summary_readers:
            progressed |= yield from self.repair_summaries(waited_us)
        if self.pending_recovered:
            progressed |= yield from self.drain_recovered()
        yield from self.transport.flush_acks(self.conflict.leader_of)
        return progressed

    # -- recovery: summary catch-up --------------------------------------

    def pull_summaries(self, owners: Optional[list[str]] = None):
        """One-sided reads of peers' summary slots, adopting any copy
        strictly newer (higher seq) than ours — the summary-transfer
        half of the rejoin/catch-up path.

        ``owners`` restricts which processes' slots to refresh (e.g. a
        single peer just cleared of suspicion); None refreshes all.  A
        local slot that does not parse adopts the first copy that does,
        whatever its seq (the owner's first), and the adoption counts
        as a repair of ring ``S:<group>:<owner>``.
        """
        summary_size = SUMMARY_SLOT_SIZE
        refreshed = 0
        for summarizer in self.spec.summarizers:
            for owner in self.processes:
                if owner == self.name:
                    continue
                if owners is not None and owner not in owners:
                    continue
                region_name = s_region(summarizer.group, owner)
                local = self.rnode.regions[region_name]
                for source in self._summary_sources(owner):
                    qp = self.rnode.qp_to(source)
                    remote = self.rnode.region_of(source, region_name)
                    wc = yield from qp.read(remote, 0, summary_size)
                    if wc.status is not WcStatus.SUCCESS or not wc.data:
                        continue
                    slot = self.summary_readers[(summarizer.group, owner)]
                    slot.read()
                    if slot.damaged:
                        remote_seq, payload = parse_slot(
                            wc.data, 0, summary_size
                        )
                        if payload is None:
                            continue  # this copy is damaged too
                        used = slot_size_for(len(payload))
                        self.transport.note_slot_repair(
                            f"S:{summarizer.group}:{owner}", remote_seq,
                            local.read(0, used), wc.data[:used],
                        )
                        local.write(0, wc.data)
                        refreshed += 1
                        break
                    remote_seq = int.from_bytes(wc.data[:8], "little")
                    local_seq = int.from_bytes(local.read(0, 8), "little")
                    if remote_seq > local_seq:
                        local.write(0, wc.data)
                        refreshed += 1
                    break  # first reachable source wins
        return refreshed

    def repair_summaries(self, waited_us: float = 0.0):
        """Hole detection for summary slots.

        A peer's slot that does not parse (a torn or corrupted write)
        is never replaced by anything but the owner's next summary
        write, and a quiet owner writes none.  So once a damaged slot
        has stayed unreadable for the F-ring hole detector's patience
        (sweeps after a backed-off wait count as the sweeps they
        skipped), it is re-read from its owner.
        """
        repaired = False
        misses = self._slot_misses
        for key, slot in self.summary_readers.items():
            if key[1] == self.name:
                continue
            slot.read()
            if not slot.damaged:
                if misses:
                    misses.pop(key, None)
                continue
            if key not in misses:
                self.probe.count("crc_rejects", f"S:{key[0]}:{key[1]}")
            count = misses.get(key, 0.0) + max(
                waited_us / runtime_config.POLL_INTERVAL_US, 1.0
            )
            if count < HOLE_PATIENCE:
                misses[key] = count
                continue
            misses[key] = 0.0
            self.probe.count("hole_repairs", f"S:{key[0]}:{key[1]}")
            adopted = yield from self.pull_summaries(owners=[key[1]])
            repaired |= adopted > 0
        return repaired

    def _summary_sources(self, owner: str) -> list[str]:
        """Sources to read ``owner``'s summary from: the owner itself
        (authoritative), then any other live, unsuspected peer."""
        others = [
            p for p in self.processes if p not in (self.name, owner)
        ]
        candidates = [owner] + others
        return [
            p for p in candidates
            if self.rnode.fabric.nodes[p].alive and not self.is_suspected(p)
        ]
