"""Layer 1 — one-sided ring transport (paper §4 "Meta-data").

:class:`RingTransport` owns everything about moving buffered-call
records between nodes over one-sided writes:

- registration of every Hamband memory region at this node (F ring per
  peer, L ring per synchronization group, summary slot per
  (summarization group, process), and the tiny flow-control ack slots),
- the F-ring reader per peer and the writer mirror toward each peer's
  copy of *our* F ring,
- the L-ring reader per synchronization group (the leader-side L
  writers live inside Mu, which shares the ring layout),
- writer backpressure against reader acks (`render_with_backpressure`)
  and the reader-side ack flush (`flush_acks` / `post_ack`),
- the generic drain loop over a ring (`drain`), which delegates all
  application *decisions* (dedup, dependency checks, the apply itself)
  to an apply sink — the transport never touches σ or A,
- :class:`RingRepairer`, the one way a ring copy is repaired: hole
  detection, fill, refetch of a CRC-rejected slot, the scrubber's
  at-rest compare and the lapped-reader resync, for F rings and L logs
  alike.

The sink protocol (duck-typed; :class:`~repro.runtime.applier.ApplyEngine`
implements it):

- ``sink.has_seen(key) -> bool`` — drop duplicates,
- ``sink.dep_ok(dep) -> bool`` — may the head record apply yet?
- ``sink.apply(call, rule)`` — a generator applying the call (CPU cost
  included).
"""

from __future__ import annotations

from typing import Callable, Optional

from collections import deque

from ..core import Coordination
from ..rdma import RdmaNode, WcStatus
from ..sim import SeedSequence
from . import config as runtime_config
from .config import (
    RuntimeConfig,
    f_ack_region,
    f_region,
    l_ack_region,
    l_region,
    s_region,
)
from .heartbeat import PeerHealth
from .probe import RuntimeProbe
from .ringbuffer import (
    RingError,
    RingReader,
    RingWriter,
    classify_corruption,
    parse_record,
    record_continues,
    ring_region_size,
    scan_frontier,
)
from .summary import SUMMARY_SLOT_SIZE
from .wire import WireCodec, WireError

__all__ = ["HOLE_PATIENCE", "REPAIR_WINDOW", "RingRepairer", "RingTransport"]

#: Upper bound on records parsed per drain sweep (one region read).
_DRAIN_RUN = 64
#: Empty sweeps (in poll intervals) before the hole detector suspects
#: a lost write on a ring or a damaged summary slot.
HOLE_PATIENCE = 256
#: Ring slots fetched per one-sided read while filling a ring copy:
#: bounded reads, not whole ring regions.
REPAIR_WINDOW = 64
#: Retry jitter fraction: each backoff is multiplied by
#: ``1 ± uniform(0, RETRY_JITTER)`` to de-synchronize retry storms.
RETRY_JITTER = 0.25
#: Hedged reads: fire a second read at the next-best source after this
#: long, until enough latency samples accrue to use their p99 instead.
HEDGE_DELAY_US = 8.0
#: A writer facing a full ring re-reads the reader's ack this often,
#: and gives up on the reader after ``BACKPRESSURE_LIMIT`` waits.
BACKPRESSURE_WAIT_US = 1.0
BACKPRESSURE_LIMIT = 20000


class RingTransport:
    """Ring-buffer data plane of one node: regions, readers, writers."""

    def __init__(self, rnode: RdmaNode, coordination: Coordination,
                 processes: list[str], config: RuntimeConfig,
                 health: PeerHealth,
                 probe: Optional[RuntimeProbe] = None,
                 codec: Optional[WireCodec] = None,
                 is_suspected: Callable[[str], bool] = lambda peer: False):
        self.rnode = rnode
        self.env = rnode.env
        self.name = rnode.name
        self.coordination = coordination
        self.processes = sorted(processes)
        self.peers = [p for p in self.processes if p != self.name]
        self.config = config
        self.probe = probe or RuntimeProbe()
        self.codec = codec or WireCodec()
        #: Flow-control re-arm baselines: peers whose backpressure fell
        #: back to ring-sizing mode and are being watched for fresh
        #: acks after a heal/rejoin resync (see rearm_flow_control).
        self._rearm_baseline: dict[str, int] = {}
        #: Per F ack region: the reader it names and the ``F-><reader>``
        #: flow-control label, formatted once instead of per record.
        self._flow_labels: dict[str, tuple[str, str]] = {}
        #: Peer-health latency tracker (the node's shared one).  Timed
        #: one-sided ops feed it, and the hedged-read path ranks
        #: fallback sources by its EWMA.
        self.health = health
        #: The failure detector's verdict on a peer: a suspected reader
        #: stops throttling its writer, and repair sources skip it.
        self.is_suspected = is_suspected
        #: Retry-jitter substream: deterministic per (seed, node).
        self._retry_rng = SeedSequence(config.seed).derive(
            f"retry:{self.name}"
        )
        #: Recent successful repair/fetch read latencies — the adaptive
        #: hedge delay is their p99.
        self._read_lat: deque = deque(maxlen=64)
        self._init_rings()

    # -- setup -----------------------------------------------------------

    def _ring(self, name: str) -> RingReader:
        """Register a ring region; returns a reader over it."""
        slots, size = runtime_config.RING_SLOTS, self.config.slot_size
        region = self.rnode.register(name, ring_region_size(slots, size))
        return RingReader(region, slots, size)

    def _writer(self) -> RingWriter:
        return RingWriter(runtime_config.RING_SLOTS, self.config.slot_size)

    def _init_rings(self) -> None:
        #: Our copy of each peer's F ring, and its repairer.
        self.f_readers: dict[str, RingReader] = {}
        self.f_repairers: dict[str, RingRepairer] = {}
        #: Our writer state toward each peer's copy of our F ring.
        self.f_writers: dict[str, RingWriter] = {}
        #: Last ring-head count acknowledged back to each writer.
        self._acked: dict[str, int] = {}
        #: Writer state for the local authoritative mirror of our own F
        #: ring (never throttled: it is a plain local memory write).
        self.f_mirror = self._writer()
        #: The mirror itself: the same records we fan out to peers, kept
        #: locally (and remotely readable) as the authoritative source
        #: every other copy of our ring is repaired from.
        self._ring(f_region(self.name))
        self.l_readers = {
            group.gid: self._ring(l_region(group.gid))
            for group in self.coordination.sync_groups()
        }
        self._register_slots(self.name)
        for peer in self.peers:
            self._wire_peer(peer)
            self.f_writers[peer].reader_acked = 0

    def _register_slots(self, owner: str) -> None:
        """Register ``owner``'s summary slots and, for a peer, the ack
        slots its reads of our rings are acknowledged in."""
        if owner != self.name:
            self.rnode.register(f_ack_region(owner), 8)
            for group in self.coordination.sync_groups():
                self.rnode.register(l_ack_region(group.gid, owner), 8)
        for summarizer in self.coordination.spec.summarizers:
            self.rnode.register(
                s_region(summarizer.group, owner), SUMMARY_SLOT_SIZE
            )

    def _wire_peer(self, origin: str) -> None:
        """Regions, reader, repairer and writer for one peer; the
        origin's own mirror is authoritative for its ring, then any
        peer's replica."""
        self._register_slots(origin)
        self.f_readers[origin] = reader = self._ring(f_region(origin))
        self.f_repairers[origin] = RingRepairer(
            self, f"F:{origin}", reader, f_region(origin),
            lambda: [origin, *self.peers],
        )
        self.f_writers[origin] = self._writer()

    # -- membership ------------------------------------------------------

    def add_peer(self, peer: str) -> None:
        """Rewire the data plane for a newly joined ``peer``.

        Registers its F ring copy, ack slots, and summary slots, then
        wires reader/writer state.  The new F writer starts at the
        MIRROR's tail: record bytes at one absolute index are identical
        across copies, and the joiner's state transfer bulk-installs the
        committed prefix — the writer only ships records from here on.
        Flow control starts in ring-sizing mode, armed at the joiner's
        first observed ack (a fresh reader has acked nothing yet, and a
        mirror tail past one lap would wedge a zero-armed writer).
        """
        if peer == self.name or peer in self.f_readers:
            return
        self._wire_peer(peer)
        self.f_writers[peer].tail = self.f_mirror.tail
        self._rearm_baseline[peer] = 0
        self.processes = sorted([*self.processes, peer])
        self.peers = [p for p in self.processes if p != self.name]

    def remove_peer(self, peer: str) -> None:
        """Unwire a departed ``peer`` from the data plane.

        Only the WRITER side goes: the reader and its region are kept so
        records the peer landed before leaving still drain, and our
        at-rest copy of its ring stays available as a repair source.
        """
        if peer not in self.f_readers and peer not in self.processes:
            return
        self.f_writers.pop(peer, None)
        self._rearm_baseline.pop(peer, None)
        if peer in self.processes:
            self.processes.remove(peer)
        self.peers = [p for p in self.processes if p != self.name]

    # -- writer path -----------------------------------------------------

    def render_with_backpressure(self, writer: RingWriter,
                                 ack_region_name: str, payload: bytes,
                                 record: Optional[bytes] = None,
                                 record_index: Optional[int] = None):
        """Render a ring record, waiting for reader progress when full.

        The reader's acks land in our local ack region; refreshing it is
        a local memory read.  A reader that stops acking entirely (dead
        or suspected) stops throttling us: we fall back to ring-sizing
        mode rather than blocking behind a corpse (past
        :data:`BACKPRESSURE_LIMIT` waits, a ``backpressure`` give-up) — until
        :meth:`rearm_flow_control` observes the reader acking again.

        ``record`` may carry record bytes pre-rendered for ring index
        ``record_index`` (the fan-out path renders ONCE against the
        mirror) — then only the slot claim happens here.  The prebuilt
        bytes are used only while this writer's tail still equals that
        index: concurrent fan-outs interleaving through the
        backpressure waits can reorder per-writer claims, and a record
        carries its index's generation canary, so a drifted writer
        re-renders at its own tail instead.
        """
        labels = self._flow_labels.get(ack_region_name)
        if labels is None:
            reader = ack_region_name.rsplit(":", 1)[-1]
            labels = self._flow_labels[ack_region_name] = (
                reader, f"F->{reader}"
            )
        reader, label = labels
        waited = 0
        while True:
            acked = self.rnode.regions[ack_region_name].read_u64(0)
            # A reader can never have consumed records we have not
            # written: a corrupt/torn ack write (tiny 8-byte one-sided
            # writes are just as exposed as records) must not disable
            # overrun protection with a garbage value.
            acked = min(acked, writer.tail)
            if writer.reader_acked is None:
                self._maybe_rearm(writer, reader, acked)
            writer.ack_up_to(acked)
            if writer.reader_acked is not None:
                self.probe.peak(
                    "ring_highwater", label,
                    writer.tail - writer.reader_acked,
                )
            try:
                if record is not None and writer.tail == record_index:
                    return writer.claim(record), record
                return writer.render(payload)
            except RingError:
                waited += 1
                self.probe.count("backpressure_stalls", label)
                if waited > BACKPRESSURE_LIMIT:
                    self.probe.giveup("backpressure", reader)
                elif not self.is_suspected(reader):
                    yield self.env.timeout(BACKPRESSURE_WAIT_US)
                    continue
                self._disarm(writer, reader)
                if record is not None and writer.tail == record_index:
                    return writer.claim(record), record
                return writer.render(payload)

    def _disarm(self, writer: RingWriter, reader: str) -> None:
        """Stop throttling on ``reader`` (dead/stuck): ring-sizing mode."""
        writer.reader_acked = None
        self._rearm_baseline.pop(reader, None)

    def _maybe_rearm(self, writer: RingWriter, reader: str,
                     acked: int) -> None:
        """Re-arm flow control once a fallen-back reader acks again.

        Armed by :meth:`rearm_flow_control` (heal/rejoin resync); the
        first ack *above* the recorded baseline proves the reader is
        draining its ring again, so throttling against it is safe — and
        necessary, or a once-suspected reader would never be protected
        from overrun again.
        """
        baseline = self._rearm_baseline.get(reader)
        if baseline is not None and acked > baseline:
            writer.reader_acked = acked
            del self._rearm_baseline[reader]
            self.probe.count("flow_rearms", f"F->{reader}")

    def rearm_flow_control(self, peer: str) -> None:
        """Watch for ``peer``'s acks resuming after a heal/rejoin.

        Called when a suspected peer proves alive again (``on_clear``)
        or after our own restart: any writer that fell back to
        ring-sizing mode records the current ack value as a baseline
        and re-arms backpressure at the next observed progress.
        """
        writer = self.f_writers.get(peer)
        if writer is None:
            return
        if writer.reader_acked is not None:
            return  # still armed: nothing to re-arm
        self._rearm_baseline[peer] = self.rnode.regions[
            f_ack_region(peer)
        ].read_u64(0)

    def prepare_f_writes(self, packet: bytes):
        """Render ``packet`` ONCE and claim its slots in every peer's F
        writer; return the (qp, region, offset, bytes) write list for
        the broadcaster's doorbell batch — one write per peer, two for
        a record whose span crosses the wrap.

        The mirror and the per-peer writers each advance their tail
        exactly once per fan-out, so in the common (uncontended) case
        the record bytes — including the generation canary — are
        identical for all of them: one render, N claims.  A writer
        whose tail drifted from the mirror's (concurrent fan-outs
        interleaving through backpressure) re-renders for its own tail
        inside :meth:`render_with_backpressure`.
        """
        writes = []
        # Authoritative local mirror first: repair sources read this
        # region.
        mirror = self.f_mirror
        index = mirror.tail
        record = mirror.build(packet)
        region = self.rnode.regions[f_region(self.name)]
        for offset, data in mirror.pieces(mirror.claim(record), record):
            region.write(offset, data)
        for peer in self.peers:
            offset, slot = yield from self.render_with_backpressure(
                self.f_writers[peer], f_ack_region(peer), packet,
                record=record, record_index=index,
            )
            qp = self.rnode.qp_to(peer)
            remote = self.rnode.region_of(peer, f_region(self.name))
            for piece_offset, data in mirror.pieces(offset, slot):
                writes.append((qp, remote, piece_offset, data))
        return writes

    # -- reader path -----------------------------------------------------

    def drain(self, reader: RingReader, rule: str, sink, label: str = ""):
        """Apply consecutive ready records at ``reader``'s head.

        Each sweep peeks a *run* of landed records, parsed in place,
        and decodes each record exactly once, instead of re-peeking and
        re-parsing the head record-at-a-time.  Blocks at the first
        record whose dependency array is not yet satisfied — the head
        blocks the buffer, as in the semantics.  Returns True when at
        least one record applied.
        """
        progressed = False
        drained = 0
        blocked = False
        while not blocked:
            run = reader.peek_run(_DRAIN_RUN)
            if not run:
                break
            for payload in run:
                try:
                    call, dep = self.codec.decode_call_packet(payload)
                except WireError:
                    # A CRC-valid record the codec rejects: a writer
                    # bug.  Skip it — losing the call (the checker will
                    # flag the divergence) beats crashing the poll
                    # worker.
                    self.probe.count("wire_rejects", label or "F")
                    reader.advance()
                    continue
                if sink.has_seen(call.key()):
                    reader.advance()  # duplicate via recovery path
                    continue
                if not sink.dep_ok(dep):
                    blocked = True
                    break
                self.probe.trace_transfer(
                    label or "F", call.method, call.origin, call.rid,
                    len(payload),
                )
                yield from sink.apply(call, rule)
                reader.advance()
                drained += 1
                progressed = True
        if drained and label:
            # Reader-side consumption total; occupancy (tail − acked)
            # is the writer's to report as ring_highwater.
            self.probe.count("records_drained", label, drained)
        return progressed

    # -- flow-control acks -----------------------------------------------

    def _due_acks(self, leader_of: Callable[[str], str]):
        """Acks owed right now: (key, target, region name, head).

        One entry per ring whose consumption advanced ``ACK_EVERY``
        records past the last ack.  A target of None (this node leads
        the L ring) needs no wire write — just the bookkeeping.
        """
        every = runtime_config.ACK_EVERY
        due = []
        for origin, reader in self.f_readers.items():
            key = f"F:{origin}"
            if reader.head - self._acked.get(key, 0) >= every:
                due.append((key, origin, f_ack_region(self.name),
                            reader.head))
        for gid, reader in self.l_readers.items():
            key = f"L:{gid}"
            if reader.head - self._acked.get(key, 0) >= every:
                leader = leader_of(gid)
                target = None if leader == self.name else leader
                due.append((key, target, l_ack_region(gid, self.name),
                            reader.head))
        return due

    def flush_acks(self, leader_of: Callable[[str], str]):
        """Push ring-progress acks back to the writers (flow control).

        ``leader_of(gid)`` names the current writer of an L ring (the
        group's leader owns the corresponding ack slot).
        """
        for key, target, region_name, head in self._due_acks(leader_of):
            if target is not None:
                yield from self.post_ack(target, region_name, head)
                self.probe.count("ack_flushes", key)
            self._acked[key] = head

    def piggyback_ack_writes(self, leader_of: Callable[[str], str]):
        """Due acks as (qp, region, offset, bytes) write tuples, to be
        coalesced onto an outbound doorbell batch instead of paying
        their own post + completion wait.

        Marks the acks flushed immediately: a piggybacked ack that is
        lost with its batch is simply re-sent ``ACK_EVERY`` records
        later (flow control errs on the throttled side, never the
        unsafe side).
        """
        writes = []
        for key, target, region_name, head in self._due_acks(leader_of):
            if target is not None:
                writes.append(
                    (
                        self.rnode.qp_to(target),
                        self.rnode.region_of(target, region_name),
                        0,
                        head.to_bytes(8, "little"),
                    )
                )
                self.probe.count("ack_flushes", key)
            self._acked[key] = head
        return writes

    def post_ack(self, target: str, region_name: str, head: int):
        region = self.rnode.region_of(target, region_name)
        qp = self.rnode.qp_to(target)
        yield from self.retry_write(
            qp, region, 0, head.to_bytes(8, "little"), label="ack"
        )

    # -- recovery: retries -----------------------------------------------

    def retry_write(self, qp, region, offset: int, payload: bytes,
                    label: str = "write"):
        """One-sided write with capped exponential backoff on transient
        failures (injected NIC faults, partition blips).

        Each backoff is jittered by ``±RETRY_JITTER`` (drawn from a
        per-node seed substream, so same seed ⇒ same schedule) to
        de-synchronize retry storms.

        Permission errors are *not* transient — they are Mu's leader-
        change signal and must surface immediately.  Returns the last
        :class:`~repro.rdma.WorkCompletion` either way.
        """
        delay = runtime_config.OP_RETRY_US
        wc = None
        for _attempt in range(runtime_config.OP_RETRY_LIMIT + 1):
            started = self.env.now
            yield self.rnode.cpu.hold(qp.config.post_cpu_us)
            wc = yield qp.post_write(region, offset, payload)
            if (
                wc.status is WcStatus.SUCCESS
                or wc.status is WcStatus.PERMISSION_ERROR
            ):
                if wc.status is WcStatus.SUCCESS:
                    self.health.record(qp.remote.name,
                                       self.env.now - started)
                return wc
            if not self.rnode.alive:
                return wc  # we crashed mid-retry: stop
            self.probe.count("op_retries", label)
            wait = delay * (
                1.0 + self._retry_rng.uniform(-RETRY_JITTER, RETRY_JITTER)
            )
            yield self.env.timeout(wait)
            delay = min(delay * 2, runtime_config.OP_RETRY_CAP_US)
        return wc

    # -- hedged reads ------------------------------------------------------

    def _hedge_delay_us(self) -> float:
        """Adaptive hedge trigger: p99 of recent successful repair-read
        latencies, or :data:`HEDGE_DELAY_US` until enough samples accrue."""
        if len(self._read_lat) >= 8:
            ordered = sorted(self._read_lat)
            return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
        return HEDGE_DELAY_US

    def _read_from(self, source: str, region_name: str, offset: int,
                   length: int):
        """One one-sided read, feeding the latency books on success."""
        qp = self.rnode.qp_to(source)
        remote = self.rnode.region_of(source, region_name)
        started = self.env.now
        wc = yield from qp.read(remote, offset, length)
        if wc.status is WcStatus.SUCCESS:
            latency = self.env.now - started
            self._read_lat.append(latency)
            self.health.record(source, latency)
        return wc

    def hedged_read(self, sources: list[str], region_name: str,
                    offset: int, length: int, label: str = "read"):
        """Read with a hedge: post to ``sources[0]``; if it hasn't
        completed within the adaptive hedge delay, post the same read
        to ``sources[1]`` and take whichever completes first.

        Returns ``(wc, source)`` for the winning read (a failed winner
        falls back to awaiting the other read).  With a single source
        this degenerates to a plain read.
        """
        primary = sources[0]
        first = self.env.process(
            self._read_from(primary, region_name, offset, length),
            name=f"hedge1:{self.name}:{label}",
        )
        if len(sources) < 2:
            wc = yield first
            return wc, primary
        timer = self.env.timeout(self._hedge_delay_us())
        done = yield self.env.any_of([first, timer])
        if first in done:
            return done[first], primary
        self.probe.count("hedged_reads", label)
        backup = sources[1]
        second = self.env.process(
            self._read_from(backup, region_name, offset, length),
            name=f"hedge2:{self.name}:{label}",
        )
        done = yield self.env.any_of([first, second])
        if second in done:
            wc = done[second]
            if wc.status is WcStatus.SUCCESS:
                self.probe.count("hedge_wins", label)
                return wc, backup
            wc = yield first  # hedge failed: fall back to the primary
            return wc, primary
        wc = done[first]
        if wc.status is WcStatus.SUCCESS:
            return wc, primary
        wc = yield second  # primary failed: the hedge is the fallback
        return wc, backup

    def note_slot_repair(self, ring: str, index: int, before: bytes,
                         record: bytes) -> None:
        """Count and trace one damaged slot rewritten with ``record``,
        its pre-repair bytes ``before`` classified torn or bitflip."""
        kind = classify_corruption(before, record)
        if kind == "torn":
            self.probe.count("torn_detected", ring)
        self.probe.trace_repair(ring, index, kind)


class RingRepairer:
    """Brings this node's copy of one ring up to an authoritative prefix.

    One per ring copy a node reads: each peer's F ring (built by the
    transport) and each L log (built by the conflict coordinator).
    Record bytes at one absolute index are identical in every copy, so
    a copy is repaired from the others by one-sided reads, in the order
    ``candidates()`` names them — the authority first: an F ring's
    origin mirror or an L log's leader, both written by local memory
    writes that never meet an in-flight fault.  Candidates that are this
    node, suspected or down are skipped.  :meth:`detect` finds holes,
    :meth:`fill` installs missing slots, :meth:`refetch` replaces a
    CRC-rejected slot, :meth:`compare` heals at-rest divergence (the
    scrubber) and :meth:`resync` resumes a lapped reader.
    """

    def __init__(self, transport: RingTransport, ring: str,
                 reader: RingReader, region_name: str,
                 candidates: Callable[[], list[str]]):
        self.transport = transport
        #: Count, trace and hedge label: ``F:<origin>`` or ``L:<gid>``.
        self.ring = ring
        self.reader = reader
        self.region_name = region_name
        self.candidates = candidates
        #: Poll intervals waited since the ring last made progress.
        self.waited = 0.0

    def _usable(self, source: str) -> bool:
        transport = self.transport
        return (source != transport.name
                and not transport.is_suspected(source)
                and transport.rnode.fabric.nodes[source].alive)

    def _sources(self) -> list[str]:
        return [s for s in dict.fromkeys(self.candidates()) if self._usable(s)]

    def detect(self, waited_us: float = 0.0):
        """Hole detection after a sweep of the ring made no progress;
        ``waited_us`` is the poller's wait since its previous sweep.

        After :data:`HOLE_PATIENCE` poll intervals of idle simulated time
        (a sweep after a backed-off wait counts the sweeps it skipped),
        probe ahead of the head at 1, 2, 4 … 1024 slots: a record ahead
        of a missing head means a write was lost.  With nothing ahead, a
        damaged frontier record still wedges the ring (a flipped length
        field reads as "not landed"), so non-zero head bytes that do not
        parse start a fill too, and are classified as a damaged slot;
        head bytes that are last lap's record are an idle writer, like
        a virgin head.  Each detection that starts a fill counts one
        ``hole_repairs``.  Returns whether the fill installed a record.
        """
        waited = self.waited + max(
            waited_us / runtime_config.POLL_INTERVAL_US, 1.0
        )
        if waited < HOLE_PATIENCE:
            self.waited = waited
            return False
        self.waited = 0.0
        reader = self.reader
        head = reader.head
        slots = reader.slots
        before = None
        ahead = 1
        while reader.record_at(head + ahead) is None:
            ahead *= 2
            if ahead > 1024:
                before = reader.slot_bytes(head)
                if not any(before) or (
                    head >= slots
                    and parse_record(before, head - slots, slots) is not None
                ):
                    return False  # the writer is idle
                break
        self.transport.probe.count("hole_repairs", self.ring)
        _end, installed = yield from self.fill(head)
        if before is not None and parse_record(before, head, slots) is None:
            record = reader.record_at(head)
            if record is not None:
                self.transport.note_slot_repair(
                    self.ring, head, before, record
                )
        return installed > 0

    def fill(self, lo: int, hi: Optional[int] = None,
             sources: Optional[list[str]] = None):
        """Install every slot of ``[lo, hi)`` our copy lacks, stopping at
        the first index no source holds; ``hi`` defaults to one lap past
        ``lo``, ``sources`` to the usable candidates.  Returns the end of
        the last whole record in the prefix walked (the head a complete
        drain of it reaches) and the number of records installed.

        A missing slot is served from a cached window of the first
        source, one :meth:`~RingTransport.hedged_read` of up to
        :data:`REPAIR_WINDOW` slots per window miss; a source whose
        window read fails is dropped for the rest of the fill.  With
        the default sources the first is the authority, whose copy holds
        the whole decided prefix — an F origin's mirror is written before
        any replica, an L leader writes its own copy once a majority
        acked — so a slot its window lacks is the frontier; records
        still in flight past it land by replication or by a later
        :meth:`detect`.  Any other copy may lack a slot another holds,
        so a slot missing from its window (the hedge may have won the
        read, or ``sources`` were given) is read index by index from the
        other sources.  A new leader adopting a log passes its own
        sources: the old leader's copy may lag a record a majority holds.
        """
        reader = self.reader
        hi = lo + reader.slots if hi is None else hi
        if sources is None:
            authority, sources = self.candidates()[0], self._sources()
        else:
            authority, sources = None, list(sources)
        installed = 0
        start, data, source = lo, b"", None
        index = end = lo
        while index < hi:
            record = reader.record_at(index)
            if record is None:
                if not reader.covers(start, data, index):
                    start, data, source = yield from self._read_window(
                        sources, index, hi
                    )
                if reader.covers(start, data, index):
                    record = reader.record_in(start, data, index)
                if record is None and source != authority:
                    record = yield from self._read_slot(
                        [s for s in sources if s != source], index
                    )
                if record is None:
                    break  # the frontier: no source holds this index
                reader.region.write(reader.offset_of(index), record)
                installed += 1
            index += 1
            if not record_continues(record):
                end = index
        return end, installed

    def _read_window(self, sources: list[str], index: int, hi: int):
        """``(index, bytes, source)`` of a window read from
        ``sources[0]``, hedged to the healthiest other source (which
        may win); drops sources whose read fails, and is
        ``(index, b"", None)`` once none is left."""
        transport = self.transport
        span = self.reader.window(index, min(REPAIR_WINDOW, hi - index))
        while sources:
            wc, source = yield from transport.hedged_read(
                [sources[0], *transport.health.rank(sources[1:])[:1]],
                self.region_name, *span, label=self.ring,
            )
            if wc.status is WcStatus.SUCCESS and wc.data is not None:
                return index, wc.data, source
            del sources[0]
        return index, b"", None

    def _read(self, source: str, offset: int, length: int):
        """Bytes of one plain one-sided read of ``source``'s copy, or
        None when it fails."""
        rnode = self.transport.rnode
        wc = yield from rnode.qp_to(source).read(
            rnode.region_of(source, self.region_name), offset, length
        )
        return wc.data if wc.status is WcStatus.SUCCESS else None

    def _read_slot(self, sources: list[str], index: int):
        """``index``'s record from the first of ``sources`` holding it,
        one one-sided read each; None when none does."""
        reader = self.reader
        for source in sources:
            data = yield from self._read(source, *reader.window(index, 1))
            if data is not None:
                record = reader.record_in(index, data, index)
                if record is not None:
                    return record
        return None

    def refetch(self, index: int):
        """Replace one CRC-rejected slot: quarantine it (zeroed, it
        reads as a hole), fill it, and classify its pre-repair bytes as
        torn or bitflip (:meth:`~RingTransport.note_slot_repair`).
        Returns whether the slot was restored; one left quarantined is
        retried by :meth:`detect` once a source is reachable."""
        reader = self.reader
        before = reader.slot_bytes(index)
        self.transport.probe.count("crc_rejects", self.ring)
        reader.quarantine(index)
        # Any copy will do: an L leader's own copy may not hold yet a
        # record that already reached ours.
        yield from self.fill(index, index + 1, self._sources())
        record = reader.record_at(index)
        if record is None:
            return False
        self.transport.note_slot_repair(self.ring, index, before, record)
        return True

    def compare(self, lo: int, count: int):
        """Heal at-rest damage in ``count`` slots from ``lo`` (clipped at
        the wrap): one read of the authority's window, compared byte for
        byte with ours.  A slot that does not parse, or parses to other
        record bytes — a different well-formed record, which no CRC
        catches — is overwritten and traced as a repair.  Returns
        ``(healed, covered)``, the slots healed and the slots the window
        covered, or None when the authority is this node, suspected or
        down and nothing was read.
        """
        authority = self.candidates()[0]
        if not self._usable(authority):
            return None
        reader = self.reader
        offset, length = reader.window(lo, count)
        covered = length // reader.slot_size
        data = yield from self._read(authority, offset, length)
        if data is None:
            return 0, covered
        healed = 0
        for index in range(lo, lo + covered):
            authoritative = reader.record_in(lo, data, index)
            if authoritative is None:
                continue  # the authority no longer holds this index
            local = reader.record_at(index)
            if local == authoritative:
                continue
            kind = "scrub" if local is None else classify_corruption(
                reader.slot_bytes(index), authoritative
            )
            reader.region.write(reader.offset_of(index), authoritative)
            self.transport.probe.trace_repair(self.ring, index, kind)
            healed += 1
        self.transport.probe.count("scrub_passes", self.ring)
        return healed, covered

    def resync(self):
        """Recover a reader *lapped* while cut off: the writer, disarmed
        by our silence, overwrote records we never consumed, and those
        reach us out of band (summary transfer, broadcast recovery).  A
        whole-region read of the first source holding a parseable record
        gives the writer's frontier; the head fast-forwards to the oldest
        index still present and :meth:`fill` completes our copy.
        Returns whether the head moved or a record was installed.
        """
        reader = self.reader
        frontier = None
        for source in self._sources():
            data = yield from self._read(
                source, *reader.window(0, reader.slots)
            )
            if data is not None:
                frontier = scan_frontier(
                    data, reader.head, reader.slots, reader.slot_size
                )
            if frontier is not None:
                break
        if frontier is None:
            return False  # nobody reachable holds a parseable record
        oldest_surviving = max(frontier - reader.slots, 0)
        moved = oldest_surviving > reader.head
        reader.fast_forward(oldest_surviving)
        self.transport.probe.count("ring_resyncs", self.ring)
        _end, installed = yield from self.fill(reader.head)
        return moved or installed > 0
