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
  to an apply sink — the transport never touches σ or A.

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
    ring_region_size,
    scan_frontier,
)
from .summary import slot_size_for
from .wire import WireCodec, WireError

__all__ = ["HOLE_PATIENCE", "RingTransport"]

#: Upper bound on records parsed per drain sweep (one region read).
_DRAIN_RUN = 64
#: Empty sweeps (in poll intervals) before the hole detector suspects
#: a lost write on an F ring or a damaged summary slot.
HOLE_PATIENCE = 256
#: Retry jitter fraction: each backoff is multiplied by
#: ``1 ± uniform(0, RETRY_JITTER)`` to de-synchronize retry storms.
RETRY_JITTER = 0.25
#: Hedged reads: fire a second read at the next-best source after this
#: long, until enough latency samples accrue to use their p99 instead.
HEDGE_DELAY_US = 8.0


class RingTransport:
    """Ring-buffer data plane of one node: regions, readers, writers."""

    def __init__(self, rnode: RdmaNode, coordination: Coordination,
                 processes: list[str], config: RuntimeConfig,
                 health: PeerHealth,
                 probe: Optional[RuntimeProbe] = None,
                 codec: Optional[WireCodec] = None):
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
        #: Peer-health latency tracker (the node's shared one).  Timed
        #: one-sided ops feed it, and the hedged-read path ranks
        #: fallback sources by its EWMA.
        self.health = health
        #: Retry-jitter substream: deterministic per (seed, node).
        self._retry_rng = SeedSequence(config.seed).derive(
            f"retry:{self.name}"
        )
        #: Recent successful repair/fetch read latencies — the adaptive
        #: hedge delay is their p99.
        self._read_lat: deque = deque(maxlen=64)
        self._register_regions()
        self._init_rings()

    # -- setup -----------------------------------------------------------

    def _register_ring(self, name: str) -> None:
        cfg = self.config
        self.rnode.register(name, ring_region_size(cfg.ring_slots,
                                                   cfg.slot_size))

    def _register_regions(self) -> None:
        cfg = self.config
        for peer in self.peers:
            self._register_ring(f_region(peer))
        #: Our own F ring mirror: the same records we fan out to peers,
        #: kept locally (and remotely readable) so any node can repair a
        #: hole in its copy of our ring by reading the authoritative
        #: source — the rejoin/catch-up path reads these.
        self._register_ring(f_region(self.name))
        for group in self.coordination.sync_groups():
            self._register_ring(l_region(group.gid))
        for reader in self.peers:
            self.rnode.register(f_ack_region(reader), 8)
            for group in self.coordination.sync_groups():
                self.rnode.register(l_ack_region(group.gid, reader), 8)
        summary_size = slot_size_for(cfg.summary_payload)
        for summarizer in self.coordination.spec.summarizers:
            for owner in self.processes:
                self.rnode.register(
                    s_region(summarizer.group, owner), summary_size
                )

    def _init_rings(self) -> None:
        cfg = self.config
        self.f_readers = {
            peer: RingReader(
                self.rnode.regions[f_region(peer)],
                cfg.ring_slots,
                cfg.slot_size,
            )
            for peer in self.peers
        }
        #: Our writer state toward each peer's copy of our F ring.
        self.f_writers = {
            peer: RingWriter(cfg.ring_slots, cfg.slot_size)
            for peer in self.peers
        }
        if cfg.ack_every:
            for writer in self.f_writers.values():
                writer.reader_acked = 0
        #: Writer state for the local authoritative mirror of our own F
        #: ring (never throttled: it is a plain local memory write).
        self.f_mirror = RingWriter(cfg.ring_slots, cfg.slot_size)
        #: Consecutive empty sweeps per F ring, a backed-off one weighted
        #: by its wait (hole-detection input).
        self._f_misses: dict[str, float] = {}
        #: Last ring-head count acknowledged back to each writer.
        self._acked: dict[str, int] = {}
        self.l_readers = {
            group.gid: RingReader(
                self.rnode.regions[l_region(group.gid)],
                cfg.ring_slots,
                cfg.slot_size,
            )
            for group in self.coordination.sync_groups()
        }

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
        cfg = self.config
        if peer == self.name or peer in self.f_readers:
            return
        self._register_ring(f_region(peer))
        self.rnode.register(f_ack_region(peer), 8)
        for group in self.coordination.sync_groups():
            self.rnode.register(l_ack_region(group.gid, peer), 8)
        summary_size = slot_size_for(cfg.summary_payload)
        for summarizer in self.coordination.spec.summarizers:
            self.rnode.register(
                s_region(summarizer.group, peer), summary_size
            )
        self.f_readers[peer] = RingReader(
            self.rnode.regions[f_region(peer)],
            cfg.ring_slots,
            cfg.slot_size,
        )
        writer = RingWriter(cfg.ring_slots, cfg.slot_size)
        writer.tail = self.f_mirror.tail
        self.f_writers[peer] = writer
        if cfg.ack_every:
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
                                 is_suspected: Callable[[str], bool],
                                 record: Optional[bytes] = None,
                                 record_index: Optional[int] = None):
        """Render a ring record, waiting for reader progress when full.

        The reader's acks land in our local ack region; refreshing it is
        a local memory read.  A reader that stops acking entirely (dead
        or suspected) stops throttling us: we fall back to ring-sizing
        mode rather than blocking behind a corpse (past
        ``backpressure_limit`` waits, a ``backpressure`` give-up) — until
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
        cfg = self.config
        reader = self._reader_of(ack_region_name)
        waited = 0
        while True:
            if cfg.ack_every:
                acked = self.rnode.regions[ack_region_name].read_u64(0)
                # A reader can never have consumed records we have not
                # written: a corrupt/torn ack write (tiny 8-byte
                # one-sided writes are just as exposed as records) must
                # not disable overrun protection with a garbage value.
                acked = min(acked, writer.tail)
                if writer.reader_acked is None:
                    self._maybe_rearm(writer, reader, acked)
                writer.ack_up_to(acked)
                if writer.reader_acked is not None:
                    self.probe.peak(
                        "ring_highwater", f"F->{reader}",
                        writer.tail - writer.reader_acked,
                    )
            try:
                if record is not None and writer.tail == record_index:
                    return writer.claim(record), record
                return writer.render(payload)
            except RingError:
                waited += 1
                self.probe.count("backpressure_stalls", f"F->{reader}")
                if waited > cfg.backpressure_limit:
                    self.probe.giveup("backpressure", reader)
                elif not is_suspected(reader):
                    yield self.env.timeout(cfg.backpressure_wait_us)
                    continue
                self._disarm(writer, reader)
                if record is not None and writer.tail == record_index:
                    return writer.claim(record), record
                return writer.render(payload)

    @staticmethod
    def _reader_of(ack_region_name: str) -> str:
        return ack_region_name.rsplit(":", 1)[-1]

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
        if writer is None or not self.config.ack_every:
            return
        if writer.reader_acked is not None:
            return  # still armed: nothing to re-arm
        self._rearm_baseline[peer] = self.rnode.regions[
            f_ack_region(peer)
        ].read_u64(0)

    def prepare_f_writes(self, packet: bytes,
                         is_suspected: Callable[[str], bool]):
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
                is_suspected, record=record, record_index=index,
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

        One entry per ring whose consumption advanced ``ack_every``
        records past the last ack.  A target of None (this node leads
        the L ring) needs no wire write — just the bookkeeping.
        """
        cfg = self.config
        due = []
        for origin, reader in self.f_readers.items():
            key = f"F:{origin}"
            if reader.head - self._acked.get(key, 0) >= cfg.ack_every:
                due.append((key, origin, f_ack_region(self.name),
                            reader.head))
        for gid, reader in self.l_readers.items():
            key = f"L:{gid}"
            if reader.head - self._acked.get(key, 0) >= cfg.ack_every:
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
        lost with its batch is simply re-sent ``ack_every`` records
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

    # -- recovery: retries and ring repair -------------------------------

    def retry_write(self, qp, region, offset: int, payload: bytes,
                    label: str = "write"):
        """One-sided write with capped exponential backoff on transient
        failures (injected NIC faults, partition blips).

        Each backoff is jittered by ``±RETRY_JITTER`` (drawn from a
        per-node seed substream, so same seed ⇒ same schedule) to
        de-synchronize retry storms, and a nonzero ``retry_budget_us``
        bounds the *cumulative* backoff a single op may spend —
        exhausting it surfaces as ``retry_budget_exhausted``, distinct
        from running out of attempts.

        Permission errors are *not* transient — they are Mu's leader-
        change signal and must surface immediately.  Returns the last
        :class:`~repro.rdma.WorkCompletion` either way.
        """
        cfg = self.config
        delay = cfg.op_retry_us
        budget = cfg.retry_budget_us
        spent = 0.0
        wc = None
        for _attempt in range(cfg.op_retry_limit + 1):
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
            if budget > 0.0 and spent + wait > budget:
                self.probe.count("retry_budget_exhausted", label)
                return wc
            spent += wait
            yield self.env.timeout(wait)
            delay = min(delay * 2, cfg.op_retry_cap_us)
        return wc

    def reset_f_misses(self, origin: str) -> None:
        self._f_misses[origin] = 0.0

    def maybe_repair_f(self, origin: str,
                       is_suspected: Callable[[str], bool],
                       waited_us: float = 0.0):
        """Hole detection for ``origin``'s F ring.

        Called by the applier after an empty sweep of that ring, with
        the poller's wait since its previous sweep.  Every 256
        consecutive misses we probe *ahead* of the head locally at
        exponentially growing offsets; a valid record ahead of a missing
        head means a write was lost (injected fault / partition blip),
        not that the writer is idle — trigger a repair pass.  A sweep
        after a backed-off wait counts as the sweeps it skipped, so the
        patience stays ~256 poll intervals of simulated time.
        """
        misses = self._f_misses.get(origin, 0.0) + max(
            waited_us / self.config.poll_interval_us, 1.0
        )
        if misses < HOLE_PATIENCE:
            self._f_misses[origin] = misses
            return False
        self._f_misses[origin] = 0.0
        reader = self.f_readers[origin]
        ahead = 1
        found_ahead = False
        while ahead <= 1024:
            if reader.record_at(reader.head + ahead) is not None:
                found_ahead = True
                break
            ahead *= 2
        if not found_ahead:
            # No record ahead — but a *frontier* record can be damaged
            # too: a corrupted length field makes the final record of a
            # burst parse as "not landed yet", and with nothing ever
            # landing ahead of it the probe above never fires.  Nonzero
            # bytes that do not parse at the head are suspicious enough
            # to attempt a repair pass (a virgin head just means the
            # writer is idle; a previous-lap leftover costs one failed
            # fetch per miss cycle).
            head = reader.head
            before = reader.slot_bytes(head)
            if not any(before):
                return False
            repaired = yield from self.repair_f_ring(origin, is_suspected)
            if repaired:
                self.probe.count("hole_repairs", f"F:{origin}")
                slots = self.config.ring_slots
                record = reader.record_at(head)
                intact = any(
                    parse_record(before, index, slots) is not None
                    for index in (head, head - slots) if index >= 0
                )
                if record is not None and not intact:
                    # Neither a span's intact head nor last lap's record:
                    # the head was damaged (e.g. a length field without
                    # its record flag).
                    self.note_slot_repair(
                        f"F:{origin}", head, before, record
                    )
            return repaired > 0
        self.probe.count("hole_repairs", f"F:{origin}")
        repaired = yield from self.repair_f_ring(origin, is_suspected)
        return repaired > 0

    def resync_lapped_f(self, origin: str,
                        is_suspected: Callable[[str], bool]):
        """Recover a reader that was *lapped* on ``origin``'s F ring.

        While we were cut off (partitioned / restarting), the writer —
        disarmed from acks by our silence — kept claiming slots and
        overwrote records we never consumed.  Those records are gone
        from every surviving ring copy; they reach us out of band
        (summary transfer, broadcast recovery).  The ring itself can
        only resume from the writer's surviving window: scan an
        authoritative copy for the frontier, fast-forward the head to
        the oldest index still present, then run the normal hole repair
        to fill our local copy from there.  Returns True when the head
        moved or records were repaired.
        """
        reader = self.f_readers[origin]
        region_name = f_region(origin)
        sources = [origin] + [p for p in self.peers if p != origin]
        frontier = None
        for source in sources:
            if source == self.name or is_suspected(source):
                continue
            if not self.rnode.fabric.nodes[source].alive:
                continue
            qp = self.rnode.qp_to(source)
            remote = self.rnode.region_of(source, region_name)
            wc = yield from qp.read(remote, *reader.window(0, reader.slots))
            if wc.status is not WcStatus.SUCCESS or wc.data is None:
                continue
            frontier = scan_frontier(
                wc.data, reader.head, reader.slots, reader.slot_size
            )
            if frontier is not None:
                break
        if frontier is None:
            return False  # nobody reachable holds a parseable record
        oldest_surviving = max(frontier - reader.slots, 0)
        moved = oldest_surviving > reader.head
        reader.fast_forward(oldest_surviving)
        self.probe.count("ring_resyncs", f"F:{origin}")
        repaired = yield from self.repair_f_ring(origin, is_suspected)
        return moved or repaired > 0

    def repair_f_ring(self, origin: str,
                      is_suspected: Callable[[str], bool]):
        """Fill holes in our copy of ``origin``'s F ring by reading
        other copies — the origin's authoritative mirror first, then any
        peer's replica — with one-sided reads.

        Scans forward from the reader head, repairing every missing
        index until no reachable source has the next one (i.e. we hit
        the true frontier).  Returns the number of repaired records.
        """
        cfg = self.config
        reader = self.f_readers[origin]
        repaired = 0
        index = reader.head
        for _ in range(cfg.ring_slots):
            if reader.record_at(index) is not None:
                index += 1  # already have this one
                continue
            found = yield from self._fetch_record(origin, index,
                                                  is_suspected)
            if found is None:
                break  # true frontier: nobody has the next record
            reader.region.write(reader.offset_of(index), found)
            repaired += 1
            index += 1
        return repaired

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

    def _fetch_record(self, origin: str, index: int,
                      is_suspected: Callable[[str], bool]):
        """Fetch ``origin``'s F record at absolute ``index`` from an
        authoritative copy: the origin's own mirror first, then any
        peer's replica.  Returns the CRC-checked record bytes or None.

        Each attempt hedges to the lowest-latency remaining replica
        (see :meth:`hedged_read`), so one limping source cannot
        serialize the repair."""
        reader = self.f_readers[origin]
        sources = [
            s for s in [origin] + [p for p in self.peers if p != origin]
            if s != self.name and not is_suspected(s)
            and self.rnode.fabric.nodes[s].alive
        ]
        for i, primary in enumerate(sources):
            backups = self.health.rank(sources[i + 1:])
            wc, _source = yield from self.hedged_read(
                [primary] + backups[:1], f_region(origin),
                *reader.window(index, 1), label=f"F:{origin}",
            )
            if wc.status is WcStatus.SUCCESS and wc.data is not None:
                record = reader.record_in(index, wc.data, index)
                if record is not None:
                    return record
        return None

    def repair_corrupt_f(self, origin: str, index: int,
                         is_suspected: Callable[[str], bool]):
        """Detect-and-repair for one CRC-rejected F record.

        The corrupt slot is *quarantined* (zeroed, so it reads as a
        hole) and refetched from an authoritative copy — the origin's
        local mirror is written with plain memory writes and is never
        exposed to in-flight corruption.  The pre-repair bytes are
        classified against the authoritative record: a prefix that
        matches followed by a tail that does not is a *torn* write; a
        mostly-matching record with isolated flipped bytes is a
        *bitflip*.  Returns True when the record was restored (False
        leaves the slot quarantined for the probe-ahead repair pass to
        retry once a source is reachable).
        """
        reader = self.f_readers[origin]
        ring = f"F:{origin}"
        before = reader.slot_bytes(index)
        self.probe.count("crc_rejects", ring)
        reader.quarantine(index)
        found = yield from self._fetch_record(origin, index, is_suspected)
        if found is None:
            return False
        reader.region.write(reader.offset_of(index), found)
        self.note_slot_repair(ring, index, before, found)
        return True

    def note_slot_repair(self, ring: str, index: int, before: bytes,
                         record: bytes) -> None:
        """Count and trace one damaged slot rewritten with ``record``,
        its pre-repair bytes ``before`` classified torn or bitflip."""
        kind = classify_corruption(before, record)
        if kind == "torn":
            self.probe.count("torn_detected", ring)
        self.probe.trace_repair(ring, index, kind)
