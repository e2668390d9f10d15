"""Single-writer ring buffers with canary bytes (paper §4 "Meta-data").

Each F and L buffer is a memory region at the *reader's* node, written
by exactly one remote peer:

- the writer keeps the **tail** index locally (it is the only writer,
  so no synchronization is needed — the paper's argument for avoiding
  RDMA atomics),
- the reader keeps the **head** index locally,
- every record ends in a **canary byte**; the reader only consumes a
  record whose canary carries the generation it expects, so a record
  that has not landed yet (or a slot left over from a previous lap) is
  skipped and retried on the next traversal,
- slots before the head are implicitly free and are reused on the next
  lap ("to avoid memory overflow, these locations are reused").

The region is divided into fixed-size slots, each holding one
self-framed *fragment* laid out as ``length(4, MSB set) | payload |
canary(1) | crc(4)``.  A record whose payload fits one slot is one
fragment with no other flag set.  A longer record (up to
:data:`MAX_RECORD_PAYLOAD` bytes) *spans* consecutive slots: every
fragment but the last fills its slot, so the span is one contiguous
run of bytes, and two more bits of the length field frame it —
bit 30 (*more follows*) on every fragment but the last, bit 29
(*continuation*) on every fragment but the first.  Each fragment
carries its own slot's canary and CRC, so every slot still parses on
its own: the repair, scrub, state-transfer and log-reconciliation
paths work index by index and never need to know about spans.  Only
the reader assembles: it delivers a spanned payload once its last
fragment has landed and consumes the whole span at once.

The CRC covers length + payload + canary (so it binds the
generation, not just the bytes): the canary alone only detects
*incomplete* writes, and a one-sided RDMA write is not atomic.  A
record whose canary claims the expected generation but whose CRC
disagrees is *corrupt* (bitflipped or torn-interior) and is rejected
loudly via :class:`RingCorruptionError` so the runtime can quarantine
and repair the slot instead of delivering garbage.  A length field
without its top bit set is not a record at all — a virgin slot, or
framing that has not landed or was damaged — and reads as a hole.

The generation is ``1 + (lap % 251)``, never zero, so a zeroed region
never yields a valid canary.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from ..rdma import MemoryRegion

__all__ = [
    "MAX_RECORD_PAYLOAD",
    "RECORD_OVERHEAD",
    "RingReader",
    "RingWriter",
    "RingError",
    "RingCorruptionError",
    "classify_corruption",
    "record_continues",
    "record_crc",
    "record_status",
    "ring_region_size",
    "span_of",
]

_LEN_BYTES = 4
_GENERATIONS = 251  # prime, and fits a byte with zero excluded

#: Top bit of the length field, set on every fragment (slot sizes are
#: far below 2**29, so the top three bits are free).
_RECORD_FLAG = 0x8000_0000
#: Span framing: more fragments of this record follow / this fragment
#: continues the record begun in an earlier slot.
_MORE = 0x4000_0000
_CONT = 0x2000_0000
_LEN_MASK = _CONT - 1
#: The span bits as they sit in the length field's last (little-endian)
#: byte, so the reader tests them with one byte load.
_MORE_BYTE = _MORE >> 24
_CONT_BYTE = _CONT >> 24
_CRC_BYTES = 4

#: Per-fragment framing bytes: length + canary + CRC trailer.
RECORD_OVERHEAD = _LEN_BYTES + 1 + _CRC_BYTES
#: Largest payload one record carries, however many slots it spans
#: (one 512-byte slot's worth).  Payload-size checks outside the
#: writer (e.g. the leader's batch packing) use this.
MAX_RECORD_PAYLOAD = 512 - RECORD_OVERHEAD


def record_crc(data: bytes) -> int:
    """Checksum over a record's length field + payload + canary.

    Fills the CRC32C role from the integrity literature; the stdlib
    ships no Castagnoli implementation, so the C-speed ``zlib.crc32``
    (ISO-HDLC polynomial) stands in — what matters here is end-to-end
    detection of bitflips and torn interior writes, not the polynomial.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


class RingError(Exception):
    """Ring misuse: oversized record or writer overrun."""


class RingCorruptionError(RingError):
    """A record failed CRC verification.

    Raised when a slot's canary claims a plausible generation but the
    record's CRC disagrees — a bitflip or a torn interior write landed.
    Carries the absolute record index so the recovery path can
    quarantine and refetch exactly that slot.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def ring_region_size(slots: int, slot_size: int) -> int:
    """Region size to pass to ``register`` for a ring of this shape."""
    return slots * slot_size


def span_of(payload_len: int, slot_size: int) -> int:
    """Slots a record of ``payload_len`` payload bytes occupies."""
    step = slot_size - RECORD_OVERHEAD
    return max(1, -(-payload_len // step))


def record_continues(record: bytes) -> bool:
    """Whether more fragments follow this :func:`parse_record` one."""
    return bool(record[_LEN_BYTES - 1] & _MORE_BYTE)


def _generation(index: int, slots: int) -> int:
    return 1 + (index // slots) % _GENERATIONS


def _frame(buf, base: int,
           size: Optional[int]) -> Optional[tuple[int, int]]:
    """Decode, in place, the framing of the ``size``-byte slot that
    starts at ``buf[base]`` (None: the rest of ``buf``):
    ``(payload_length, canary)``.

    ``buf`` is anything with the buffer protocol and integer indexing —
    a region's storage (or a memoryview of it), a ``bytes`` snapshot a
    one-sided read returned, a lone slot — so no caller has to slice a
    slot out before asking what it holds.  An empty slot costs one
    4-byte unpack.

    Validates the length field against the slot size *before* any
    further indexing, so hostile or torn bytes can never surface a
    ``struct.error``/``IndexError`` out of the parse path.  Returns
    None when the slot is too short, the length field lacks the record
    flag (virgin, unlanded or damaged framing), or the length points
    outside the slot.  The span bits are ignored here: a fragment
    parses like any record.
    """
    if size is None:
        size = len(buf) - base
    if size < RECORD_OVERHEAD:
        return None  # cannot even hold an empty record
    (field,) = struct.unpack_from("<I", buf, base)
    if not field & _RECORD_FLAG:
        return None  # not a record: reads as a hole
    length = field & _LEN_MASK
    if length > size - RECORD_OVERHEAD:
        return None  # garbage or partially-landed length
    return length, buf[base + _LEN_BYTES + length]


def _crc_ok(buf, base: int, length: int) -> bool:
    """Verify a record's stored CRC against its bytes, in place."""
    end = base + _LEN_BYTES + length + 1
    (stored,) = struct.unpack_from("<I", buf, end)
    return record_crc(buf[base:end]) == stored


def scan_frontier(raw: bytes, head: int, slots: int,
                  slot_size: int) -> Optional[int]:
    """Infer the writer's frontier (next index it will claim) from a
    raw snapshot of one ring region.

    Each valid slot's canary names its record's generation, and the
    single writer claims indices monotonically, so the highest absolute
    index present plus one is the frontier.  The lap is recovered as
    the smallest lap at or beyond the reader's whose generation matches
    the canary — consistent while the writer is fewer than 251 laps
    ahead, the same horizon as the reader's lap detection.  Slots that
    fail CRC are skipped (a corrupt canary must not invent a frontier).
    Returns None when no slot holds a parseable record.
    """
    base_lap = head // slots
    frontier = None
    for s in range(slots):
        base = s * slot_size
        parts = _frame(raw, base, slot_size)
        if parts is None:
            continue  # virgin, garbage or partially-landed record
        length, canary = parts
        if canary == 0 or not _crc_ok(raw, base, length):
            continue  # zero canary or corrupt record: proves nothing
        lap = base_lap + (canary - 1 - base_lap) % _GENERATIONS
        index = lap * slots + s
        if frontier is None or index >= frontier:
            frontier = index + 1
    return frontier


def parse_record(buf, index: int, slots: int, base: int = 0,
                 size: Optional[int] = None) -> Optional[bytes]:
    """Parse the slot at ``buf[base : base + size]`` (by default all of
    ``buf``) as the record for absolute ``index``, in place.

    Returns a copy of the full record (length + payload + canary + CRC)
    when the slot holds a valid record of ``index``'s generation, else
    None — a record whose CRC fails is *not* valid, so repair paths
    treat corrupt slots exactly like holes and refetch them.  Shared by
    the ring reader, the F-ring repair path, the scrubber, state
    transfer and Mu's log reconciliation; only the record's own bytes
    are ever copied, never the slot or the window around it.
    """
    parts = _frame(buf, base, size)
    if parts is None:
        return None
    length, canary = parts
    if canary != _generation(index, slots) or not _crc_ok(buf, base, length):
        return None
    return bytes(buf[base : base + length + RECORD_OVERHEAD])


def record_status(buf, index: int, slots: int, base: int = 0,
                  size: Optional[int] = None) -> str:
    """Classify one slot relative to absolute ``index``'s record.

    - ``"valid"``: holds ``index``'s CRC-verified record,
    - ``"empty"``: virgin, a previous lap's intact record, or framing
      bytes that have not fully landed — nothing wrong, just absent,
    - ``"corrupt"``: a record claims a plausible generation but fails
      CRC — a bitflip or torn interior write landed.

    Tells *holes* (record never landed) from *silent corruption*
    (record landed wrong); addressed like :func:`parse_record`.
    """
    parts = _frame(buf, base, size)
    if parts is None:
        return "empty"
    length, canary = parts
    if canary == 0:
        return "empty"
    if not _crc_ok(buf, base, length):
        return "corrupt"
    return "valid" if canary == _generation(index, slots) else "empty"


def classify_corruption(before: bytes, authoritative: bytes) -> str:
    """Classify a corrupt slot's pre-repair bytes: bitflip or torn?

    ``before`` is what the slot held when CRC verification rejected it;
    ``authoritative`` is the correct record fetched from a healthy
    copy.  A *torn* write lands a prefix of the record and leaves the
    tail holding whatever was there before (zeros on a virgin lap), so
    the bytes match up to some cut and then mostly diverge; a *bitflip*
    matches everywhere except isolated flipped bytes.  The heuristic is
    deterministic: with more than half the post-divergence tail
    matching the authoritative record it is a ``"bitflip"``, otherwise
    ``"torn"``.
    """
    prefix = 0
    limit = min(len(before), len(authoritative))
    while prefix < limit and before[prefix] == authoritative[prefix]:
        prefix += 1
    if prefix >= len(authoritative):
        return "bitflip"  # diverges only past the record: noise
    tail = len(authoritative) - prefix
    matching = sum(
        1
        for j in range(prefix, len(authoritative))
        if j < len(before) and before[j] == authoritative[j]
    )
    return "bitflip" if matching * 2 >= tail else "torn"


class RingWriter:
    """The single remote writer's view: produces (offset, bytes) records.

    The writer does not touch the region directly — it renders each
    record and hands (offset, payload) to the caller, which issues one
    RDMA write per record (two for a span that crosses the wrap, see
    :meth:`pieces`).  A local mirror tracks how many slots were
    claimed; ``credits`` throttling is the writer's guard against
    lapping a slow reader (the runtime sizes rings generously and
    asserts on overrun rather than blocking).
    """

    def __init__(self, slots: int, slot_size: int, integrity: bool = True):
        if not integrity:  # accepted for benchmarks/perf/isolated.py
            raise ValueError("ring records are always checksummed")
        if slots <= 0 or slot_size <= RECORD_OVERHEAD:
            raise RingError("ring too small")
        self.slots = slots
        self.slot_size = slot_size
        #: Payload bytes one slot carries; a longer payload spans slots.
        self.max_payload = slot_size - RECORD_OVERHEAD
        self.tail = 0  # kept locally by the single writer
        #: Optional flow-control feedback; None disables the overrun
        #: check (the runtime sizes rings so the reader never lags a
        #: full lap, and the reader independently detects being lapped).
        self.reader_acked: Optional[int] = None

    def render(self, payload: bytes) -> tuple[int, bytes]:
        """Render the next record; returns (region offset, record bytes).

        Only the used prefix of the last slot is rendered — length,
        payload, and the canary byte immediately after the payload (the
        paper: "each call in the buffer contains a canary bit as the
        last bit") — so the RDMA write ships record-sized, not
        slot-sized.
        """
        record = self.build(payload)
        return self.claim(record), record

    def build(self, payload: bytes) -> bytes:
        """Record bytes for the *current* tail, without claiming it.

        A payload longer than one slot carries is cut into fragments,
        one per slot from the tail on, each framed and checksummed
        with its own slot's generation; a one-slot record has no span
        bits set.  Fan-out writers with lockstep tails (the F mirror
        and the per-peer writers) render the record ONCE and
        :meth:`claim` its slots per writer — the generation bytes only
        depend on the tail index, which is identical across them.
        """
        size = len(payload)
        span = 1 if size <= self.max_payload else span_of(size, self.slot_size)
        if size > MAX_RECORD_PAYLOAD or span > self.slots:
            raise RingError(
                f"payload of {size} bytes exceeds record capacity "
                f"{MAX_RECORD_PAYLOAD}"
            )
        if span == 1:
            return self._fragment(payload, self.tail, 0)
        step = self.max_payload
        return b"".join(
            self._fragment(
                payload[i * step : (i + 1) * step], self.tail + i,
                (_MORE if i < span - 1 else 0) | (_CONT if i else 0),
            )
            for i in range(span)
        )

    def _fragment(self, chunk: bytes, index: int, flags: int) -> bytes:
        body = _LEN_BYTES + len(chunk) + 1
        record = bytearray(body + _CRC_BYTES)
        struct.pack_into("<I", record, 0, len(chunk) | _RECORD_FLAG | flags)
        record[_LEN_BYTES : body - 1] = chunk
        record[body - 1] = _generation(index, self.slots)
        struct.pack_into("<I", record, body,
                         record_crc(record[:body]))
        return bytes(record)

    def claim(self, record: Optional[bytes] = None) -> int:
        """Claim the slots ``record`` spans (one when omitted) at the
        tail (overrun check + advance); returns the region offset of
        the first.  ``render`` = ``build`` + ``claim``."""
        span = 1 if record is None else (len(record) - 1) // self.slot_size + 1
        if (
            self.reader_acked is not None
            and self.tail + span - self.reader_acked > self.slots
        ):
            raise RingError("ring overrun: writer lapped the reader")
        offset = (self.tail % self.slots) * self.slot_size
        self.tail += span
        return offset

    def pieces(self, offset: int, record: bytes) -> list[tuple[int, bytes]]:
        """The ``(offset, bytes)`` writes that land ``record`` at region
        ``offset``: one, or two when its span crosses the wrap."""
        cut = self.slots * self.slot_size - offset
        if len(record) <= cut:
            return [(offset, record)]
        return [(offset, record[:cut]), (0, record[cut:])]

    def ack_up_to(self, count: int) -> None:
        """Record reader progress (fed back out of band for flow control).

        A no-op while tracking is disabled (``reader_acked is None``) —
        once a writer stops throttling on a dead reader it stays in
        ring-sizing mode.
        """
        if self.reader_acked is not None:
            self.reader_acked = max(self.reader_acked, count)


class RingReader:
    """The local reader's view over its own memory region.

    Every read parses the region's storage in place (through one
    long-lived ``memoryview``): looking at a slot costs a 4-byte unpack
    and a byte load, a landed record costs a CRC over the view plus a
    copy of its payload, and nothing is ever copied out of the region
    just to be looked at.  The head counts slots, so a spanned record
    moves it by its span.
    """

    def __init__(self, region: MemoryRegion, slots: int, slot_size: int):
        if slots * slot_size > region.size:
            raise RingError("region too small for ring shape")
        self.region = region
        self.slots = slots
        self.slot_size = slot_size
        self.head = 0  # kept locally by the single reader
        self._view = memoryview(region.data)
        #: ``(head, region.stamp)`` of the last peek that found nothing.
        #: Nothing can have landed while both still hold, so re-polling
        #: an idle ring is two compares.  A region without a write
        #: stamp (a test double) never matches: always re-peek.
        self._stamped = hasattr(region, "stamp")
        self._idle: Optional[tuple[int, int]] = None
        #: Set by :meth:`fast_forward` until the next :meth:`advance`:
        #: the head may sit on a continuation whose first fragment was
        #: overwritten, and such orphans are skipped.
        self._resumed = False

    def offset_of(self, index: int) -> int:
        """Region offset of absolute ``index``'s slot."""
        return (index % self.slots) * self.slot_size

    def window(self, index: int, count: int) -> tuple[int, int]:
        """Region ``(offset, length)`` of up to ``count`` slots from
        absolute ``index``, clipped at the wrap so it is one read — the
        shape of every fetch from another copy of this ring (repair,
        scrub, state transfer, Mu's log reconciliation)."""
        start = index % self.slots
        return (start * self.slot_size,
                min(count, self.slots - start) * self.slot_size)

    def covers(self, start: int, data, index: int) -> bool:
        """Whether ``data``, a :meth:`window` read that began at
        absolute ``start``, holds ``index``'s slot."""
        return 0 <= index - start < len(data) // self.slot_size

    def record_in(self, start: int, data, index: int) -> Optional[bytes]:
        """:func:`parse_record` of ``index``'s slot inside ``data``, a
        :meth:`window` read that began at absolute ``start``."""
        return parse_record(data, index, self.slots,
                            (index - start) * self.slot_size, self.slot_size)

    def peek(self) -> Optional[bytes]:
        """The record at the head, or None if it has not landed yet.

        A canary mismatch means either nothing has been written to the
        slot this lap or a write is still in flight — in both cases the
        paper's traversal simply retries later.
        """
        run = self.peek_run(1)
        return run[0] if run else None

    def record_at(self, index: int) -> Optional[bytes]:
        """:func:`parse_record` of ``index``'s slot in our own copy:
        the full record if it is there and intact, else None.  The
        repair, scrub and state-transfer scans ask this instead of
        copying each slot out to look at it."""
        return parse_record(
            self._view, index, self.slots, self.offset_of(index),
            self.slot_size,
        )

    def slot_bytes(self, index: int) -> bytes:
        """A copy of ``index``'s raw slot, valid or not — what the
        corruption classifiers and the dirty-head check look at."""
        return self.region.read(self.offset_of(index), self.slot_size)

    def _parse_slot(self, buf, index: int, base: int = 0,
                    size: Optional[int] = None) -> Optional[bytes]:
        """The payload of absolute ``index``'s fragment, parsed in place
        from the slot at ``buf[base : base + size]`` (default: all of
        ``buf``); None when it has not landed.

        The only canaries a reader may legitimately see besides the
        expected generation are 0 (virgin slot) and the *previous*
        lap's generation (a record not yet overwritten).  ANY other
        generation means the single writer has moved past us — whether
        by one lap or twenty — so being lapped is detected loudly
        rather than silently reading None forever.  (The generation
        counter wraps mod 251, so a writer exactly 250 laps ahead is
        indistinguishable from the previous lap; the runtime's rings
        detect the overrun ~250 laps earlier.)

        Records are CRC-verified before any canary verdict is trusted:

        - expected generation + bad CRC ⇒ :class:`RingCorruptionError`
          — a bitflip or torn interior write would otherwise be
          *delivered*,
        - foreign generation + bad CRC ⇒ also corruption — a flipped
          canary byte must not fake a "lapped" verdict and trigger a
          needless resync,
        - previous-lap generation + bad CRC ⇒ None — the overwrite for
          this lap is legitimately in flight (torn writes land exactly
          this state); the probe-ahead repair path picks it up if it
          never completes.

        A length field without the record flag is no record at all: it
        reads as None, and the head-slot / probe-ahead repair paths
        refill it.  The length field is validated against the slot size
        before any indexing, so hostile bytes surface as None or a
        RingError subclass — never ``struct.error``/``IndexError``.
        """
        parts = _frame(buf, base, size)
        if parts is None:
            return None  # short slot, unflagged, stale or garbage length
        length, canary = parts
        if canary == _generation(index, self.slots):
            if not _crc_ok(buf, base, length):
                raise RingCorruptionError(
                    f"record {index} failed CRC: bitflipped or "
                    f"torn-interior write", index,
                )
            start = base + _LEN_BYTES
            return bytes(buf[start : start + length])
        if canary == 0:
            return None  # virgin slot: nothing written yet
        if index >= self.slots and canary == _generation(
            index - self.slots, self.slots
        ):
            return None  # previous lap's record: ours is in flight
        if not _crc_ok(buf, base, length):
            raise RingCorruptionError(
                f"record {index} failed CRC under a foreign canary: "
                f"corruption, not a lap", index,
            )
        raise RingError(
            "reader lapped: a record was overwritten before it "
            "was consumed (size the ring larger)"
        )

    def peek_run(self, max_records: int = 64) -> list[bytes]:
        """Consecutive landed records starting at the head, oldest first.

        Walks the slots in place, up to ``max_records`` records (clamped
        at the ring's wrap point, past which only a span begun before it
        continues), and stops at the first slot whose fragment has not
        landed: a sweep of an empty ring looks at one length field and
        one canary byte, and one that finds a train of records copies
        out their payloads and nothing else.  A spanned payload is
        delivered only once its last fragment has landed; a fragment
        out of place (a continuation with no start, or a start where a
        continuation belongs) reads as not landed.  The caller consumes
        via :meth:`advance` — records beyond what it consumes are simply
        re-peeked on the next sweep.
        """
        if self._stamped and self._idle == (self.head, self.region.stamp):
            return []
        slots, size, view = self.slots, self.slot_size, self._view
        index = self.head
        wrap = index - index % slots + slots
        run: list[bytes] = []
        parts: Optional[list[bytes]] = None  # a span being assembled
        while len(run) < max_records and (index < wrap or parts):
            base = (index % slots) * size
            payload = self._parse_slot(view, index, base, size)
            if payload is None:
                break
            span = view[base + _LEN_BYTES - 1] & (_MORE_BYTE | _CONT_BYTE)
            index += 1
            if not span and parts is None:
                run.append(payload)  # a one-slot record
                continue
            if span & _CONT_BYTE:
                if parts is None:
                    if self._resumed and not run:
                        self.head = index  # orphan: its start was lapped
                        continue
                    break
                parts.append(payload)
            elif parts is not None:
                break
            else:
                parts = [payload]
            if not span & _MORE_BYTE:
                run.append(b"".join(parts))
                parts = None
        if not run and self._stamped:
            self._idle = (self.head, self.region.stamp)
        return run

    def advance(self) -> None:
        """Consume the head record, every slot of its span (the caller
        must have peeked it)."""
        index, view = self.head, self._view
        last = index + self.slots - 1
        while index < last and view[
            (index % self.slots) * self.slot_size + _LEN_BYTES - 1
        ] & _MORE_BYTE:
            index += 1
        self.head = index + 1
        self._resumed = False

    def fast_forward(self, index: int) -> None:
        """Skip the head forward to absolute ``index`` (never backward).

        The recovery path for a *lapped* reader: records between the
        old head and ``index`` were overwritten in every surviving copy
        and must be recovered out of band (summaries, broadcast
        backups) — the ring itself can only resume from the writer's
        surviving window.  ``index`` may fall inside a span whose
        first fragments were overwritten: the next peek skips its
        continuations to the next record's start.
        """
        if index > self.head:
            self.head = index
            self._resumed = True
            self._idle = None

    def quarantine(self, index: int) -> None:
        """Zero absolute ``index``'s slot so a corrupt record reads as
        a hole.

        The region lives at the reader's node, so this is a local
        write — no RDMA involved.  After quarantine the slot parses as
        virgin and the normal hole-repair machinery (probe-ahead
        refetch from an authoritative copy) fills it back in.
        """
        self.region.write(self.offset_of(index), b"\x00" * self.slot_size)

    def try_read(self) -> Optional[bytes]:
        payload = self.peek()
        if payload is not None:
            self.advance()
        return payload
