"""Property fuzz for the ring slot parser (hypothesis).

Two obligations, mirrored from the wire codec's fuzz suite:

1. **Never crash.** The parse path sees bytes written by a remote NIC;
   with fault injection those bytes are hostile.  Arbitrary slot
   contents must surface as None / a :class:`RingError` subclass —
   never ``struct.error`` or ``IndexError``.
2. **Never lie.** A record with any bytes flipped must never be
   *delivered as a different record*: the reader either returns the
   original payload (flips landed outside the record bytes), returns
   None (in-flight verdicts, or a cleared record flag), or rejects
   loudly via :class:`RingCorruptionError`.

3. **In place is by copy.** The reader parses the region's storage
   where it lies and skips a ring whose write stamp has not moved; on
   a damaged ring it must hand back the same payloads and raise the
   same errors as :func:`parse_record`/:func:`record_status` give for
   each slot copied out — through a real :class:`MemoryRegion` and
   through the stamp-less double below — and a skipped peek must never
   hide a record that landed.

Settings are left unpinned so CI's ``HYPOTHESIS_PROFILE=ci-fuzz``
scales the example budget (see ``tests/runtime/conftest.py``).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.rdma import Access, MemoryRegion
from repro.runtime.ringbuffer import (
    MAX_RECORD_PAYLOAD,
    RECORD_OVERHEAD,
    RingCorruptionError,
    RingError,
    RingReader,
    RingWriter,
    parse_record,
    record_continues,
    record_status,
    scan_frontier,
    span_of,
)

SLOTS = 8
SLOT_SIZE = 64
MAX_PAYLOAD = SLOT_SIZE - RECORD_OVERHEAD


class _Region:
    """Minimal in-memory region (the parser never touches RDMA).

    Duck-typed on purpose: no write stamp, so a reader over it can
    never skip a peek.  ``data`` may be another region's storage.
    """

    def __init__(self, size, data=None):
        self.size = size
        self.data = bytearray(size) if data is None else data

    def read(self, offset, n):
        return bytes(self.data[offset : offset + n])

    def write(self, offset, payload):
        self.data[offset : offset + len(payload)] = payload


def _reader() -> RingReader:
    return RingReader(_Region(SLOTS * SLOT_SIZE), SLOTS, SLOT_SIZE)


def _build_at(index: int, payload: bytes) -> bytes:
    writer = RingWriter(SLOTS, SLOT_SIZE)
    writer.tail = index
    return writer.build(payload)


class TestParserNeverCrashes:
    @given(
        slot=st.binary(max_size=SLOT_SIZE),
        index=st.integers(0, 100_000),
    )
    def test_reader_parse_slot(self, slot, index):
        try:
            out = _reader()._parse_slot(slot, index)
        except RingError:
            return  # loud rejection is allowed; crashes are not
        assert out is None or isinstance(out, (bytes, bytearray))

    @given(
        slot=st.binary(max_size=SLOT_SIZE),
        index=st.integers(0, 100_000),
    )
    def test_parse_record_and_status(self, slot, index):
        record = parse_record(slot, index, SLOTS)
        assert record is None or isinstance(record, bytes)
        assert record_status(slot, index, SLOTS) in (
            "valid", "empty", "corrupt",
        )

    @given(
        raw=st.binary(
            min_size=SLOTS * SLOT_SIZE, max_size=SLOTS * SLOT_SIZE
        ),
        head=st.integers(0, 10_000),
    )
    def test_scan_frontier(self, raw, head):
        frontier = scan_frontier(raw, head, SLOTS, SLOT_SIZE)
        assert frontier is None or frontier >= 0


class TestIntegrityNeverLies:
    @given(
        payload=st.binary(max_size=MAX_PAYLOAD),
        index=st.integers(0, 3 * SLOTS),
        flips=st.lists(
            st.tuples(
                st.integers(0, SLOT_SIZE - 1), st.integers(1, 255)
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_flipped_bytes_never_deliver_a_wrong_record(
        self, payload, index, flips
    ):
        record = _build_at(index, payload)
        slot = bytearray(SLOT_SIZE)
        slot[: len(record)] = record
        for position, mask in flips:
            slot[position] ^= mask
        try:
            out = _reader()._parse_slot(bytes(slot), index)
        except RingError:
            return  # rejected loudly (RingCorruptionError or lapped)
        if out is not None:
            # Delivered: must be the original payload, byte for byte
            # (flips cancelled out or landed in slot slack).
            assert bytes(out) == payload

    @given(
        payload=st.binary(min_size=1, max_size=MAX_PAYLOAD),
        index=st.integers(0, 3 * SLOTS),
        cut=st.data(),
    )
    def test_torn_prefix_is_never_delivered(self, payload, index, cut):
        record = _build_at(index, payload)
        landed = cut.draw(
            st.integers(0, len(record) - 1), label="torn cut"
        )
        slot = bytearray(SLOT_SIZE)
        slot[:landed] = record[:landed]
        try:
            out = _reader()._parse_slot(bytes(slot), index)
        except RingCorruptionError:
            return  # detected: the quarantine/repair path takes over
        if record[landed:] == bytes(len(record) - landed):
            # The lost tail was all zero bytes, so the torn slot is
            # byte-identical to the fully-landed record (slots are
            # zero-filled): delivering the original payload is the
            # only correct answer, for any conceivable parser.
            assert out is not None and bytes(out) == payload
            return
        assert out is None, (
            f"torn prefix of {landed}/{len(record)} bytes was delivered"
        )

    @given(
        payload=st.binary(max_size=MAX_PAYLOAD),
        index=st.integers(0, 3 * SLOTS),
    )
    def test_intact_records_round_trip(self, payload, index):
        record = _build_at(index, payload)
        slot = bytearray(SLOT_SIZE)
        slot[: len(record)] = record
        out = _reader()._parse_slot(bytes(slot), index)
        assert out is not None and bytes(out) == payload
        assert parse_record(bytes(slot), index, SLOTS) == record
        assert record_status(bytes(slot), index, SLOTS) == "valid"


# -- in place == by copy ----------------------------------------------------

#: What a slot of the corpus holds, relative to the index the reader
#: will expect there.
_KINDS = ("virgin", "intact", "previous", "lapped", "torn", "flipped",
          "noise")

_slot_plans = st.tuples(
    st.sampled_from(_KINDS),
    st.binary(max_size=MAX_PAYLOAD),                 # payload
    st.integers(1, 3),                               # laps ahead ("lapped")
    st.integers(0, SLOT_SIZE - 1),                   # torn cut
    st.lists(st.tuples(st.integers(0, SLOT_SIZE - 1),
                       st.integers(1, 255)), min_size=1, max_size=3),
    st.binary(min_size=SLOT_SIZE, max_size=SLOT_SIZE),   # noise
)


def _slot_bytes(index, plan) -> bytes:
    kind, payload, laps, cut, flips, noise = plan
    slot = bytearray(SLOT_SIZE)
    if kind == "noise":
        return noise
    if kind == "virgin" or (kind == "previous" and index < SLOTS):
        return bytes(slot)
    at = {"previous": index - SLOTS, "lapped": index + laps * SLOTS}
    record = _build_at(at.get(kind, index), payload)
    if kind == "torn":
        # A torn overwrite: the prefix lands over last lap's record.
        if index >= SLOTS:
            old = _build_at(index - SLOTS, payload[::-1])
            slot[: len(old)] = old
        record = record[: min(cut, len(record))]
    slot[: len(record)] = record
    if kind == "flipped":
        for position, mask in flips:
            slot[position] ^= mask
    return bytes(slot)


def _verdict(call):
    """(payload-or-list, error type, error index) of one reader call."""
    try:
        return call(), None, None
    except RingError as err:
        return None, type(err), getattr(err, "index", None)


def _by_copy(raw: bytes, head: int, count: int):
    """The reference peek_run: copy every slot out, judge it alone with
    the free functions, stop at the first that has not landed."""
    judge = _reader()
    run = []
    for index in range(head, head + count):
        begin = (index % SLOTS) * SLOT_SIZE
        slot = raw[begin : begin + SLOT_SIZE]
        payload, error, where = _verdict(
            lambda: judge._parse_slot(slot, index)
        )
        status = record_status(slot, index, SLOTS)
        record = parse_record(slot, index, SLOTS)
        if payload is not None:
            assert status == "valid" and record is not None
            assert record[4 : 4 + len(payload)] == payload
            run.append(payload)
            continue
        assert record is None
        if error is RingCorruptionError:
            assert status == "corrupt" and where == index
        elif error is RingError:
            assert status == "empty"  # an intact record of a later lap
        if error is not None:
            return None, error, where
        break
    return run, None, None


class TestInPlaceReaderMatchesByCopy:
    @given(
        head=st.integers(0, 3 * SLOTS),
        plans=st.lists(_slot_plans, min_size=SLOTS, max_size=SLOTS),
        max_records=st.integers(1, SLOTS + 2),
    )
    def test_damaged_rings_read_the_same(self, head, plans, max_records):
        raw = bytearray(SLOTS * SLOT_SIZE)
        for i, plan in enumerate(plans):
            begin = ((head + i) % SLOTS) * SLOT_SIZE
            raw[begin : begin + SLOT_SIZE] = _slot_bytes(head + i, plan)
        raw = bytes(raw)
        count = min(max_records, SLOTS - head % SLOTS)
        expected = _by_copy(raw, head, count)

        real = MemoryRegion("p1", "ring", len(raw), Access.ALL)
        double = _Region(len(raw))
        for region in (real, double):
            region.write(0, raw)
            reader = RingReader(region, SLOTS, SLOT_SIZE)
            reader.head = head
            assert _verdict(lambda: reader.peek_run(max_records)) == expected
            # Again: unchanged stamp (real) or no stamp at all (double).
            assert _verdict(lambda: reader.peek_run(max_records)) == expected
            run, *error = _by_copy(raw, head, 1)  # peek: head slot only
            assert _verdict(reader.peek) == (run[0] if run else None, *error)
            for index in range(head, head + count):
                begin = reader.offset_of(index)
                assert reader.record_at(index) == parse_record(
                    raw[begin : begin + SLOT_SIZE], index, SLOTS
                )

    @given(
        payloads=st.lists(st.binary(max_size=MAX_PAYLOAD), min_size=1,
                          max_size=3 * SLOTS),
        moves=st.lists(
            st.tuples(st.sampled_from(("render", "land", "peek")),
                      st.integers(0, 255)),
            max_size=80,
        ),
    )
    def test_skipped_peek_never_hides_a_landed_record(
        self, payloads, moves
    ):
        """Random interleavings of the writer (render now, land later,
        possibly out of order) and the reader (peek_run, advance some):
        the stamp-skipping reader always sees what a reader that
        re-parses the same bytes every time sees, and in the end has
        consumed every record in order."""
        region = MemoryRegion("p1", "ring", SLOTS * SLOT_SIZE, Access.ALL)
        reader = RingReader(region, SLOTS, SLOT_SIZE)
        # Same storage, no stamp: can never skip.
        control = RingReader(
            _Region(region.size, data=region.data), SLOTS, SLOT_SIZE
        )
        writer = RingWriter(SLOTS, SLOT_SIZE)
        to_render = list(payloads)
        in_flight: list[tuple[int, bytes]] = []
        consumed = []

        def step(move, n):
            if move == "render":
                if to_render and writer.tail - reader.head < SLOTS:
                    in_flight.append(writer.render(to_render.pop(0)))
            elif move == "land":
                if in_flight:
                    region.write(*in_flight.pop(n % len(in_flight)))
            else:
                control.head = reader.head
                run = reader.peek_run()
                assert run == control.peek_run()
                for payload in run[: n % (len(run) + 1)]:
                    reader.advance()
                    consumed.append(payload)

        for move, n in moves:
            step(move, n)
        while len(consumed) < len(payloads):
            before = len(consumed)
            for _ in range(SLOTS):
                step("render", 0)
            while in_flight:
                step("land", 0)
            step("peek", -1)  # -1 % (len(run) + 1) == len(run): take all
            assert len(consumed) > before, "a landed record stayed hidden"
        assert consumed == payloads


# -- spans ------------------------------------------------------------------

#: The runtime's geometry: a 503-byte payload spans 5 slots of 128 B.
SPAN_SLOTS = 16
SPAN_SIZE = 128
FRAGMENT = SPAN_SIZE - RECORD_OVERHEAD


def _span_ring(region=None):
    region = region or MemoryRegion(
        "p1", "ring", SPAN_SLOTS * SPAN_SIZE, Access.ALL
    )
    return (RingWriter(SPAN_SLOTS, SPAN_SIZE),
            RingReader(region, SPAN_SLOTS, SPAN_SIZE), region)


def _land(region, writer, payload) -> tuple[int, bytes]:
    """Render ``payload`` at the writer's tail and land every piece;
    returns (first index, record bytes)."""
    index = writer.tail
    offset, record = writer.render(payload)
    for piece in writer.pieces(offset, record):
        region.write(*piece)
    return index, record


def _fragment_of(record: bytes, i: int) -> bytes:
    """The ``i``-th fragment's bytes inside a rendered span."""
    return record[i * SPAN_SIZE : (i + 1) * SPAN_SIZE]


def _assemble_by_copy(raw: bytes, head: int):
    """Reference span reader: copy each slot out, judge it alone with
    :func:`parse_record`, and join fragments by their framing bits.
    Returns (payloads delivered, head after consuming them)."""
    payloads, parts, index, end = [], [], head, head
    for _ in range(SPAN_SLOTS):
        begin = (index % SPAN_SLOTS) * SPAN_SIZE
        record = parse_record(raw[begin : begin + SPAN_SIZE], index,
                              SPAN_SLOTS)
        if record is None:
            break
        parts.append(record[4:-5])
        index += 1
        if not record_continues(record):
            payloads.append(b"".join(parts))
            parts, end = [], index
    return payloads, end


def _drain(reader, max_records=64):
    got = []
    while True:
        run = reader.peek_run(max_records)
        if not run:
            return got
        for payload in run:
            reader.advance()
            got.append(payload)


class TestSpans:
    @given(
        sizes=st.lists(st.integers(0, MAX_RECORD_PAYLOAD), min_size=1,
                       max_size=6),
        start=st.integers(0, 3 * SPAN_SLOTS),
        max_records=st.integers(1, 4),
    )
    def test_spans_read_the_same_in_place_and_slot_by_slot(
        self, sizes, start, max_records
    ):
        payloads = [bytes([n % 251]) * n for n in sizes]
        total = sum(span_of(n, SPAN_SIZE) for n in sizes)
        if total > SPAN_SLOTS:
            payloads = payloads[:1]
        real = MemoryRegion("p1", "ring", SPAN_SLOTS * SPAN_SIZE,
                            Access.ALL)
        writer = RingWriter(SPAN_SLOTS, SPAN_SIZE)
        writer.tail = start
        for payload in payloads:
            _land(real, writer, payload)
        assert writer.tail == start + sum(
            span_of(len(p), SPAN_SIZE) for p in payloads
        )
        assert _assemble_by_copy(bytes(real.data), start) == (
            payloads, writer.tail,
        )
        double = _Region(real.size, data=bytearray(real.data))
        for region in (real, double):
            reader = RingReader(region, SPAN_SLOTS, SPAN_SIZE)
            reader.head = start
            assert _drain(reader, max_records) == payloads
            assert reader.head == writer.tail
            # Every slot of every span still parses on its own.
            for index in range(start, writer.tail):
                assert record_status(
                    region.data, index, SPAN_SLOTS,
                    reader.offset_of(index), SPAN_SIZE,
                ) == "valid"
                assert reader.record_at(index) is not None

    def test_spans_of_two_to_five_slots(self):
        for slots in range(2, 6):
            writer, reader, region = _span_ring()
            payload = bytes(i % 251 for i in range(FRAGMENT * (slots - 1) + 1))
            _index, record = _land(region, writer, payload)
            assert len(record) == (slots - 1) * SPAN_SIZE + RECORD_OVERHEAD + 1
            assert writer.tail == slots
            assert reader.peek() == payload
            reader.advance()
            assert reader.head == slots

    def test_a_one_slot_record_keeps_the_unspanned_layout(self):
        writer, reader, region = _span_ring()
        writer.tail = 37
        # The bytes a 512-byte-slot writer rendered for this record.
        assert writer.build(b"hamband").hex() == (
            "0700008068616d62616e64030c620449"
        )
        _index, record = _land(region, writer, b"x" * FRAGMENT)
        assert len(record) == SPAN_SIZE and not record_continues(record)
        assert record[3] == 0x80  # only the record flag in the top byte

    def test_hole_in_a_middle_fragment_withholds_the_span(self):
        writer, reader, region = _span_ring()
        _land(region, writer, b"before")
        index, record = _land(region, writer, b"s" * (3 * FRAGMENT + 7))
        _land(region, writer, b"after")
        region.write(reader.offset_of(index + 2), bytes(SPAN_SIZE))
        assert reader.peek_run() == [b"before"]
        reader.advance()
        assert reader.peek_run() == []  # the span waits for its fragment
        assert reader.peek() is None and reader.head == index
        region.write(reader.offset_of(index + 2), _fragment_of(record, 2))
        assert reader.peek_run() == [b"s" * (3 * FRAGMENT + 7), b"after"]

    def test_corrupt_middle_fragment_is_rejected_quarantined_repaired(self):
        writer, reader, region = _span_ring()
        mirror = MemoryRegion("p0", "mirror", region.size, Access.ALL)
        payload = bytes(range(200)) * 2
        index, record = _land(region, writer, payload)
        mirror.write(0, bytes(region.data))
        bad = index + 1
        damaged = bytearray(_fragment_of(record, 1))
        damaged[40] ^= 0x10
        region.write(reader.offset_of(bad), bytes(damaged))
        try:
            reader.peek_run()
        except RingCorruptionError as err:
            assert err.index == bad
        else:
            raise AssertionError("a corrupt fragment was not rejected")
        assert record_status(region.data, bad, SPAN_SLOTS,
                             reader.offset_of(bad), SPAN_SIZE) == "corrupt"
        reader.quarantine(bad)
        assert reader.peek_run() == [] and reader.record_at(bad) is None
        source = RingReader(mirror, SPAN_SLOTS, SPAN_SIZE)
        region.write(reader.offset_of(bad), source.record_at(bad))
        assert reader.peek_run() == [payload]

    def test_span_crossing_the_wrap_is_two_writes(self):
        writer, reader, region = _span_ring()
        writer.tail = reader.head = 3 * SPAN_SLOTS - 2
        payload = b"w" * (3 * FRAGMENT + 1)
        offset, record = writer.render(payload)
        pieces = writer.pieces(offset, record)
        assert [p[0] for p in pieces] == [(SPAN_SLOTS - 2) * SPAN_SIZE, 0]
        assert b"".join(p[1] for p in pieces) == record
        region.write(*pieces[0])
        assert reader.peek_run() == []  # the tail has not landed
        region.write(*pieces[1])
        assert reader.peek_run() == [payload]
        reader.advance()
        assert reader.head == 3 * SPAN_SLOTS + 2 == writer.tail
        # Fragments after the wrap carry the next lap's generation.
        assert parse_record(region.data, 3 * SPAN_SLOTS, SPAN_SLOTS,
                            0, SPAN_SIZE) is not None

    def test_lapped_fast_forward_skips_to_the_next_span_start(self):
        writer, reader, region = _span_ring()
        spanned = b"a" * (2 * FRAGMENT + 5)      # 3 slots
        index, _record = _land(region, writer, spanned)
        _land(region, writer, b"next")
        # A stale continuation at the head is not a record...
        reader.head = index + 1
        assert reader.peek_run() == [] and reader.head == index + 1
        # ...but after a lapped resync its start is gone for good.
        reader.head = 0
        reader.fast_forward(index + 1)
        assert reader.peek_run() == [b"next"]
        assert reader.head == index + 3
        reader.advance()
        assert reader.head == writer.tail
        # A later continuation at the head is again just not landed.
        _land(region, writer, spanned)
        region.write(reader.offset_of(reader.head), bytes(SPAN_SIZE))
        assert reader.peek_run() == []
