"""Unit and property tests for single-writer ring buffers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdma import Access, MemoryRegion
from repro.runtime import RingError, RingReader, RingWriter, ring_region_size
from repro.runtime.ringbuffer import MAX_RECORD_PAYLOAD

SLOTS, SLOT_SIZE = 8, 32


@pytest.fixture
def ring():
    region = MemoryRegion(
        "host", "ring", ring_region_size(SLOTS, SLOT_SIZE), Access.ALL
    )
    return (
        RingWriter(SLOTS, SLOT_SIZE),
        RingReader(region, SLOTS, SLOT_SIZE),
        region,
    )


def push(writer, region, payload):
    offset, slot = writer.render(payload)
    region.write(offset, slot)


class TestBasics:
    def test_roundtrip(self, ring):
        writer, reader, region = ring
        push(writer, region, b"hello")
        assert reader.try_read() == b"hello"

    def test_empty_ring_reads_none(self, ring):
        _writer, reader, _region = ring
        assert reader.try_read() is None

    def test_fifo_order(self, ring):
        writer, reader, region = ring
        for i in range(5):
            push(writer, region, bytes([i]))
        assert [reader.try_read() for _ in range(5)] == [
            bytes([i]) for i in range(5)
        ]

    def test_peek_does_not_consume(self, ring):
        writer, reader, region = ring
        push(writer, region, b"x")
        assert reader.peek() == b"x"
        assert reader.peek() == b"x"
        reader.advance()
        assert reader.peek() is None

    def test_unlanded_record_invisible(self, ring):
        """A rendered but not-yet-written record must not be readable."""
        writer, reader, region = ring
        writer.render(b"in-flight")  # never written to the region
        assert reader.try_read() is None
        push(writer, region, b"second")
        # The reader is stuck at the missing first record: FIFO holds.
        assert reader.try_read() is None

    def test_empty_payload(self, ring):
        writer, reader, region = ring
        push(writer, region, b"")
        assert reader.try_read() == b""


class TestWraparound:
    def test_ring_reuses_slots(self, ring):
        writer, reader, region = ring
        for lap in range(3):
            for i in range(SLOTS):
                push(writer, region, bytes([lap, i]))
                assert reader.try_read() == bytes([lap, i])

    def test_stale_generation_not_readable(self, ring):
        """After a full lap, old canaries must not satisfy the reader."""
        writer, reader, region = ring
        for i in range(SLOTS):
            push(writer, region, bytes([i]))
            reader.try_read()
        # Next lap: slot 0 still holds lap-0 bytes; reader expects lap 1.
        assert reader.try_read() is None

    def test_reader_lap_detection(self, ring):
        writer, reader, region = ring
        for i in range(SLOTS + 1):  # writer laps the unread reader
            push(writer, region, bytes([i]))
        with pytest.raises(RingError, match="lapped"):
            reader.peek()

    @pytest.mark.parametrize("laps_ahead", [2, 3, 7])
    def test_reader_multi_lap_detection(self, ring, laps_ahead):
        """Regression: being lapped SEVERAL times must still raise.

        The old check only compared against the immediately-next
        generation, so a writer 2+ laps ahead left canaries the reader
        silently treated as 'not landed yet' — a wedged reader instead
        of a loud overrun."""
        writer, reader, region = ring
        for i in range(SLOTS * laps_ahead + 1):
            push(writer, region, bytes([i % 251]))
        with pytest.raises(RingError, match="lapped"):
            reader.peek()

    def test_reader_multi_lap_detection_mid_stream(self, ring):
        """Multi-lap overrun detected for a reader that already consumed
        part of an earlier lap (head > 0, head's own generation > 1)."""
        writer, reader, region = ring
        for i in range(SLOTS + SLOTS // 2):
            push(writer, region, bytes([i]))
            if i < SLOTS // 2:
                assert reader.try_read() == bytes([i])
        # Reader is mid-ring; writer now sprints 3 more laps ahead.
        for i in range(SLOTS * 3):
            push(writer, region, bytes([i % 251]))
        with pytest.raises(RingError, match="lapped"):
            reader.peek()

    def test_previous_lap_leftover_is_not_lapped(self, ring):
        """A slot still holding the PREVIOUS lap's record means our
        record is merely in flight — None, not an overrun error."""
        writer, reader, region = ring
        for i in range(SLOTS):
            push(writer, region, bytes([i]))
            reader.try_read()
        # Head expects lap-2 generation; slot holds lap 1: in flight.
        assert reader.peek() is None

    def test_peek_run_returns_consecutive_records(self, ring):
        writer, reader, region = ring
        for i in range(5):
            push(writer, region, bytes([i]))
        run = reader.peek_run()
        assert run == [bytes([i]) for i in range(5)]
        # Nothing consumed until advance().
        assert reader.head == 0
        for _ in range(5):
            reader.advance()
        assert reader.peek_run() == []

    def test_peek_run_stops_at_wrap_point(self, ring):
        """One region read never wraps: the run is clamped at the ring's
        end and the next sweep picks up from slot 0."""
        writer, reader, region = ring
        for i in range(SLOTS - 2):
            push(writer, region, bytes([i]))
            reader.try_read()
        for i in range(4):  # indices 6,7 (lap 1) then 8,9 (lap 2)
            push(writer, region, bytes([100 + i]))
        first = reader.peek_run()
        assert first == [bytes([100]), bytes([101])]  # clamped at wrap
        reader.advance()
        reader.advance()
        assert reader.peek_run() == [bytes([102]), bytes([103])]


class TestLimits:
    def test_oversized_payload_rejected(self, ring):
        writer, _reader, _region = ring
        with pytest.raises(RingError, match="exceeds"):
            writer.render(b"x" * (MAX_RECORD_PAYLOAD + 1))
        with pytest.raises(RingError, match="exceeds"):
            # Fits the record cap but would span more slots than the
            # ring has.
            writer.render(b"x" * (SLOTS * writer.max_payload + 1))
        assert writer.tail == 0

    def test_max_payload_fits(self, ring):
        writer, reader, region = ring
        payload = b"y" * writer.max_payload
        push(writer, region, payload)
        assert reader.try_read() == payload

    def test_flow_control_overrun_detected(self):
        writer = RingWriter(4, 16)
        writer.reader_acked = 0
        for _ in range(4):
            writer.render(b"z")
        with pytest.raises(RingError, match="overrun"):
            writer.render(b"z")

    def test_flow_control_ack_releases(self):
        writer = RingWriter(4, 16)
        writer.reader_acked = 0
        for _ in range(4):
            writer.render(b"z")
        writer.ack_up_to(2)
        writer.render(b"z")  # no raise

    def test_tiny_ring_rejected(self):
        with pytest.raises(RingError):
            RingWriter(0, 16)
        with pytest.raises(RingError):
            RingWriter(4, 5)

    def test_region_too_small_rejected(self):
        region = MemoryRegion("h", "r", 15, Access.ALL)
        with pytest.raises(RingError):
            RingReader(region, 4, 16)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=SLOT_SIZE - 9), max_size=40),
        read_pattern=st.lists(st.booleans(), max_size=80),
    )
    def test_never_loses_or_reorders(self, payloads, read_pattern):
        """Arbitrary interleaving of writes and reads preserves FIFO."""
        region = MemoryRegion(
            "h", "r", ring_region_size(SLOTS, SLOT_SIZE), Access.ALL
        )
        writer = RingWriter(SLOTS, SLOT_SIZE)
        reader = RingReader(region, SLOTS, SLOT_SIZE)
        to_write = list(payloads)
        expected = list(payloads)
        got = []
        pattern = iter(read_pattern)
        while to_write or len(got) < len(payloads):
            do_write = bool(to_write) and (
                writer.tail - reader.head < SLOTS
            ) and next(pattern, True)
            if do_write:
                push(writer, region, to_write.pop(0))
            else:
                payload = reader.try_read()
                if payload is not None:
                    got.append(payload)
                elif not to_write:
                    break
        assert got == expected[: len(got)]
        assert len(got) == len(payloads)


# -- checksummed records ------------------------------------------------


from repro.runtime import RingCorruptionError  # noqa: E402
from repro.runtime.ringbuffer import (  # noqa: E402
    RECORD_OVERHEAD,
    classify_corruption,
    parse_record,
    record_status,
)


class TestChecksummedRecords:
    def test_roundtrip(self, ring):
        writer, reader, region = ring
        push(writer, region, b"hello")
        assert reader.try_read() == b"hello"

    def test_framing_overhead(self):
        assert RECORD_OVERHEAD == 9
        assert RingWriter(SLOTS, SLOT_SIZE).max_payload == SLOT_SIZE - 9

    def test_writer_accepts_only_checksummed_records(self):
        RingWriter(SLOTS, SLOT_SIZE, integrity=True)
        with pytest.raises(ValueError, match="always checksummed"):
            RingWriter(SLOTS, SLOT_SIZE, integrity=False)

    def test_bitflip_in_payload_raises_corruption(self, ring):
        writer, reader, region = ring
        push(writer, region, b"hello")
        raw = bytearray(region.read(0, SLOT_SIZE))
        raw[5] ^= 0x40  # flip one payload bit
        region.write(0, bytes(raw))
        with pytest.raises(RingCorruptionError) as excinfo:
            reader.peek()
        assert excinfo.value.index == 0

    def test_flipped_canary_is_corruption_not_lapped(self, ring):
        """A foreign-generation canary with a failing CRC must not fake
        the 'reader lapped' verdict and trigger a needless resync."""
        writer, reader, region = ring
        push(writer, region, b"hello")
        raw = bytearray(region.read(0, SLOT_SIZE))
        canary_at = 4 + len(b"hello")
        raw[canary_at] = 99  # neither expected, 0, nor previous lap
        region.write(0, bytes(raw))
        with pytest.raises(RingCorruptionError):
            reader.peek()

    def test_torn_interior_write_raises_corruption(self, ring):
        writer, reader, region = ring
        offset, record = writer.render(b"abcdefgh")
        # Land the framing and a prefix of the payload, including the
        # canary position via the full record length... then zero the
        # interior: a torn write that skipped middle bytes.
        torn = bytearray(record)
        torn[6:8] = b"\x00\x00"
        region.write(offset, bytes(torn))
        with pytest.raises(RingCorruptionError):
            reader.peek()

    def test_record_without_flag_is_a_hole(self, ring):
        """A landed record whose only change is a cleared length MSB is
        no record: never delivered, never called valid — it reads as a
        hole for the repair paths to refill."""
        writer, reader, region = ring
        push(writer, region, b"hello")
        push(writer, region, b"world")
        slot = bytearray(region.read(0, SLOT_SIZE))
        slot[3] ^= 0x80  # the length field's top bit
        region.write(0, bytes(slot))
        assert reader.peek() is None
        assert reader.peek_run() == []
        assert reader.record_at(0) is None
        assert parse_record(bytes(slot), 0, SLOTS) is None
        assert record_status(bytes(slot), 0, SLOTS) == "empty"

    def test_quarantine_turns_corruption_into_hole(self, ring):
        writer, reader, region = ring
        push(writer, region, b"hello")
        raw = bytearray(region.read(0, SLOT_SIZE))
        raw[5] ^= 0x40
        region.write(0, bytes(raw))
        reader.quarantine(0)
        assert reader.peek() is None  # virgin again, not an error
        assert record_status(
            region.read(0, SLOT_SIZE), 0, SLOTS
        ) == "empty"

    def test_parse_record_treats_corrupt_as_hole(self, ring):
        writer, reader, region = ring
        push(writer, region, b"hello")
        slot = bytearray(region.read(0, SLOT_SIZE))
        assert parse_record(bytes(slot), 0, SLOTS) is not None
        assert record_status(bytes(slot), 0, SLOTS) == "valid"
        slot[5] ^= 0x40
        assert parse_record(bytes(slot), 0, SLOTS) is None
        assert record_status(bytes(slot), 0, SLOTS) == "corrupt"

    def test_classify_corruption(self):
        authoritative = bytes(range(32))
        flipped = bytearray(authoritative)
        flipped[7] ^= 0xFF
        assert classify_corruption(bytes(flipped), authoritative) \
            == "bitflip"
        torn = authoritative[:10] + b"\x00" * 22
        assert classify_corruption(torn, authoritative) == "torn"

    def test_in_flight_overwrite_reads_none_not_corrupt(self, ring):
        """A torn overwrite of a previous-lap record leaves the old
        canary in place: that is a legitimate in-flight state, not
        corruption."""
        writer, reader, region = ring
        for lap in range(SLOTS):
            push(writer, region, b"first")
        for _ in range(SLOTS):
            reader.try_read()
        # Second lap's record lands only its length field: the slot
        # still carries lap 1's canary, CRC no longer matches.
        offset, record = writer.render(b"second-lap")
        region.write(offset, record[:4])
        assert reader.peek() is None
