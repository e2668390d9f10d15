"""Unit tests for summary slots."""

import struct
import zlib

import pytest

from repro.core import Call
from repro.rdma import Access, MemoryRegion
from repro.runtime import (
    SummarySlot,
    WireCodec,
    encode_value,
    render_summary,
    slot_size_for,
)

SLOT = slot_size_for(128)


@pytest.fixture
def slot():
    region = MemoryRegion("host", "summary", SLOT, Access.ALL)
    return SummarySlot(region, 0, SLOT), region


class TestSummarySlot:
    def test_empty_slot_reads_none(self, slot):
        reader, _region = slot
        assert reader.read() is None
        assert reader.applied_count("add") == 0

    def test_roundtrip(self, slot):
        reader, region = slot
        call = Call("add", 17, "p2", 5)
        region.write(0, render_summary(1, call, {"add": 3}, SLOT))
        value = reader.read()
        assert value == (call, {"add": 3})
        assert reader.applied_count("add") == 3
        assert reader.applied_count("other") == 0

    def test_overwrite_takes_latest(self, slot):
        reader, region = slot
        region.write(
            0, render_summary(1, Call("add", 1, "p", 1), {"add": 1}, SLOT)
        )
        region.write(
            0, render_summary(2, Call("add", 9, "p", 2), {"add": 2}, SLOT)
        )
        assert reader.read()[0].arg == 9
        assert reader.applied_count("add") == 2

    def test_torn_write_detected(self, slot):
        """Mismatched seqlock halves mean a write in flight: read None."""
        reader, region = slot
        good = render_summary(3, Call("add", 1, "p", 1), {"add": 1}, SLOT)
        region.write(0, good)
        # Corrupt the trailing sequence number (last 8 record bytes).
        region.write(len(good) - 8, b"\x99" + b"\x00" * 7)
        assert reader.read() is None

    def test_cache_invalidated_by_new_seq(self, slot):
        reader, region = slot
        region.write(
            0, render_summary(1, Call("add", 1, "p", 1), {"add": 1}, SLOT)
        )
        assert reader.read()[1] == {"add": 1}
        region.write(
            0, render_summary(2, Call("add", 5, "p", 2), {"add": 2}, SLOT)
        )
        assert reader.read()[1] == {"add": 2}

    def test_oversized_payload_rejected(self):
        big = Call("add", "x" * 500, "p", 1)
        with pytest.raises(ValueError, match="exceeds"):
            render_summary(1, big, {}, SLOT)

    def test_complex_args_roundtrip(self, slot):
        reader, region = slot
        call = Call("addEmployee", frozenset({"e1", "e2"}), "p3", 7)
        region.write(
            0, render_summary(4, call, {"addEmployee": 4}, SLOT)
        )
        assert reader.read()[0].arg == frozenset({"e1", "e2"})


class TestSlotFraming:
    """20 bytes of framing: seq u64 | length u32 | payload | seq mod 2^32
    u32 | crc32 u32 — the CRC rides where the old trailer's upper half
    was always zero, so bytes per update are unchanged."""

    def test_trailer_is_seq_low_half_then_crc(self, slot):
        _reader, _region = slot
        call = Call("add", 17, "p2", 5)
        data = render_summary(7, call, {"add": 3}, SLOT)
        payload = data[12:-8]
        assert len(data) == len(payload) + 20
        assert int.from_bytes(data[:8], "little") == 7
        assert int.from_bytes(data[8:12], "little") == len(payload)
        assert int.from_bytes(data[-8:-4], "little") == 7
        assert int.from_bytes(data[-4:], "little") == zlib.crc32(data[:-8])

    def test_bitflip_behind_an_intact_seqlock_is_damage(self, slot):
        reader, region = slot
        good = render_summary(3, Call("add", 1, "p", 1), {"add": 1}, SLOT)
        region.write(0, good)
        assert reader.read() is not None and not reader.damaged
        region.write(13, bytes([good[13] ^ 0x04]))  # inside the payload
        assert reader.read() is None
        assert reader.damaged
        region.write(0, good)
        assert reader.read() == (Call("add", 1, "p", 1), {"add": 1})
        assert not reader.damaged

    def test_empty_slot_is_not_damage_but_a_zeroed_seq_is(self, slot):
        reader, region = slot
        assert reader.read() is None and not reader.damaged
        good = render_summary(1, Call("add", 1, "p", 1), {"add": 1}, SLOT)
        region.write(0, b"\x00" * 8 + good[8:])
        assert reader.read() is None and reader.damaged

    def test_torn_write_is_damage(self, slot):
        reader, region = slot
        region.write(
            0, render_summary(1, Call("add", 1, "p", 1), {"add": 1}, SLOT)
        )
        newer = render_summary(2, Call("add", 5, "p", 2), {"add": 2}, SLOT)
        region.write(0, newer[:10])  # only a prefix lands
        assert reader.read() is None and reader.damaged

    def test_wrong_shape_payload_is_damage(self, slot):
        reader, region = slot
        payload = encode_value(("add", 1, "p"))  # three fields, not five
        head = struct.pack("<QI", 4, len(payload)) + payload
        region.write(0, head + struct.pack("<II", 4, zlib.crc32(head)))
        assert reader.read() is None and reader.damaged


class TestStampGatedRead:
    def test_unchanged_region_returns_the_previous_result(self, slot):
        reader, region = slot
        region.write(
            0, render_summary(1, Call("add", 2, "p", 1), {"add": 1}, SLOT)
        )
        first = reader.read()
        assert reader.read() is first
        # Bytes changed behind the stamp's back are not looked at: every
        # real mutation (local write, landed WRITE or CAS) bumps it.
        region.data[12:16] = b"\xff\xff\xff\xff"
        assert reader.read() is first
        region.write(0, b"\x00")
        assert reader.read() is None and reader.damaged

    def test_readers_of_one_version_share_one_decode(self):
        codec = WireCodec()
        regions = [
            MemoryRegion(f"h{i}", "summary", SLOT, Access.ALL)
            for i in range(3)
        ]
        data = render_summary(5, Call("add", 9, "p", 4), {"add": 2}, SLOT,
                              codec=codec)
        readers = [SummarySlot(r, 0, SLOT, codec=codec) for r in regions]
        for region in regions:
            region.write(0, data)
        values = [reader.read() for reader in readers]
        assert values[0] == (Call("add", 9, "p", 4), {"add": 2})
        assert values[0][1] is values[1][1] is values[2][1]
        assert len(codec._memo) == 1
