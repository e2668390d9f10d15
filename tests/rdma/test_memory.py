"""Unit tests for registered memory regions."""

import pytest

from repro.rdma import Access, MemoryRegion, RdmaAccessError


class TestMemoryRegion:
    def test_read_write_roundtrip(self):
        mr = MemoryRegion("p1", "buf", 64, Access.ALL)
        mr.write(10, b"hello")
        assert mr.read(10, 5) == b"hello"

    def test_initially_zeroed(self):
        mr = MemoryRegion("p1", "buf", 16, Access.ALL)
        assert mr.read(0, 16) == b"\x00" * 16

    def test_u64_roundtrip(self):
        mr = MemoryRegion("p1", "buf", 16, Access.ALL)
        mr.write_u64(8, 0xDEADBEEF)
        assert mr.read_u64(8) == 0xDEADBEEF

    def test_out_of_bounds_read_rejected(self):
        mr = MemoryRegion("p1", "buf", 8, Access.ALL)
        with pytest.raises(RdmaAccessError):
            mr.read(4, 8)

    def test_out_of_bounds_write_rejected(self):
        mr = MemoryRegion("p1", "buf", 8, Access.ALL)
        with pytest.raises(RdmaAccessError):
            mr.write(6, b"toolong")

    def test_negative_offset_rejected(self):
        mr = MemoryRegion("p1", "buf", 8, Access.ALL)
        with pytest.raises(RdmaAccessError):
            mr.read(-1, 2)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion("p1", "buf", 0, Access.ALL)

    def test_check_remote_flags(self):
        mr = MemoryRegion("p1", "buf", 8, Access.LOCAL | Access.REMOTE_READ)
        mr.check_remote(Access.REMOTE_READ)
        with pytest.raises(RdmaAccessError):
            mr.check_remote(Access.REMOTE_WRITE)

    def test_rkeys_unique(self):
        a = MemoryRegion("p1", "a", 8, Access.ALL)
        b = MemoryRegion("p1", "b", 8, Access.ALL)
        assert a.rkey != b.rkey

    @pytest.mark.parametrize("offset", [-8, -1, 9, 16, 1 << 20])
    def test_read_u64_out_of_bounds_rejected(self, offset):
        # Unchecked, a negative offset read from the END of the region
        # and a large one surfaced as struct.error.
        mr = MemoryRegion("p1", "buf", 16, Access.ALL)
        mr.write(8, b"\xff" * 8)
        with pytest.raises(RdmaAccessError):
            mr.read_u64(offset)

    def test_read_returns_an_immutable_copy(self):
        mr = MemoryRegion("p1", "buf", 8, Access.ALL)
        mr.write(0, b"abcdefgh")
        snapshot = mr.read(0, 8)
        mr.write(0, b"ABCDEFGH")
        assert type(snapshot) is bytes and snapshot == b"abcdefgh"

    def test_stamp_advances_on_every_local_mutation_only(self):
        mr = MemoryRegion("p1", "buf", 32, Access.ALL)
        seen = [mr.stamp]
        mr.write(0, b"x")
        seen.append(mr.stamp)
        mr.write_u64(8, 7)
        seen.append(mr.stamp)
        mr.write(0, b"x")  # same bytes again: still a mutation
        seen.append(mr.stamp)
        assert seen == sorted(set(seen)) and len(seen) == 4
        mr.read(0, 8), mr.read_u64(8)
        for bad in (lambda: mr.write(31, b"xx"), lambda: mr.write_u64(30, 1)):
            with pytest.raises(RdmaAccessError):
                bad()
        assert mr.stamp == seen[-1]  # reads and refused writes do not bump
