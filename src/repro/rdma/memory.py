"""Registered memory regions.

An RDMA application registers memory with the NIC before peers can
access it.  A :class:`MemoryRegion` models a registered, byte-addressed
buffer with ibverbs-style access flags.  Remote peers address a region
by its remote key (``rkey``); the runtime layers above exchange rkeys
out of band at setup time, exactly as real deployments do.
"""

from __future__ import annotations

import enum
import itertools
import mmap
import struct

__all__ = ["Access", "MemoryRegion", "RdmaAccessError"]

_rkey_counter = itertools.count(1)

#: Transparent huge pages would make the first write into a ring fault
#: in 2 MiB instead of one 4 KiB page; absent off Linux.
_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", None)


class RdmaAccessError(Exception):
    """An access violated the region's registration flags."""


class Access(enum.Flag):
    """ibverbs-style registration flags."""

    LOCAL = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_ATOMIC = enum.auto()

    ALL = LOCAL | REMOTE_READ | REMOTE_WRITE | REMOTE_ATOMIC


class MemoryRegion:
    """A byte-addressed buffer registered with a simulated NIC.

    The owner node reads and writes it directly (local access); remote
    peers reach it through queue-pair verbs, which check the access
    flags on every operation.

    Storage is an anonymous demand-zero mapping: a registered byte reads
    as zero and costs no resident memory until its page is first
    written, so the n² mostly idle rings of a cluster are priced by the
    bytes they hold, not by ``RING_SLOTS * slot_size``.
    """

    def __init__(self, owner: str, name: str, size: int, access: Access):
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.owner = owner
        self.name = name
        self.size = size
        self.access = access
        self.rkey = next(_rkey_counter)
        self.data = mmap.mmap(-1, size)
        if _NOHUGEPAGE is not None:
            self.data.madvise(_NOHUGEPAGE)
        #: Monotone write stamp, bumped by every mutation (local write,
        #: landed remote WRITE or CAS): a reader that saw nothing at
        #: stamp *s* need not look again while the stamp is still *s*.
        self.stamp = 0

    # -- local (CPU) access ----------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        self._check_bounds(offset, length)
        return self.data[offset : offset + length]

    def write(self, offset: int, payload: bytes) -> None:
        self._check_bounds(offset, len(payload))
        self.data[offset : offset + len(payload)] = payload
        self.stamp += 1

    def read_u64(self, offset: int) -> int:
        self._check_bounds(offset, 8)
        return struct.unpack_from("<Q", self.data, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self._check_bounds(offset, 8)
        struct.pack_into("<Q", self.data, offset, value)
        self.stamp += 1

    # -- checks ------------------------------------------------------------

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise RdmaAccessError(
                f"access [{offset}, {offset + length}) out of bounds for "
                f"region {self.owner}/{self.name} of size {self.size}"
            )

    def check_remote(self, wanted: Access) -> None:
        if wanted not in self.access:
            raise RdmaAccessError(
                f"region {self.owner}/{self.name} does not permit {wanted}"
            )

    def __repr__(self) -> str:
        return (
            f"MemoryRegion({self.owner}/{self.name}, size={self.size}, "
            f"rkey={self.rkey})"
        )
