"""Summary slots for reducible methods (paper §2 "Reducible methods").

Each process stores, per summarization group and per process, a single
slot holding that process's current summary call and its applied
counts.  The owner of the summary (the issuing process) overwrites the
slot locally and at every peer with one RDMA write each.

Slot layout (seqlock pattern): an 8-byte sequence number, a 4-byte
payload length, the payload, and the same sequence number again in the
slot's final 8 bytes.  A reader that observes mismatched sequence
numbers is seeing a write in flight and retries — the moral equivalent
of the ring buffers' canary byte for an overwrite-in-place slot.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..core import Call
from ..rdma import MemoryRegion
from .wire import WireCodec, WireError, decode_value, encode_value

__all__ = ["SummarySlot", "SummaryValue", "render_summary", "slot_size_for"]

_HEADER = 12  # 8-byte seq + 4-byte length
_TRAILER = 8

#: What a slot stores: the summary call and the per-method applied
#: counts of the owning process within this summarization group.
SummaryValue = tuple[Call, dict[str, int]]


def slot_size_for(max_payload: int) -> int:
    return _HEADER + max_payload + _TRAILER


def render_summary(seq: int, call: Call, counts: dict[str, int],
                   slot_size: int,
                   codec: Optional[WireCodec] = None) -> bytes:
    """Render the used prefix of the slot for one RDMA write.

    The trailer sequence number sits immediately after the payload, so
    the remote write ships only record-sized bytes rather than the full
    reserved slot.  ``codec`` supplies the cluster's string table;
    without one the payload encodes every string inline.
    """
    encode = codec.encode_value if codec is not None else encode_value
    payload = encode((call.method, call.arg, call.origin, call.rid,
                      counts))
    used = _HEADER + len(payload) + _TRAILER
    if used > slot_size:
        raise ValueError(
            f"summary payload of {len(payload)} bytes exceeds slot size "
            f"{slot_size}"
        )
    slot = bytearray(used)
    struct.pack_into("<Q", slot, 0, seq)
    struct.pack_into("<I", slot, 8, len(payload))
    slot[_HEADER : _HEADER + len(payload)] = payload
    struct.pack_into("<Q", slot, used - _TRAILER, seq)
    return bytes(slot)


def current_record_bytes(region) -> bytes:
    """The used prefix of a summary region: header + payload + trailer.

    Used when a broadcast retry re-renders the slot's *current* bytes —
    shipping record-sized data, never the whole reserved region.
    """
    (length,) = struct.unpack_from("<I", region.data, 8)
    used = _HEADER + length + _TRAILER
    if used > region.size:
        used = region.size
    return region.read(0, used)


class SummarySlot:
    """Reader view over one summary slot region."""

    def __init__(self, region: MemoryRegion, offset: int, slot_size: int,
                 codec: Optional[WireCodec] = None):
        self.region = region
        self.offset = offset
        self.slot_size = slot_size
        #: Needed to resolve interned string ids in the payload.
        self.codec = codec
        self._cache_seq: Optional[int] = None
        self._cache_value: Optional[SummaryValue] = None

    def read(self) -> Optional[SummaryValue]:
        """Current summary, or None while the slot is empty/in flight.

        Decodes are cached by sequence number: the hot path (applied-
        count checks in the buffer traversal loops) re-reads slots far
        more often than they change.
        """
        raw = self.region.read(self.offset, self.slot_size)
        (seq1,) = struct.unpack_from("<Q", raw, 0)
        if seq1 == 0:
            return None
        (length,) = struct.unpack_from("<I", raw, 8)
        if _HEADER + length + _TRAILER > self.slot_size:
            return None  # garbage length: treat as in-flight
        (seq2,) = struct.unpack_from("<Q", raw, _HEADER + length)
        if seq1 != seq2:
            return None
        if seq1 == self._cache_seq:
            return self._cache_value
        decode = (
            self.codec.decode_value if self.codec is not None
            else decode_value
        )
        try:
            method, arg, origin, rid, counts = decode(
                bytes(raw[_HEADER : _HEADER + length])
            )
        except (WireError, ValueError, TypeError):
            # A corrupted payload behind an intact seqlock (the seqlock
            # only catches *incomplete* overwrites, like the rings'
            # canary byte): treat as in flight — the owner's next
            # summary write replaces the slot wholesale.
            return None
        value = (Call(method, arg, origin, rid), counts)
        self._cache_seq = seq1
        self._cache_value = value
        return value

    def applied_count(self, method: str) -> int:
        value = self.read()
        if value is None:
            return 0
        return value[1].get(method, 0)
