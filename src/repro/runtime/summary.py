"""Summary slots for reducible methods (paper §2 "Reducible methods").

Each process stores, per summarization group and per process, a single
slot holding that process's current summary call and its applied
counts.  The owner of the summary (the issuing process) overwrites the
slot locally and at every peer with one RDMA write each.

Slot layout (seqlock pattern plus a checksum), 20 bytes of framing::

    seq u64 | length u32 | payload | seq mod 2^32 u32 | crc32 u32

The trailer repeats the sequence number, so a reader that observes
mismatched halves is seeing a write in flight — the moral equivalent
of the ring buffers' canary byte for an overwrite-in-place slot.  The
CRC-32 covers the header and payload, so a bitflipped payload behind
an intact seqlock is detected too.  A slot that stays unreadable is
re-read from its owner by the apply layer's repair pass
(:meth:`~repro.runtime.applier.ApplyEngine.repair_summaries`): nothing
else would ever replace it while the owner stays quiet.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional

from ..core import Call
from ..rdma import MemoryRegion
from .wire import WireCodec, WireError, decode_value, encode_value

__all__ = [
    "SUMMARY_SLOT_SIZE",
    "SummarySlot",
    "SummaryValue",
    "parse_slot",
    "render_summary",
    "slot_size_for",
]

_HEAD = struct.Struct("<QI")  # seq, payload length
_TAIL = struct.Struct("<II")  # seq mod 2^32, crc32(head + payload)
_HEADER = _HEAD.size
_TRAILER = _TAIL.size
#: :func:`parse_slot`'s sequence number for a slot that does not parse.
_UNREADABLE = -1

#: What a slot stores: the summary call and the per-method applied
#: counts of the owning process within this summarization group.
SummaryValue = tuple[Call, dict[str, int]]


def slot_size_for(max_payload: int) -> int:
    return _HEADER + max_payload + _TRAILER


#: Bytes reserved per summary slot: room for a 4 KiB summary payload.
SUMMARY_SLOT_SIZE = slot_size_for(4096)


def render_summary(seq: int, call: Call, counts: dict[str, int],
                   slot_size: int,
                   codec: Optional[WireCodec] = None) -> bytes:
    """Render the used prefix of the slot for one RDMA write.

    The trailer sits immediately after the payload, so the remote write
    ships only record-sized bytes rather than the full reserved slot.
    ``codec`` supplies the cluster's string table; without one the
    payload encodes every string inline.
    """
    if codec is not None:
        payload = codec.encode_summary(call, counts)
    else:
        payload = encode_value(
            (call.method, call.arg, call.origin, call.rid, counts)
        )
    used = _HEADER + len(payload) + _TRAILER
    if used > slot_size:
        raise ValueError(
            f"summary payload of {len(payload)} bytes exceeds slot size "
            f"{slot_size}"
        )
    head = _HEAD.pack(seq, len(payload)) + payload
    return head + _TAIL.pack(seq & 0xFFFFFFFF, zlib.crc32(head))


def parse_slot(data, offset: int, slot_size: int):
    """``(seq, payload)`` of the slot at ``offset`` of ``data``: ``(0,
    None)`` for a never-written slot, ``(_UNREADABLE, None)`` for a torn,
    in-flight or corrupted one."""
    seq, length = _HEAD.unpack_from(data, offset)
    if seq == 0 and length == 0:
        return 0, None
    end = offset + _HEADER + length
    if _HEADER + length + _TRAILER > slot_size:
        return _UNREADABLE, None  # garbage length
    seq_lo, crc = _TAIL.unpack_from(data, end)
    if seq_lo != seq & 0xFFFFFFFF:
        return _UNREADABLE, None
    head = data[offset:end]
    if zlib.crc32(head) != crc:
        return _UNREADABLE, None
    return seq, head[_HEADER:]


def current_record_bytes(region) -> bytes:
    """The used prefix of a summary region: header + payload + trailer.

    Used when a broadcast retry re-renders the slot's *current* bytes —
    shipping record-sized data, never the whole reserved region.
    """
    (length,) = struct.unpack_from("<I", region.data, 8)
    return region.data[: min(_HEADER + length + _TRAILER, region.size)]


class SummarySlot:
    """Reader view over one summary slot region.

    Reads are gated on the region's write stamp: while nothing has
    landed in the region, :meth:`read` returns its previous result
    without touching the bytes.  Otherwise it parses the slot in place
    and decodes the payload through the codec's memo, so the readers of
    one summary version share a single decode.
    """

    __slots__ = ("region", "offset", "slot_size", "codec", "damaged",
                 "_decode_value", "_stamp", "_value")

    def __init__(self, region: MemoryRegion, offset: int, slot_size: int,
                 codec: Optional[WireCodec] = None):
        self.region = region
        self.offset = offset
        self.slot_size = slot_size
        #: Needed to resolve interned string ids in the payload.
        self.codec = codec
        self._decode_value = (
            codec.decode_value if codec is not None else decode_value
        )
        #: True while the slot holds bytes that do not parse: a torn or
        #: corrupted write that only the repair pass replaces.
        self.damaged = False
        self._stamp = -1
        self._value: Optional[SummaryValue] = None

    def read(self) -> Optional[SummaryValue]:
        """Current summary, or None while the slot is empty/unreadable."""
        stamp = self.region.stamp
        if stamp == self._stamp:
            return self._value
        self._stamp = stamp
        seq, payload = parse_slot(
            self.region.data, self.offset, self.slot_size
        )
        value = None if payload is None else self._decode(payload)
        self.damaged = value is None and seq != 0
        self._value = value
        return value

    def _decode(self, payload: bytes) -> Optional[SummaryValue]:
        try:
            decoded = self._decode_value(payload)
        except WireError:
            return None
        # A CRC-valid payload of the wrong shape is a writer bug; it
        # reads as unreadable rather than crashing the reader.
        if type(decoded) is not tuple or len(decoded) != 5:
            return None
        method, arg, origin, rid, counts = decoded
        if not (isinstance(method, str) and isinstance(origin, str)
                and isinstance(rid, int) and isinstance(counts, dict)):
            return None
        return Call(method, arg, origin, rid), counts

    def applied_count(self, method: str) -> int:
        value = self.read()
        if value is None:
            return 0
        return value[1].get(method, 0)
