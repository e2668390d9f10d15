"""Wire format: calls and dependency arrays as byte streams (paper §4).

Hamband serializes each call, its unique id, and its variable-sized
dependency arrays into a byte stream before the remote write.  One
codec covers the value shapes the bundled data types use (None, bool,
int, float, str, bytes, tuple, list, frozenset, dict): LEB128 varints
with zigzag for signed integers, varint lengths and counts, a fixed
call-packet header of interned origin/method ids drawn from a
per-cluster :class:`StringTable` (derived deterministically from the
coordination analysis at build time, so every node "negotiates" the
identical table without a handshake), and packed ``(proc_id,
method_id, varint count)`` dependency arrays.  Every frame starts with
a magic byte (0x01 value, 0x02 call packet, 0x03 batch) and each
decoder accepts only its own.

A cluster shares ONE codec object, and the codec decodes each frame
once: a bounded FIFO memo (:data:`MEMO_FRAMES`) maps frame bytes to the
decoded value, so the N−1 readers of one F record, the followers of one
L batch and the readers of one summary version share a single decode.
Decoding is a pure function of (bytes, table): corrupted bytes never
hit, and only successful decodes are remembered.  Decoded values are
shared, so consumers must treat them as immutable.  The fixed fields
are compiled at construction: interned ids, ``(method, origin)``
headers, dependency keys and the backup-message prefixes are
pre-packed bytes, and encoders and decoders dispatch on type and tag.

No pickle: the format is explicit, stable, and fuzzable
(tests/runtime/test_wire.py round-trips it under hypothesis, and
tests/runtime/test_wire_compiled.py pins golden bytes).
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Optional

from ..core import Call
from ..core.rdma_semantics import DependencyMap

__all__ = [
    "MEMO_FRAMES",
    "StringTable",
    "WireCodec",
    "WireError",
    "decode_value",
    "encode_value",
]


class WireError(Exception):
    """Malformed wire data."""


#: Value tags inside a frame.
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT = b"i"
_FLOAT = b"f"
_STR = b"s"
_BYTES = b"b"
_TUPLE = b"t"
_LIST = b"l"
_FROZENSET = b"z"
_DICT = b"d"

#: Frame magics: the first byte of every encoded record.
_VALUE = b"\x01"
_PACKET = b"\x02"
_BATCH = b"\x03"

#: Decoded frames a codec remembers: enough for every reader of one
#: record to share its decode while the cluster writes on, small enough
#: that the memo's memory stays flat.
MEMO_FRAMES = 64

#: Exceptions the raw decoders may raise on malformed bytes; every
#: public decode entry point converts these to :class:`WireError`.
_DECODE_ERRORS = (
    struct.error,
    TypeError,  # e.g. an unhashable element inside a frozenset
    ValueError,
    IndexError,
    OverflowError,
    UnicodeDecodeError,
    RecursionError,
)

_MISS = object()
_DOUBLE = struct.Struct("<d")
#: ``i`` + one-byte zigzag varint, for every int in [-64, 63].
_SMALL_INTS = tuple(_INT + bytes((zz,)) for zz in range(0x80))
#: A summary payload, ``(method, arg, origin, rid, counts)``, up to the
#: method's string id.
_SUMMARY_HEAD = _VALUE + _TUPLE + b"\x05" + _STR


def encode_value(value: Any) -> bytes:
    """Encode one value frame with the table-less codec (every string
    inline); raises :class:`WireError` on unsupported types."""
    return _PLAIN.encode_value(value)


def decode_value(data: bytes) -> Any:
    """Decode one table-less value frame, consuming the whole buffer.
    Malformed input of any shape raises :class:`WireError`.  Never
    memoized: exported traces and checkpoints get values of their own."""
    return _PLAIN._decode_value(data)


# -- varint / zigzag primitives ----------------------------------------------


def _write_uvarint(value: int, out: bytearray) -> None:
    """LEB128 unsigned varint.  Unbounded precision, 7 bits per byte."""
    if value < 0:
        raise WireError("uvarint cannot encode a negative value")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _uvarint(value: int) -> bytes:
    out = bytearray()
    _write_uvarint(value, out)
    return bytes(out)


def _read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


class StringTable:
    """Deterministic string interning table shared by a cluster.

    Built from the coordination analysis (method names, process names,
    sync-group ids) during cluster construction — the same inputs on
    every node yield the identical ``sorted(set(...))`` table, which is
    how the "negotiation" happens without any extra round trips.  Id 0
    is reserved as the inline escape: strings outside the table still
    encode (varint length + UTF-8), they just don't compress.
    """

    __slots__ = ("strings", "_ids")

    def __init__(self, strings: Iterable[str]):
        self.strings: tuple[str, ...] = tuple(sorted(set(strings)))
        self._ids = {s: i + 1 for i, s in enumerate(self.strings)}

    def __len__(self) -> int:
        return len(self.strings)

    def __contains__(self, string: str) -> bool:
        return string in self._ids

    def id_of(self, string: str) -> Optional[int]:
        """The interned id (>= 1), or None when not in the table."""
        return self._ids.get(string)

    def string_of(self, sid: int) -> str:
        if 1 <= sid <= len(self.strings):
            return self.strings[sid - 1]
        raise WireError(f"string id {sid} outside table of {len(self)}")


class WireCodec:
    """The codec of one cluster: values, call packets and batches.

    Without a :class:`StringTable` every string encodes inline;
    decoding an interned id without a table raises :class:`WireError`.
    """

    __slots__ = (
        "table", "_sids", "_strings", "_headers", "_dep_keys",
        "_f_prefix", "_s_prefix", "_s_heads", "_encoders", "_decoders",
        "_memo",
    )

    def __init__(self, table: Optional[StringTable] = None):
        self.table = table
        strings = table.strings if table is not None else ()
        #: Interned string -> its pre-packed id bytes.
        self._sids = {s: _uvarint(i + 1) for i, s in enumerate(strings)}
        #: Id -> string; id 0 is the inline escape.
        self._strings = (None, *strings)
        #: Pre-packed ``(method, origin)`` headers and ``(proc, method)``
        #: dependency keys, for interned pairs only (bounded by the
        #: table, whatever strings a caller sends).
        self._headers: dict[tuple[str, str], bytes] = {}
        self._dep_keys: dict[tuple[str, str], bytes] = {}
        #: ``encode_value(("F", packet))`` / ``(("S", group, slot))``
        #: up to the variable part.
        self._f_prefix = (
            _VALUE + _TUPLE + b"\x02" + _STR + self._str_bytes("F") + _BYTES
        )
        self._s_prefix = (
            _VALUE + _TUPLE + b"\x03" + _STR + self._str_bytes("S") + _STR
        )
        #: Summarization group -> the S prefix through the group (the
        #: spec's handful of groups).
        self._s_heads: dict[str, bytes] = {}
        self._encoders = {
            type(None): self._enc_none,
            bool: self._enc_bool,
            int: self._enc_int,
            float: self._enc_float,
            str: self._enc_str,
            bytes: self._enc_bytes,
            tuple: self._enc_tuple,
            list: self._enc_list,
            frozenset: self._enc_frozenset,
            dict: self._enc_dict,
        }
        decoders = [self._dec_unknown] * 256
        for tag, decoder in (
            (_NONE, self._dec_none), (_TRUE, self._dec_true),
            (_FALSE, self._dec_false), (_INT, self._dec_int),
            (_FLOAT, self._dec_float), (_STR, self._dec_str),
            (_BYTES, self._dec_bytes), (_TUPLE, self._dec_tuple),
            (_LIST, self._dec_list), (_FROZENSET, self._dec_frozenset),
            (_DICT, self._dec_dict),
        ):
            decoders[tag[0]] = decoder
        self._decoders = tuple(decoders)
        #: Frame bytes -> decoded value, oldest first (see MEMO_FRAMES).
        self._memo: dict[bytes, Any] = {}

    @classmethod
    def for_cluster(cls, version: int, coordination,
                    processes: Iterable[str]) -> "WireCodec":
        """The cluster-wide codec: same inputs on every node, same table.

        ``version`` must be 2, the number of the one wire format.
        """
        if version != 2:
            raise ValueError(f"unsupported wire version {version}")
        spec = coordination.spec
        strings = list(spec.update_names())
        strings += list(spec.query_names())
        strings += list(processes)
        strings += [group.gid for group in coordination.sync_groups()]
        strings += ["F", "S"]  # broadcast record tags
        return cls(table=StringTable(strings))

    # -- value frames ------------------------------------------------------

    def encode_value(self, value: Any) -> bytes:
        out = bytearray(_VALUE)
        self._encode_into(value, out)
        return bytes(out)

    def decode_value(self, data: bytes) -> Any:
        """Decode one value frame (memoized; treat the result as
        immutable)."""
        return self._memoized(data, _VALUE[0], self._decode_value)

    def _decode_value(self, data: bytes) -> Any:
        try:
            if data[:1] != _VALUE:
                raise WireError("not a value frame")
            value, offset = self._value_at(data, 1)
        except WireError:
            raise
        except _DECODE_ERRORS as exc:
            raise WireError(f"malformed wire data: {exc}") from exc
        if offset != len(data):
            raise WireError(f"{len(data) - offset} trailing bytes")
        return value

    # -- call packets ------------------------------------------------------

    def encode_call_packet(self, call: Call, dep: DependencyMap) -> bytes:
        """A buffered record: the call plus its dependency arrays.

        The dependency map is shipped as the paper's variable-sized
        per-method arrays, packed as ``(proc_id, method_id, varint
        count)`` behind a fixed five-field header.
        """
        out = bytearray(_PACKET)
        self._encode_packet_body(call, dep, out)
        return bytes(out)

    def decode_call_packet(self, data: bytes) -> tuple[Call, DependencyMap]:
        """Decode one call packet (memoized; treat the call's dependency
        map as immutable)."""
        return self._memoized(data, _PACKET[0], self._decode_call_packet)

    def _decode_call_packet(self, data: bytes) -> tuple[Call, DependencyMap]:
        try:
            if data[:1] != _PACKET:
                raise WireError("not a call packet")
            entry, offset = self._packet_at(data, 1)
        except WireError:
            raise
        except _DECODE_ERRORS as exc:
            raise WireError(f"malformed call packet: {exc}") from exc
        if offset != len(data):
            raise WireError(f"{len(data) - offset} trailing bytes")
        return entry

    # -- batches -----------------------------------------------------------

    def encode_call_batch(
        self, entries: list[tuple[Call, DependencyMap]]
    ) -> bytes:
        """A batched record: several calls (with their dependency
        arrays) decided together by the leader and shipped in one
        remote write."""
        out = bytearray(_BATCH)
        _write_uvarint(len(entries), out)
        for call, dep in entries:
            self._encode_packet_body(call, dep, out)
        return bytes(out)

    def decode_call_batch(
        self, data: bytes
    ) -> list[tuple[Call, DependencyMap]]:
        """Decode one batch (memoized: a fresh list of shared entries)."""
        return list(
            self._memoized(data, _BATCH[0], self._decode_call_batch)
        )

    def _decode_call_batch(
        self, data: bytes
    ) -> tuple[tuple[Call, DependencyMap], ...]:
        try:
            if data[:1] != _BATCH:
                raise WireError("not a batch frame")
            count, offset = _read_uvarint(data, 1)
            if count > len(data) - offset:
                raise WireError("batch count exceeds remaining bytes")
            entries = []
            for _ in range(count):
                entry, offset = self._packet_at(data, offset)
                entries.append(entry)
        except WireError:
            raise
        except _DECODE_ERRORS as exc:
            raise WireError(f"malformed batch packet: {exc}") from exc
        if offset != len(data):
            raise WireError(f"{len(data) - offset} trailing bytes")
        return tuple(entries)

    # -- pre-packed runtime frames -----------------------------------------

    def encode_f_backup(self, packet: bytes) -> bytes:
        """``encode_value(("F", packet))``: an F broadcast's backup."""
        size = len(packet)
        length = bytes((size,)) if size < 0x80 else _uvarint(size)
        return self._f_prefix + length + packet

    def encode_s_backup(self, group: str, slot: bytes) -> bytes:
        """``encode_value(("S", group, slot))``: a summary's backup."""
        head = self._s_heads.get(group)
        if head is None:
            head = self._s_prefix + self._str_bytes(group) + _BYTES
            self._s_heads[group] = head
        size = len(slot)
        length = bytes((size,)) if size < 0x80 else _uvarint(size)
        return head + length + slot

    def encode_summary(self, call: Call, counts: dict[str, int]) -> bytes:
        """``encode_value((method, arg, origin, rid, counts))``: the
        payload of a summary slot."""
        out = bytearray(_SUMMARY_HEAD)
        self._encode_str(call.method, out)
        self._encode_into(call.arg, out)
        out += _STR
        self._encode_str(call.origin, out)
        self._enc_int(call.rid, out)
        self._enc_dict(counts, out)
        return bytes(out)

    # -- internals ---------------------------------------------------------

    def _memoized(self, data: bytes, magic: int, decode) -> Any:
        """``decode(data)``, once per distinct frame of kind ``magic``.

        A hit checks the magic, so a frame never answers for another
        kind's decoder; a failed decode raises before it is remembered.
        Buffers other than ``bytes`` (unhashable) are decoded afresh.
        """
        if type(data) is not bytes:
            return decode(data)
        memo = self._memo
        value = memo.get(data, _MISS)
        if value is _MISS or data[0] != magic:
            value = decode(data)
            if len(memo) >= MEMO_FRAMES:
                del memo[next(iter(memo))]  # the oldest frame
            memo[data] = value
        return value

    def _str_bytes(self, string: str) -> bytes:
        sid = self._sids.get(string)
        if sid is not None:
            return sid
        out = bytearray()
        self._encode_str(string, out)
        return bytes(out)

    def _encode_str(self, string: str, out: bytearray) -> None:
        sid = self._sids.get(string)
        if sid is not None:
            out += sid
        else:
            payload = string.encode("utf-8")
            out.append(0)  # id 0: inline escape
            _write_uvarint(len(payload), out)
            out += payload

    def _str_at(self, data: bytes, offset: int) -> tuple[str, int]:
        sid = data[offset]
        if sid < 0x80:
            offset += 1
        else:
            sid, offset = _read_uvarint(data, offset)
        if sid:
            if sid < len(self._strings):
                return self._strings[sid], offset
            if self.table is None:
                raise WireError(f"interned string id {sid} without a table")
            raise WireError(
                f"string id {sid} outside table of {len(self.table)}"
            )
        length, offset = _read_uvarint(data, offset)
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise WireError("truncated string payload")
        return payload.decode("utf-8"), offset + length

    def _pair_bytes(self, cache: dict, first: str, second: str) -> bytes:
        """Two strings' encodings back to back, pre-packed when both
        are interned."""
        key = (first, second)
        packed = cache.get(key)
        if packed is None:
            packed = self._str_bytes(first) + self._str_bytes(second)
            if first in self._sids and second in self._sids:
                cache[key] = packed
        return packed

    def _encode_packet_body(self, call: Call, dep: DependencyMap,
                            out: bytearray) -> None:
        # Fixed 5-tuple header: method, origin, rid, dep count, deps —
        # then the (self-delimiting) argument body.
        out += self._pair_bytes(self._headers, call.method, call.origin)
        zz = _zigzag(call.rid)
        if zz < 0x80:
            out.append(zz)
        else:
            _write_uvarint(zz, out)
        if not dep:
            out.append(0)
        else:
            _write_uvarint(len(dep), out)
            dep_keys = self._dep_keys
            for (proc, method), count in sorted(dep.items()):
                out += self._pair_bytes(dep_keys, proc, method)
                if 0 <= count < 0x80:
                    out.append(count)
                else:
                    _write_uvarint(count, out)
        self._encode_into(call.arg, out)

    def _packet_at(
        self, data: bytes, offset: int
    ) -> tuple[tuple[Call, DependencyMap], int]:
        str_at = self._str_at
        method, offset = str_at(data, offset)
        origin, offset = str_at(data, offset)
        zz = data[offset]
        if zz < 0x80:
            offset += 1
        else:
            zz, offset = _read_uvarint(data, offset)
        rid = (zz >> 1) ^ -(zz & 1)
        n_deps = data[offset]
        if n_deps < 0x80:
            offset += 1
        else:
            n_deps, offset = _read_uvarint(data, offset)
        if n_deps > len(data) - offset:  # each dep is >= 3 bytes
            raise WireError("dependency count exceeds remaining bytes")
        dep: DependencyMap = {}
        for _ in range(n_deps):
            proc, offset = str_at(data, offset)
            dep_method, offset = str_at(data, offset)
            count = data[offset]
            if count < 0x80:
                offset += 1
            else:
                count, offset = _read_uvarint(data, offset)
            dep[(proc, dep_method)] = count
        arg, offset = self._value_at(data, offset)
        return (Call(method, arg, origin, rid), dep), offset

    # -- value encoders, dispatched on type ----------------------------------

    def _encode_into(self, value: Any, out: bytearray) -> None:
        encoder = self._encoders.get(type(value))
        if encoder is None:
            encoder = self._encoder_of_subclass(value)
        encoder(value, out)

    def _encoder_of_subclass(self, value: Any):
        for base in (int, float, str, bytes, tuple, list, frozenset, dict):
            if isinstance(value, base):
                return self._encoders[base]
        raise WireError(f"unsupported wire type {type(value).__name__}")

    def _enc_none(self, _value: None, out: bytearray) -> None:
        out += _NONE

    def _enc_bool(self, value: bool, out: bytearray) -> None:
        out += _TRUE if value else _FALSE

    def _enc_int(self, value: int, out: bytearray) -> None:
        zz = value * 2 if value >= 0 else -value * 2 - 1
        if zz < 0x80:
            out += _SMALL_INTS[zz]
            return
        out += _INT
        while zz >= 0x80:
            out.append((zz & 0x7F) | 0x80)
            zz >>= 7
        out.append(zz)

    def _enc_float(self, value: float, out: bytearray) -> None:
        out += _FLOAT + _DOUBLE.pack(value)

    def _enc_str(self, value: str, out: bytearray) -> None:
        out += _STR
        self._encode_str(value, out)

    def _enc_bytes(self, value: bytes, out: bytearray) -> None:
        out += _BYTES
        _write_uvarint(len(value), out)
        out += value

    def _enc_items(self, tag: bytes, items, out: bytearray) -> None:
        out += tag
        _write_uvarint(len(items), out)
        encode = self._encode_into
        for item in items:
            encode(item, out)

    def _enc_tuple(self, value: tuple, out: bytearray) -> None:
        self._enc_items(_TUPLE, value, out)

    def _enc_list(self, value: list, out: bytearray) -> None:
        self._enc_items(_LIST, value, out)

    def _enc_frozenset(self, value: frozenset, out: bytearray) -> None:
        # Canonical order so equal sets encode identically.
        items = sorted(value, key=lambda x: (repr(type(x)), repr(x)))
        self._enc_items(_FROZENSET, items, out)

    def _enc_dict(self, value: dict, out: bytearray) -> None:
        items = value.items()
        if len(items) > 1:
            items = sorted(items, key=lambda kv: repr(kv[0]))
        out += _DICT
        _write_uvarint(len(items), out)
        encode = self._encode_into
        for key, item in items:
            encode(key, out)
            encode(item, out)

    # -- value decoders, dispatched on tag -----------------------------------

    def _value_at(self, data: bytes, offset: int) -> tuple[Any, int]:
        if offset >= len(data):
            raise WireError("truncated value")
        return self._decoders[data[offset]](data, offset + 1)

    def _count_at(self, data: bytes, offset: int) -> tuple[int, int]:
        """A container's element count; each element is >= 1 byte."""
        count = data[offset]
        if count < 0x80:
            offset += 1
        else:
            count, offset = _read_uvarint(data, offset)
        if count > len(data) - offset:
            raise WireError("container count exceeds remaining bytes")
        return count, offset

    def _items_at(self, data: bytes, offset: int) -> tuple[list, int]:
        # The count check guarantees a tag byte for every element, so
        # elements dispatch on their tag without _value_at's check.
        count, offset = self._count_at(data, offset)
        decoders = self._decoders
        items = []
        for _ in range(count):
            item, offset = decoders[data[offset]](data, offset + 1)
            items.append(item)
        return items, offset

    def _dec_unknown(self, data: bytes, offset: int):
        raise WireError(f"unknown tag {data[offset - 1 : offset]!r}")

    def _dec_none(self, _data: bytes, offset: int) -> tuple[None, int]:
        return None, offset

    def _dec_true(self, _data: bytes, offset: int) -> tuple[bool, int]:
        return True, offset

    def _dec_false(self, _data: bytes, offset: int) -> tuple[bool, int]:
        return False, offset

    def _dec_int(self, data: bytes, offset: int) -> tuple[int, int]:
        zz = data[offset]
        if zz < 0x80:
            offset += 1
        else:
            zz, offset = _read_uvarint(data, offset)
        return (zz >> 1) ^ -(zz & 1), offset

    def _dec_float(self, data: bytes, offset: int) -> tuple[float, int]:
        return _DOUBLE.unpack_from(data, offset)[0], offset + 8

    def _dec_str(self, data: bytes, offset: int) -> tuple[str, int]:
        return self._str_at(data, offset)

    def _dec_bytes(self, data: bytes, offset: int) -> tuple[bytes, int]:
        length, offset = _read_uvarint(data, offset)
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise WireError("truncated payload")
        return bytes(payload), offset + length

    def _dec_tuple(self, data: bytes, offset: int) -> tuple[tuple, int]:
        items, offset = self._items_at(data, offset)
        return tuple(items), offset

    def _dec_list(self, data: bytes, offset: int) -> tuple[list, int]:
        return self._items_at(data, offset)

    def _dec_frozenset(self, data: bytes,
                       offset: int) -> tuple[frozenset, int]:
        items, offset = self._items_at(data, offset)
        return frozenset(items), offset

    def _dec_dict(self, data: bytes, offset: int) -> tuple[dict, int]:
        count, offset = self._count_at(data, offset)
        value_at = self._value_at
        result = {}
        for _ in range(count):
            key, offset = value_at(data, offset)
            value, offset = value_at(data, offset)
            result[key] = value
        return result, offset


#: The table-less codec behind the module-level helpers: its bytes
#: depend on nothing but the value, so exported traces and checker
#: checkpoints decode without the cluster that wrote them.
_PLAIN = WireCodec()
