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

No pickle: the format is explicit, stable, and fuzzable
(tests/runtime/test_wire.py round-trips it under hypothesis).
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Optional

from ..core import Call
from ..core.rdma_semantics import DependencyMap

__all__ = [
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


def encode_value(value: Any) -> bytes:
    """Encode one value frame with the table-less codec (every string
    inline); raises :class:`WireError` on unsupported types."""
    return _PLAIN.encode_value(value)


def decode_value(data: bytes) -> Any:
    """Decode one table-less value frame, consuming the whole buffer.
    Malformed input of any shape raises :class:`WireError`."""
    return _PLAIN.decode_value(data)


# -- varint / zigzag primitives ----------------------------------------------


def _write_uvarint(value: int, out: bytearray) -> None:
    """LEB128 unsigned varint.  Unbounded precision, 7 bits per byte."""
    if value < 0:
        raise WireError("uvarint cannot encode a negative value")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


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


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


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

    __slots__ = ("table",)

    def __init__(self, table: Optional[StringTable] = None):
        self.table = table

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
        try:
            if data[:1] != _VALUE:
                raise WireError("not a value frame")
            value, offset = self._decode_from(data, 1)
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
        try:
            if data[:1] != _PACKET:
                raise WireError("not a call packet")
            entry, offset = self._decode_packet_body(data, 1)
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
        try:
            if data[:1] != _BATCH:
                raise WireError("not a batch frame")
            count, offset = _read_uvarint(data, 1)
            if count > len(data) - offset:
                raise WireError("batch count exceeds remaining bytes")
            entries = []
            for _ in range(count):
                entry, offset = self._decode_packet_body(data, offset)
                entries.append(entry)
        except WireError:
            raise
        except _DECODE_ERRORS as exc:
            raise WireError(f"malformed batch packet: {exc}") from exc
        if offset != len(data):
            raise WireError(f"{len(data) - offset} trailing bytes")
        return entries

    # -- internals ---------------------------------------------------------

    def _encode_str(self, string: str, out: bytearray) -> None:
        sid = self.table.id_of(string) if self.table is not None else None
        if sid is not None:
            _write_uvarint(sid, out)
        else:
            payload = string.encode("utf-8")
            out.append(0)  # id 0: inline escape
            _write_uvarint(len(payload), out)
            out += payload

    def _decode_str(self, data: bytes, offset: int) -> tuple[str, int]:
        sid, offset = _read_uvarint(data, offset)
        if sid == 0:
            length, offset = _read_uvarint(data, offset)
            payload = data[offset : offset + length]
            if len(payload) != length:
                raise WireError("truncated string payload")
            return payload.decode("utf-8"), offset + length
        if self.table is None:
            raise WireError(f"interned string id {sid} without a table")
        return self.table.string_of(sid), offset

    def _encode_packet_body(self, call: Call, dep: DependencyMap,
                            out: bytearray) -> None:
        # Fixed 5-tuple header: method, origin, rid, dep count, deps —
        # then the (self-delimiting) argument body.
        self._encode_str(call.method, out)
        self._encode_str(call.origin, out)
        _write_uvarint(_zigzag(call.rid), out)
        items = sorted(dep.items())
        _write_uvarint(len(items), out)
        for (proc, method), count in items:
            self._encode_str(proc, out)
            self._encode_str(method, out)
            _write_uvarint(count, out)
        self._encode_into(call.arg, out)

    def _decode_packet_body(
        self, data: bytes, offset: int
    ) -> tuple[tuple[Call, DependencyMap], int]:
        method, offset = self._decode_str(data, offset)
        origin, offset = self._decode_str(data, offset)
        zz, offset = _read_uvarint(data, offset)
        rid = _unzigzag(zz)
        n_deps, offset = _read_uvarint(data, offset)
        if n_deps > len(data) - offset:  # each dep is >= 3 bytes
            raise WireError("dependency count exceeds remaining bytes")
        dep: DependencyMap = {}
        for _ in range(n_deps):
            proc, offset = self._decode_str(data, offset)
            dep_method, offset = self._decode_str(data, offset)
            count, offset = _read_uvarint(data, offset)
            dep[(proc, dep_method)] = count
        arg, offset = self._decode_from(data, offset)
        return (Call(method, arg, origin, rid), dep), offset

    def _encode_into(self, value: Any, out: bytearray) -> None:
        if value is None:
            out += _NONE
        elif value is True:
            out += _TRUE
        elif value is False:
            out += _FALSE
        elif isinstance(value, int):
            out += _INT
            _write_uvarint(_zigzag(value), out)
        elif isinstance(value, float):
            out += _FLOAT + struct.pack("<d", value)
        elif isinstance(value, str):
            out += _STR
            self._encode_str(value, out)
        elif isinstance(value, bytes):
            out += _BYTES
            _write_uvarint(len(value), out)
            out += value
        elif isinstance(value, tuple):
            out += _TUPLE
            _write_uvarint(len(value), out)
            for item in value:
                self._encode_into(item, out)
        elif isinstance(value, list):
            out += _LIST
            _write_uvarint(len(value), out)
            for item in value:
                self._encode_into(item, out)
        elif isinstance(value, frozenset):
            # Canonical order so equal sets encode identically.
            items = sorted(value, key=lambda x: (repr(type(x)), repr(x)))
            out += _FROZENSET
            _write_uvarint(len(items), out)
            for item in items:
                self._encode_into(item, out)
        elif isinstance(value, dict):
            items = sorted(value.items(), key=lambda kv: repr(kv[0]))
            out += _DICT
            _write_uvarint(len(items), out)
            for key, item in items:
                self._encode_into(key, out)
                self._encode_into(item, out)
        else:
            raise WireError(f"unsupported wire type {type(value).__name__}")

    def _decode_from(self, data: bytes, offset: int) -> tuple[Any, int]:
        if offset >= len(data):
            raise WireError("truncated value")
        tag = data[offset : offset + 1]
        offset += 1
        if tag == _NONE:
            return None, offset
        if tag == _TRUE:
            return True, offset
        if tag == _FALSE:
            return False, offset
        if tag == _FLOAT:
            return struct.unpack_from("<d", data, offset)[0], offset + 8
        if tag == _INT:
            zz, offset = _read_uvarint(data, offset)
            return _unzigzag(zz), offset
        if tag == _STR:
            return self._decode_str(data, offset)
        if tag == _BYTES:
            length, offset = _read_uvarint(data, offset)
            payload = data[offset : offset + length]
            if len(payload) != length:
                raise WireError("truncated payload")
            return bytes(payload), offset + length
        if tag in (_TUPLE, _LIST, _FROZENSET):
            count, offset = _read_uvarint(data, offset)
            if count > len(data) - offset:  # each element is >= 1 byte
                raise WireError("container count exceeds remaining bytes")
            items = []
            for _ in range(count):
                item, offset = self._decode_from(data, offset)
                items.append(item)
            if tag == _TUPLE:
                return tuple(items), offset
            if tag == _LIST:
                return items, offset
            return frozenset(items), offset
        if tag == _DICT:
            count, offset = _read_uvarint(data, offset)
            if count > len(data) - offset:
                raise WireError("container count exceeds remaining bytes")
            result = {}
            for _ in range(count):
                key, offset = self._decode_from(data, offset)
                value, offset = self._decode_from(data, offset)
                result[key] = value
            return result, offset
        raise WireError(f"unknown tag {tag!r}")


#: The table-less codec behind the module-level helpers: its bytes
#: depend on nothing but the value, so exported traces and checker
#: checkpoints decode without the cluster that wrote them.
_PLAIN = WireCodec()
