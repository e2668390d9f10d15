"""The compiled codec ships the recorded bytes and decodes like the
recursive decoder it replaced.

- Golden bytes: every frame :mod:`wire_golden` builds — call packets,
  batches, summary payloads and ``F``/``S`` backup messages of every
  bundled data type, with the cluster (tabled) and table-less codec —
  equals the bytes recorded before the codec was compiled, through the
  generic encoders and through the pre-packed ones the runtime uses.
- Differential: on arbitrary frames, bit-flipped frames and random
  bytes, the compiled decoders and the reference below (the recursive
  decoder, kept verbatim in behaviour) return the same value or both
  raise :class:`WireError`.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Call
from repro.runtime import StringTable, WireCodec, WireError, render_summary

from .wire_golden import FACTORIES, GOLDEN_PATH, codecs_for, golden_frames

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = sorted(GOLDEN)


# -- golden bytes ---------------------------------------------------------------


def _frames(case):
    name, label = case.split("/")
    spec = FACTORIES[name]()
    codec = codecs_for(spec)[label]
    return spec, codec, golden_frames(name, spec, codec)


@pytest.mark.parametrize("case", CASES)
def test_generic_encoders_ship_the_recorded_bytes(case):
    _spec, _codec, frames = _frames(case)
    assert {k: v.hex() for k, v in frames.items()} == GOLDEN[case]


@pytest.mark.parametrize("case", CASES)
def test_pre_packed_frames_ship_the_recorded_bytes(case):
    spec, codec, _frames_ = _frames(case)
    golden = {k: bytes.fromhex(v) for k, v in GOLDEN[case].items()}
    for key, frame in golden.items():
        kind, _, rest = key.partition(".")
        if kind == "F":
            assert codec.encode_f_backup(golden[f"packet.{rest}"]) == frame
        elif kind == "S":
            group, index = rest.split(".")
            payload = golden[f"summary.{group}.{index}"]
            assert codec.encode_s_backup(group, payload) == frame
        elif kind == "summary":
            method, arg, origin, rid, counts = (
                reference_decode_value(codec.table, frame)
            )
            call = Call(method, arg, origin, rid)
            assert codec.encode_summary(call, counts) == frame
            # The slot carries exactly that payload behind its header.
            slot = render_summary(9, call, counts, 4096, codec=codec)
            assert slot[12:-8] == frame
    assert any(key.startswith("F.") for key in golden), spec.name


@pytest.mark.parametrize("case", CASES)
def test_golden_frames_decode_like_the_reference(case):
    _spec, codec, _frames_ = _frames(case)
    for hexed in GOLDEN[case].values():
        _assert_same(codec, bytes.fromhex(hexed))


# -- the reference decoder (the recursive decoder before compilation) ------------


def _ref_uvarint(data, offset):
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


def _ref_str(table, data, offset):
    sid, offset = _ref_uvarint(data, offset)
    if sid == 0:
        length, offset = _ref_uvarint(data, offset)
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise WireError("truncated string payload")
        return payload.decode("utf-8"), offset + length
    if table is None:
        raise WireError(f"interned string id {sid} without a table")
    return table.string_of(sid), offset


def _ref_value(table, data, offset):
    if offset >= len(data):
        raise WireError("truncated value")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"f":
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if tag == b"i":
        zz, offset = _ref_uvarint(data, offset)
        return (zz >> 1) ^ -(zz & 1), offset
    if tag == b"s":
        return _ref_str(table, data, offset)
    if tag == b"b":
        length, offset = _ref_uvarint(data, offset)
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise WireError("truncated payload")
        return bytes(payload), offset + length
    if tag in (b"t", b"l", b"z"):
        count, offset = _ref_uvarint(data, offset)
        if count > len(data) - offset:
            raise WireError("container count exceeds remaining bytes")
        items = []
        for _ in range(count):
            item, offset = _ref_value(table, data, offset)
            items.append(item)
        if tag == b"t":
            return tuple(items), offset
        if tag == b"l":
            return items, offset
        return frozenset(items), offset
    if tag == b"d":
        count, offset = _ref_uvarint(data, offset)
        if count > len(data) - offset:
            raise WireError("container count exceeds remaining bytes")
        result = {}
        for _ in range(count):
            key, offset = _ref_value(table, data, offset)
            value, offset = _ref_value(table, data, offset)
            result[key] = value
        return result, offset
    raise WireError(f"unknown tag {tag!r}")


def _ref_packet(table, data, offset):
    method, offset = _ref_str(table, data, offset)
    origin, offset = _ref_str(table, data, offset)
    zz, offset = _ref_uvarint(data, offset)
    n_deps, offset = _ref_uvarint(data, offset)
    if n_deps > len(data) - offset:
        raise WireError("dependency count exceeds remaining bytes")
    dep = {}
    for _ in range(n_deps):
        proc, offset = _ref_str(table, data, offset)
        dep_method, offset = _ref_str(table, data, offset)
        count, offset = _ref_uvarint(data, offset)
        dep[(proc, dep_method)] = count
    arg, offset = _ref_value(table, data, offset)
    return (Call(method, arg, origin, (zz >> 1) ^ -(zz & 1)), dep), offset


_REF_ERRORS = (struct.error, TypeError, ValueError, IndexError,
               OverflowError, UnicodeDecodeError, RecursionError)


def _whole(decode, data):
    try:
        value, offset = decode(data)
    except WireError:
        raise
    except _REF_ERRORS as exc:
        raise WireError(f"malformed: {exc}") from exc
    if offset != len(data):
        raise WireError("trailing bytes")
    return value


def reference_decode_value(table, data):
    if data[:1] != b"\x01":
        raise WireError("not a value frame")
    return _whole(lambda d: _ref_value(table, d, 1), data)


def reference_decode_call_packet(table, data):
    if data[:1] != b"\x02":
        raise WireError("not a call packet")
    return _whole(lambda d: _ref_packet(table, d, 1), data)


def reference_decode_call_batch(table, data):
    if data[:1] != b"\x03":
        raise WireError("not a batch frame")

    def batch(d):
        count, offset = _ref_uvarint(d, 1)
        if count > len(d) - offset:
            raise WireError("batch count exceeds remaining bytes")
        entries = []
        for _ in range(count):
            entry, offset = _ref_packet(table, d, offset)
            entries.append(entry)
        return entries, offset

    return _whole(batch, data)


_REFERENCE = {
    "value": reference_decode_value,
    "packet": reference_decode_call_packet,
    "batch": reference_decode_call_batch,
}


def _reference(table, data):
    """Every decoder's outcome on ``data``: value or WireError."""
    return {
        kind: _outcome(lambda decode=decode: decode(table, data))
        for kind, decode in _REFERENCE.items()
    }


def _compiled(codec, data):
    def run():
        return {
            "value": _outcome(lambda: codec.decode_value(data)),
            "packet": _outcome(lambda: codec.decode_call_packet(data)),
            "batch": _outcome(lambda: codec.decode_call_batch(data)),
        }
    return run


def _outcome(decode):
    """``("ok", repr)`` or ``("error",)``: repr tells -0.0 from 0.0 and
    makes NaN equal to itself, as byte-exact decoding should."""
    try:
        value = decode()
    except WireError:
        return ("error",)
    return ("ok", type(value).__name__, repr(value))


# -- differential fuzz ------------------------------------------------------------

_TABLE = StringTable(
    ["p1", "p2", "p3", "add", "worksOn", "a", "b", "F", "S", "adds"]
)
_scalars = (
    st.none() | st.booleans() | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=True) | st.text(max_size=8)
    | st.sampled_from(["p1", "add", "F", "adds"]) | st.binary(max_size=8)
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.frozensets(
            st.integers(-300, 300) | st.text(max_size=4), max_size=4
        )
        | st.dictionaries(st.text(max_size=4) | st.integers(), inner,
                          max_size=3)
    ),
    max_leaves=10,
)
_deps = st.dictionaries(
    st.tuples(st.sampled_from(["p1", "p2", "p3", "p9"]),
              st.sampled_from(["add", "b", "zz"])),
    st.integers(0, 10**6),
    max_size=4,
)
_calls = st.builds(
    Call,
    st.sampled_from(["add", "worksOn", "outside-table"]),
    _values,
    st.sampled_from(["p1", "p2", "p9"]),
    st.integers(-(10**9), 10**9),
)


def _frame(draw_kind, codec, value, call, dep, calls):
    if draw_kind == "value":
        return codec.encode_value(value)
    if draw_kind == "packet":
        return codec.encode_call_packet(call, dep)
    return codec.encode_call_batch([(c, dep) for c in calls])


def _assert_same(codec, data):
    assert _compiled(codec, data)() == _reference(codec.table, data)
    # A second decode (a memo hit when the first succeeded) agrees.
    assert _compiled(codec, data)() == _reference(codec.table, data)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["value", "packet", "batch"]),
        value=_values, call=_calls, dep=_deps,
        calls=st.lists(_calls, min_size=1, max_size=3),
        tabled=st.booleans(),
    )
    def test_arbitrary_frames(self, kind, value, call, dep, calls, tabled):
        codec = WireCodec(_TABLE if tabled else None)
        _assert_same(codec, _frame(kind, codec, value, call, dep, calls))

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["value", "packet", "batch"]),
        value=_values, call=_calls, dep=_deps,
        calls=st.lists(_calls, min_size=1, max_size=3),
        flips=st.lists(st.integers(0, 2**16), min_size=1, max_size=3),
        tabled=st.booleans(), cross=st.booleans(),
    )
    def test_bitflipped_frames(self, kind, value, call, dep, calls, flips,
                               tabled, cross):
        writer = WireCodec(_TABLE if tabled else None)
        data = bytearray(_frame(kind, writer, value, call, dep, calls))
        for flip in flips:
            data[flip % len(data)] ^= 1 + (flip >> 8) % 255
        # Decode with the writer's codec or the other one.
        reader = WireCodec(_TABLE if tabled != cross else None)
        _assert_same(reader, bytes(data))

    @settings(max_examples=300, deadline=None)
    @given(garbage=st.binary(max_size=48), tabled=st.booleans())
    def test_random_bytes(self, garbage, tabled):
        _assert_same(WireCodec(_TABLE if tabled else None), garbage)
