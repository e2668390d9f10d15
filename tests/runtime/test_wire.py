"""Unit and property tests for the wire format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Call
from repro.runtime import (
    StringTable,
    WireCodec,
    WireError,
    decode_value,
    encode_value,
)

_TABLE = StringTable(["p1", "p2", "p3", "add", "worksOn", "a", "b", "F", "S"])
_PLAIN = WireCodec()


def _codecs():
    """Every codec configuration decoders must cope with."""
    return [WireCodec(), WireCodec(table=_TABLE)]


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -1, 42, 10**30, 3.5, -0.25, "", "héllo", b"",
         b"\x00\xffraw"],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_unsupported_type_rejected(self):
        with pytest.raises(WireError, match="unsupported"):
            encode_value(object())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            decode_value(encode_value(1) + b"x")

    def test_truncated_rejected(self):
        data = encode_value("hello")
        with pytest.raises(WireError):
            decode_value(data[:-1])

    def test_empty_rejected(self):
        with pytest.raises(WireError):
            decode_value(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError, match="unknown tag"):
            decode_value(b"\x01@")


class TestContainers:
    @pytest.mark.parametrize(
        "value",
        [
            (),
            (1, "two", None),
            ((1, 2), (3, (4,))),
            [],
            [1, [2, [3]]],
            frozenset(),
            frozenset({1, 2, 3}),
            frozenset({("a", 1), ("b", 2)}),
            {},
            {"k": 1, "nested": {"x": (1, 2)}},
        ],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_equal_frozensets_encode_identically(self):
        a = frozenset(["x", "y", "z"])
        b = frozenset(["z", "x", "y"])
        assert encode_value(a) == encode_value(b)

    def test_equal_dicts_encode_identically(self):
        assert encode_value({"a": 1, "b": 2}) == encode_value({"b": 2, "a": 1})

    def test_tuple_list_distinguished(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]


# Value shapes actually used by the bundled data types.
_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.text(max_size=20),
    st.binary(max_size=20),
)
_value = st.recursive(
    _leaf,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.frozensets(
            st.one_of(
                st.integers(-100, 100),
                st.text(max_size=8),
                st.tuples(st.text(max_size=4), st.integers(0, 100)),
            ),
            max_size=5,
        ),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(value=_value)
    def test_roundtrip_arbitrary(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=100, deadline=None)
    @given(
        method=st.text(min_size=1, max_size=12),
        arg=_value,
        origin=st.sampled_from(["p1", "p2", "p3"]),
        rid=st.integers(1, 10**6),
        dep=st.dictionaries(
            st.tuples(
                st.sampled_from(["p1", "p2", "p3"]),
                st.sampled_from(["a", "b"]),
            ),
            st.integers(0, 1000),
            max_size=5,
        ),
    )
    def test_call_packet_roundtrip(self, method, arg, origin, rid, dep):
        call = Call(method, arg, origin, rid)
        decoded_call, decoded_dep = _PLAIN.decode_call_packet(
            _PLAIN.encode_call_packet(call, dep)
        )
        assert decoded_call == call
        assert decoded_dep == dep


class TestFuzzDecoding:
    @settings(max_examples=300, deadline=None)
    @given(garbage=st.binary(max_size=64))
    def test_random_bytes_never_crash(self, garbage):
        """Arbitrary bytes either decode or raise WireError — nothing
        else (no IndexError/UnicodeDecodeError leaking out)."""
        try:
            decode_value(garbage)
        except WireError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(value=_value, flip=st.integers(0, 2**16))
    def test_bitflipped_encodings_never_crash(self, value, flip):
        data = bytearray(encode_value(value))
        if data:
            data[flip % len(data)] ^= 1 + (flip >> 8) % 255
        try:
            decode_value(bytes(data))
        except WireError:
            pass


class TestCallPacket:
    def test_malformed_packet_rejected(self):
        with pytest.raises(WireError, match="not a call packet"):
            _PLAIN.decode_call_packet(encode_value((1, 2)))

    def test_dependency_arrays_preserved(self):
        call = Call("worksOn", ("e1", "p1"), "p2", 9)
        dep = {("p1", "addEmployee"): 3, ("p2", "addProject"): 1}
        _, decoded = _PLAIN.decode_call_packet(
            _PLAIN.encode_call_packet(call, dep)
        )
        assert decoded == dep

    @pytest.mark.parametrize(
        "tail",
        [
            b"\x09N",                                  # count past the end
            b"\x02\x00\x02p2\x00\x01a\x03N",           # count past entries
            b"\x80",                                   # truncated count
            b"\x01\x7f\x00\x01a\x03N",                 # id outside table
            b"\x01\x00\x09p2",                         # string past the end
            b"\x01\x00\x02\xff\xfe\x00\x01a\x03N",     # invalid UTF-8
            b"\x01\x00\x02p2\x00\x01a",                # missing count
        ],
        ids=["count-past-end", "count-past-entries", "truncated-count",
             "id-outside-table", "string-past-end", "invalid-utf8",
             "missing-count"],
    )
    def test_malformed_dependency_section_raises_wire_error(self, tail):
        """A packet whose header is well formed but whose dependency
        section is not raises WireError — alone and inside a batch —
        never a bare IndexError/UnicodeDecodeError."""
        # Call("m", None, "p1", 1) with every string inline, then `tail`.
        body = b"\x00\x01m\x00\x02p1\x02" + tail
        for codec in _codecs():
            with pytest.raises(WireError):
                codec.decode_call_packet(b"\x02" + body)
            with pytest.raises(WireError):
                codec.decode_call_batch(b"\x03\x01" + body)


class TestStringTable:
    def test_deterministic_from_unordered_inputs(self):
        a = StringTable(["b", "a", "c", "a"])
        b = StringTable(["c", "b", "a"])
        assert a.strings == b.strings
        assert a.id_of("b") == b.id_of("b")

    def test_id_zero_reserved_for_inline(self):
        table = StringTable(["x"])
        assert table.id_of("x") == 1
        assert table.id_of("missing") is None
        with pytest.raises(WireError, match="outside table"):
            table.string_of(7)


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -1, 42, 10**30, -(10**30), 3.5, "", "héllo",
         b"\x00raw", (1, "two", None), [1, [2]], frozenset({1, 2}),
         {"k": (1, 2)}],
    )
    def test_value_roundtrip_all_codecs(self, value):
        for codec in _codecs():
            assert codec.decode_value(codec.encode_value(value)) == value

    def test_interned_id_without_table_rejected(self):
        tabled = WireCodec(table=_TABLE)
        data = tabled.encode_value("add")  # interned
        with pytest.raises(WireError, match="without a table"):
            WireCodec().decode_value(data)

    def test_unknown_string_falls_back_to_inline(self):
        tabled = WireCodec(table=_TABLE)
        data = tabled.encode_value("not-in-table")
        assert tabled.decode_value(data) == "not-in-table"
        # Inline escape is table-independent.
        assert WireCodec().decode_value(data) == "not-in-table"

    def test_packet_roundtrip_all_codecs(self):
        call = Call("worksOn", ("e1", "p1"), "p2", 9)
        dep = {("p1", "add"): 3, ("p2", "b"): 1}
        for codec in _codecs():
            got_call, got_dep = codec.decode_call_packet(
                codec.encode_call_packet(call, dep)
            )
            assert got_call == call
            assert got_dep == dep

    def test_batch_roundtrip_all_codecs(self):
        entries = [
            (Call("add", i, "p1", i + 1), {("p1", "add"): i})
            for i in range(4)
        ]
        for codec in _codecs():
            assert codec.decode_call_batch(
                codec.encode_call_batch(entries)
            ) == entries

    def test_v2_packet_is_substantially_smaller(self):
        """The headline claim: interned header + varint deps cut the
        per-record bytes sharply against the old self-describing
        format, which spent 137 bytes on this packet."""
        call = Call("worksOn", ("e1", "p1"), "p2", 12345)
        dep = {("p1", "add"): 30, ("p2", "add"): 7, ("p3", "b"): 121}
        packet = WireCodec(table=_TABLE).encode_call_packet(call, dep)
        assert len(packet) == 25

    def test_for_cluster_tables_agree_across_nodes(self):
        from repro.core import Coordination
        from repro.datatypes import courseware_spec

        coordination = Coordination.analyze(courseware_spec())
        a = WireCodec.for_cluster(2, coordination, ["p1", "p2", "p3"])
        b = WireCodec.for_cluster(2, coordination, ["p3", "p2", "p1"])
        assert a.table.strings == b.table.strings

    def test_bad_version_rejected(self):
        from repro.core import Coordination
        from repro.datatypes import gset_spec

        with pytest.raises(ValueError, match="wire version 3"):
            WireCodec.for_cluster(3, Coordination.analyze(gset_spec()), [])

    @pytest.mark.parametrize(
        "decoder", ["decode_value", "decode_call_packet", "decode_call_batch"]
    )
    def test_each_decoder_accepts_only_its_own_magic(self, decoder):
        """A value, a packet and a batch are distinct frames: a single
        packet is not a batch of one, nor a batch a packet."""
        call = Call("add", "x", "p1", 7)
        dep = {("p2", "add"): 2}
        for codec in _codecs():
            frames = {
                "decode_value": codec.encode_value(("add", "x")),
                "decode_call_packet": codec.encode_call_packet(call, dep),
                "decode_call_batch": codec.encode_call_batch([(call, dep)]),
            }
            decode = getattr(codec, decoder)
            decode(frames.pop(decoder))
            for frame in frames.values():
                with pytest.raises(WireError, match="not a"):
                    decode(frame)

    #: A call packet as the retired self-describing format encoded
    #: ``Call("add", "x", "p1", 7)`` with dependency ``{("p2", "add"): 2}``.
    _OLD_PACKET = (
        b"t\x05\x00\x00\x00s\x03\x00\x00\x00adds\x01\x00\x00\x00x"
        b"s\x02\x00\x00\x00p1i\x01\x00\x00\x007t\x01\x00\x00\x00"
        b"t\x03\x00\x00\x00s\x02\x00\x00\x00p2s\x03\x00\x00\x00add"
        b"i\x01\x00\x00\x002"
    )

    def test_old_format_rejected_by_every_decoder(self):
        """Frames of the retired self-describing format (first byte a
        printable tag) fail loudly at all three decoders, and the
        cluster codec refuses its version number."""
        from repro.core import Coordination
        from repro.datatypes import gset_spec

        frames = [bytes([tag]) for tag in b"NTFifsbtlzd"]
        frames.append(self._OLD_PACKET)
        for codec in _codecs():
            for decode in (codec.decode_value, codec.decode_call_packet,
                           codec.decode_call_batch):
                for frame in frames:
                    with pytest.raises(WireError, match="not a"):
                        decode(frame)
        with pytest.raises(ValueError, match="wire version 1"):
            WireCodec.for_cluster(1, Coordination.analyze(gset_spec()), [])


class TestFuzzPacketLayer:
    @settings(deadline=None)
    @given(garbage=st.binary(max_size=64))
    def test_random_bytes_never_crash_packet_or_batch(self, garbage):
        for codec in _codecs():
            for decode in (codec.decode_call_packet,
                           codec.decode_call_batch):
                try:
                    decode(garbage)
                except WireError:
                    pass

    @settings(deadline=None)
    @given(
        arg=_value,
        rid=st.integers(1, 10**9),
        dep=st.dictionaries(
            st.tuples(
                st.sampled_from(["p1", "p2", "p3"]),
                st.sampled_from(["a", "b", "worksOn"]),
            ),
            st.integers(0, 10**6),
            max_size=5,
        ),
        flip=st.integers(0, 2**16),
        tabled=st.booleans(),
    )
    def test_bitflipped_packets_never_crash(self, arg, rid, dep, flip,
                                            tabled):
        codec = WireCodec(table=_TABLE) if tabled else WireCodec()
        call = Call("worksOn", arg, "p1", rid)
        data = bytearray(codec.encode_call_packet(call, dep))
        data[flip % len(data)] ^= 1 + (flip >> 8) % 255
        for target in _codecs():
            for decode in (target.decode_call_packet,
                           target.decode_call_batch):
                try:
                    decode(bytes(data))
                except WireError:
                    pass

    @settings(deadline=None)
    @given(
        n=st.integers(1, 5),
        flip=st.integers(0, 2**16),
        tabled=st.booleans(),
    )
    def test_bitflipped_batches_never_crash(self, n, flip, tabled):
        codec = WireCodec(table=_TABLE) if tabled else WireCodec()
        entries = [
            (Call("add", f"e{i}", "p2", i + 1), {("p1", "add"): i})
            for i in range(n)
        ]
        data = bytearray(codec.encode_call_batch(entries))
        data[flip % len(data)] ^= 1 + (flip >> 8) % 255
        for target in _codecs():
            try:
                target.decode_call_batch(bytes(data))
            except WireError:
                pass

    @settings(deadline=None)
    @given(
        method=st.sampled_from(["add", "worksOn", "outside-table"]),
        arg=_value,
        origin=st.sampled_from(["p1", "p2", "p3"]),
        rid=st.integers(1, 10**6),
        dep=st.dictionaries(
            st.tuples(
                st.sampled_from(["p1", "p2", "p3"]),
                st.sampled_from(["a", "b"]),
            ),
            st.integers(0, 1000),
            max_size=5,
        ),
    )
    def test_v2_call_packet_roundtrip(self, method, arg, origin, rid, dep):
        codec = WireCodec(table=_TABLE)
        call = Call(method, arg, origin, rid)
        decoded_call, decoded_dep = codec.decode_call_packet(
            codec.encode_call_packet(call, dep)
        )
        assert decoded_call == call
        assert decoded_dep == dep
