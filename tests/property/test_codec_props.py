"""Property-based tests: wire codecs round-trip for arbitrary inputs."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import AsPath, AsPathDecodeError, AsPathSegment, decode_segments
from repro.bgp.attributes import (
    AttributeDecodeError,
    PathAttribute,
    attribute_tlvs,
    decode_attributes,
    encode_attributes,
    make_aggregator,
    make_as_path,
    make_atomic_aggregate,
    make_cluster_list,
    make_communities,
    make_geoloc,
    make_local_pref,
    make_med,
    make_next_hop,
    make_origin,
    make_originator_id,
)
from repro.bgp.communities import (
    LargeCommunity,
    decode_communities,
    decode_large_communities,
    encode_communities,
    encode_large_communities,
)
from repro.bgp.constants import AsPathSegmentType, AttrTypeCode, Origin
from repro.bgp.messages import NotificationMessage, OpenMessage, UpdateMessage, decode_message
from repro.bgp.prefix import Prefix
from repro.bgp.speaker import NATIVE_ENCODABLE
from repro.bird import BirdDaemon, BirdRoute
from repro.frr import FrrDaemon
from repro.frr.attrs_intern import FrrAttrs
from repro.frr.rib import FrrRoute
from repro.workload.mrt_io import _fields_from_tlvs

# -- strategies ---------------------------------------------------------

prefixes = st.builds(
    Prefix,
    network=st.integers(min_value=0, max_value=0xFFFFFFFF),
    length=st.integers(min_value=0, max_value=32),
)

asns = st.integers(min_value=0, max_value=0xFFFFFFFF)

segments = st.builds(
    AsPathSegment,
    kind=st.sampled_from(
        [AsPathSegmentType.AS_SEQUENCE, AsPathSegmentType.AS_SET]
    ),
    asns=st.lists(asns, min_size=1, max_size=10),
)

as_paths = st.builds(AsPath, st.lists(segments, max_size=4))

# Attribute flags: optional/transitive/partial combinations (extended
# length is an encoding artifact and normalized away by the decoder).
flags = st.sampled_from([0x40, 0x80, 0xC0, 0xE0])

attributes = st.builds(
    PathAttribute,
    flags=flags,
    type_code=st.integers(min_value=1, max_value=255),
    value=st.binary(max_size=300),
)


class TestPrefixProps:
    @given(prefixes)
    def test_wire_roundtrip(self, prefix):
        decoded, consumed = Prefix.decode(prefix.encode())
        assert decoded == prefix
        assert consumed == 1 + (prefix.length + 7) // 8

    @given(prefixes, prefixes)
    def test_contains_antisymmetry(self, a, b):
        if a.contains(b) and b.contains(a):
            assert a == b

    @given(prefixes, prefixes, prefixes)
    def test_contains_transitivity(self, a, b, c):
        if a.contains(b) and b.contains(c):
            assert a.contains(c)

    @given(prefixes, st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_contains_address_consistent(self, prefix, address):
        host = Prefix(address, 32)
        assert prefix.contains(host) == prefix.contains_address(address)


class TestAsPathProps:
    @given(as_paths)
    def test_wire_roundtrip(self, path):
        assert AsPath.decode(path.encode()) == path

    @given(as_paths, asns)
    def test_prepend_grows_by_one(self, path, asn):
        grown = path.prepend(asn)
        assert grown.length() == path.length() + 1
        assert grown.first_asn() == asn

    @given(as_paths)
    def test_length_counts_sets_once(self, path):
        expected = sum(
            1 if seg.kind == AsPathSegmentType.AS_SET else len(seg.asns)
            for seg in path.segments
        )
        assert path.length() == expected

    @given(as_paths, asns)
    def test_memoised_length_equals_a_fresh_recompute(self, path, asn):
        for candidate in (path, path.prepend(asn), AsPath.decode(path.encode())):
            fresh = sum(segment.path_length() for segment in candidate.segments)
            assert candidate.length() == fresh
            assert candidate.length() == fresh  # served from the memo
            assert len(candidate) == fresh


class TestCommunityProps:
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=20))
    def test_roundtrip_as_set(self, values):
        assert decode_communities(encode_communities(values)) == frozenset(values)

    @given(
        st.lists(
            st.builds(
                LargeCommunity,
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.integers(min_value=0, max_value=0xFFFFFFFF),
            ),
            max_size=10,
        )
    )
    def test_large_roundtrip(self, values):
        assert decode_large_communities(encode_large_communities(values)) == frozenset(
            values
        )


class TestAttributeProps:
    @given(st.lists(attributes, max_size=8, unique_by=lambda a: a.type_code))
    def test_block_roundtrip(self, attrs):
        decoded = decode_attributes(encode_attributes(attrs))
        assert sorted(decoded, key=lambda a: a.type_code) == sorted(
            attrs, key=lambda a: a.type_code
        )


class TestMessageProps:
    @settings(max_examples=50)
    @given(
        withdrawn=st.lists(prefixes, max_size=10),
        attrs=st.lists(attributes, max_size=5, unique_by=lambda a: a.type_code),
        nlri=st.lists(prefixes, max_size=10),
    )
    def test_update_roundtrip(self, withdrawn, attrs, nlri):
        message = UpdateMessage(withdrawn=withdrawn, attributes=attrs, nlri=nlri)
        decoded, _ = decode_message(message.encode())
        assert decoded.withdrawn == tuple(withdrawn)
        assert decoded.nlri == tuple(nlri)
        assert sorted(decoded.attributes, key=lambda a: a.type_code) == sorted(
            attrs, key=lambda a: a.type_code
        )

    @given(
        asn=st.integers(min_value=0, max_value=0xFFFF),
        hold=st.integers(min_value=3, max_value=0xFFFF),
        router_id=st.integers(min_value=1, max_value=0xFFFFFFFE),
    )
    def test_open_roundtrip(self, asn, hold, router_id):
        decoded, _ = decode_message(OpenMessage(asn, hold, router_id).encode())
        assert (decoded.asn, decoded.hold_time, decoded.router_id) == (
            asn,
            hold,
            router_id,
        )

    @given(
        code=st.integers(min_value=1, max_value=6),
        subcode=st.integers(min_value=0, max_value=255),
        data=st.binary(max_size=64),
    )
    def test_notification_roundtrip(self, code, subcode, data):
        decoded, _ = decode_message(NotificationMessage(code, subcode, data).encode())
        assert (decoded.code, decoded.subcode, decoded.data) == (code, subcode, data)


# -- the hosts' direct wire paths equal the neutral ones -----------------

_u32s = st.integers(min_value=0, max_value=0xFFFFFFFF)
_PREFIX = Prefix.parse("192.0.2.0/24")
_HOSTS = {
    "frr": (FrrDaemon(asn=65001, router_id="1.1.1.1"), FrrRoute),
    "bird": (BirdDaemon(asn=65001, router_id="1.1.1.1"), BirdRoute),
}

#: AS paths from empty to over 255 bytes, AS_SET segments included.
_long_paths = st.builds(
    AsPath,
    st.lists(
        st.builds(
            AsPathSegment,
            kind=st.sampled_from(
                [AsPathSegmentType.AS_SEQUENCE, AsPathSegmentType.AS_SET]
            ),
            asns=st.lists(asns, min_size=1, max_size=80),
        ),
        max_size=3,
    ),
)


def _optional(strategy):
    return st.none() | strategy


@st.composite
def attribute_sets(draw):
    """A well-formed block: mandatory ORIGIN and AS_PATH, every other
    attribute maybe, each code once, in arbitrary order."""
    attrs = [
        make_origin(draw(st.sampled_from(list(Origin)))),
        make_as_path(draw(_long_paths)),
    ]
    optional = [
        _optional(_u32s.map(make_next_hop)),
        _optional(_u32s.map(make_med)),
        _optional(_u32s.map(make_local_pref)),
        _optional(st.just(make_atomic_aggregate())),
        _optional(st.builds(make_aggregator, _u32s, _u32s)),
        _optional(st.lists(_u32s, max_size=8).map(make_communities)),
        _optional(_u32s.map(make_originator_id)),
        _optional(st.lists(_u32s, max_size=4).map(make_cluster_list)),
        _optional(
            st.lists(st.tuples(_u32s, _u32s, _u32s), min_size=1, max_size=3).map(
                lambda parts: PathAttribute(
                    0xC0,
                    AttrTypeCode.LARGE_COMMUNITIES,
                    encode_large_communities(LargeCommunity(*p) for p in parts),
                )
            )
        ),
        _optional(
            st.builds(
                make_geoloc,
                st.floats(min_value=-90, max_value=90),
                st.floats(min_value=-180, max_value=180),
            )
        ),
        # An unknown optional-transitive code.
        _optional(st.binary(max_size=300).map(lambda value: PathAttribute(0xC0, 200, value))),
    ]
    attrs += [attr for attr in (draw(strategy) for strategy in optional) if attr is not None]
    return draw(st.permutations(attrs))


def _tlvs(attrs):
    return attribute_tlvs(encode_attributes(attrs))


class TestHostWirePaths:
    @settings(max_examples=60)
    @given(attribute_sets())
    def test_encode_equals_the_neutral_join(self, attrs):
        neutral = encode_attributes(a for a in attrs if a.type_code in NATIVE_ENCODABLE)
        for daemon, route_class in _HOSTS.values():
            route = route_class(_PREFIX, None, daemon._decode_attrs(_tlvs(attrs)))
            blob = daemon._encode_attrs(route)
            assert blob == b"".join(
                a.encode()
                for a in route.attribute_list()
                if a.type_code in NATIVE_ENCODABLE
            )
            assert blob == neutral

    def test_a_long_value_takes_the_extended_length(self):
        path = make_as_path(AsPath.from_sequence(range(64)))  # 258 bytes
        attrs = [make_origin(Origin.IGP), path, PathAttribute(0xC0, 200, bytes(256))]
        for daemon, route_class in _HOSTS.values():
            route = route_class(_PREFIX, None, daemon._decode_attrs(_tlvs(attrs)))
            assert daemon._encode_attrs(route) == (
                b"\x40\x01\x01\x00" + b"\x50\x02\x01\x02" + path.value
            )

    @settings(max_examples=60)
    @given(attribute_sets())
    def test_frr_parse_equals_the_typed_views(self, attrs):
        by_code = {a.type_code: a for a in attrs}
        parsed = FrrAttrs.from_tlvs(_tlvs(attrs))

        def view(code, read):
            attribute = by_code.get(code)
            return None if attribute is None else read(attribute)

        assert parsed.origin == int(by_code[AttrTypeCode.ORIGIN].as_origin())
        assert parsed.as_path == tuple(
            (int(s.kind), s.asns) for s in by_code[AttrTypeCode.AS_PATH].as_path().segments
        )
        assert parsed.next_hop == view(AttrTypeCode.NEXT_HOP, PathAttribute.as_u32)
        assert parsed.med == view(AttrTypeCode.MULTI_EXIT_DISC, PathAttribute.as_u32)
        assert parsed.local_pref == view(AttrTypeCode.LOCAL_PREF, PathAttribute.as_u32)
        assert parsed.atomic_aggregate == (AttrTypeCode.ATOMIC_AGGREGATE in by_code)
        assert parsed.aggregator == view(
            AttrTypeCode.AGGREGATOR, lambda a: struct.unpack("!II", a.value)
        )
        assert parsed.communities == view(
            AttrTypeCode.COMMUNITIES, lambda a: frozenset(a.as_communities())
        )
        assert parsed.originator_id == view(AttrTypeCode.ORIGINATOR_ID, PathAttribute.as_u32)
        assert parsed.cluster_list == view(
            AttrTypeCode.CLUSTER_LIST, PathAttribute.as_cluster_list
        )
        assert parsed.extra == tuple(
            sorted(
                (a.type_code, a.flags, a.value)
                for a in attrs
                if a.type_code > AttrTypeCode.CLUSTER_LIST
            )
        )

    @settings(max_examples=60)
    @given(attribute_sets())
    def test_bird_parse_equals_the_typed_views(self, attrs):
        daemon, route_class = _HOSTS["bird"]
        route = route_class(_PREFIX, None, daemon._decode_attrs(_tlvs(attrs)))
        by_code = {a.type_code: a for a in attrs}
        assert sorted(route.attribute_list(), key=lambda a: a.type_code) == sorted(
            attrs, key=lambda a: a.type_code
        )
        assert route.origin() == by_code[AttrTypeCode.ORIGIN].as_origin()
        assert route.as_path() == by_code[AttrTypeCode.AS_PATH].as_path()
        assert set(route.communities()) == (
            set(by_code[AttrTypeCode.COMMUNITIES].as_communities())
            if AttrTypeCode.COMMUNITIES in by_code
            else set()
        )
        assert route.cluster_list() == (
            by_code[AttrTypeCode.CLUSTER_LIST].as_cluster_list()
            if AttrTypeCode.CLUSTER_LIST in by_code
            else ()
        )


#: (block, error class, message) of each way a block can be malformed.
_MALFORMED_BLOCKS = [
    (b"\x40\x01\x01\x00\x40", AttributeDecodeError, "truncated attribute header"),
    (b"\x50\x02\x01", AttributeDecodeError, "truncated extended length"),
    (b"\x40\x01", AttributeDecodeError, "truncated length"),
    (
        b"\x40\x03\x04\x0a\x00",
        AttributeDecodeError,
        r"attribute 3 body truncated \(4 bytes claimed\)",
    ),
    (b"\x40\x02\x02\x09\x00", AsPathDecodeError, "bad segment type 9"),
    (b"\x40\x02\x09\x02\x02" + bytes(7), AsPathDecodeError, "truncated segment body"),
    (b"\x40\x02\x03\x02\x00\x02", AsPathDecodeError, "truncated segment header"),
]


class TestMalformedBlocks:
    @pytest.mark.parametrize("block, error, message", _MALFORMED_BLOCKS)
    def test_every_reader_raises_the_codec_error(self, block, error, message):
        def neutral():
            for attribute in decode_attributes(block):
                if attribute.type_code == AttrTypeCode.AS_PATH:
                    AsPath.decode(attribute.value)

        def bird():
            daemon, route_class = _HOSTS["bird"]
            route_class(_PREFIX, None, daemon._decode_attrs(attribute_tlvs(block))).as_path()

        readers = (
            neutral,
            lambda: _HOSTS["frr"][0]._decode_attrs(attribute_tlvs(block)),
            bird,
            lambda: _fields_from_tlvs(attribute_tlvs(block)),
        )
        for reader in readers:
            with pytest.raises(error, match=f"^{message}$"):
                reader()
        # A malformed AS_PATH value inside a well-formed block is found
        # by the segment walker the hosts share with AsPath.decode.
        if error is AsPathDecodeError:
            value = decode_attributes(block)[0].value
            with pytest.raises(error, match=f"^{message}$"):
                decode_segments(value)
