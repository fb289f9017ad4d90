"""Property-based tests: wire codecs round-trip for arbitrary inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import AsPath, AsPathSegment
from repro.bgp.attributes import (
    PathAttribute,
    decode_attributes,
    encode_attributes,
)
from repro.bgp.communities import (
    LargeCommunity,
    decode_communities,
    decode_large_communities,
    encode_communities,
    encode_large_communities,
)
from repro.bgp.constants import AsPathSegmentType
from repro.bgp.messages import NotificationMessage, OpenMessage, UpdateMessage, decode_message
from repro.bgp.prefix import Prefix

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
