"""Unit tests for repro.bgp.attributes and communities."""

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.attributes import (
    AttributeDecodeError,
    PathAttribute,
    _WELL_KNOWN_FLAGS,
    _flags_for,
    decode_attributes,
    decode_geoloc,
    describe,
    encode_attributes,
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
    Community,
    CommunityDecodeError,
    LargeCommunity,
    community,
    decode_communities,
    decode_large_communities,
    encode_communities,
    encode_large_communities,
)
from repro.bgp.constants import AttrFlag, AttrTypeCode, Origin, WellKnownCommunity
from repro.bgp.prefix import parse_ipv4


class TestCommunities:
    def test_community_halves(self):
        c = community(65001, 300)
        assert c.asn == 65001 and c.value == 300

    def test_community_str(self):
        assert str(community(65001, 300)) == "65001:300"

    def test_well_known_str(self):
        assert str(Community(int(WellKnownCommunity.NO_EXPORT))) == "NO_EXPORT"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            community(70000, 1)
        with pytest.raises(ValueError):
            Community(1 << 32)

    def test_codec_roundtrip_sorted_dedup(self):
        values = [community(2, 2), community(1, 1), community(2, 2)]
        decoded = decode_communities(encode_communities(values))
        assert decoded == frozenset({community(1, 1), community(2, 2)})

    def test_decode_rejects_ragged(self):
        with pytest.raises(CommunityDecodeError):
            decode_communities(b"\x00\x01\x02")

    def test_large_community_roundtrip(self):
        values = [LargeCommunity(65001, 1, 2), LargeCommunity(65001, 3, 4)]
        assert decode_large_communities(encode_large_communities(values)) == frozenset(
            values
        )

    def test_large_community_str(self):
        assert str(LargeCommunity(1, 2, 3)) == "1:2:3"

    def test_large_decode_rejects_ragged(self):
        with pytest.raises(CommunityDecodeError):
            decode_large_communities(b"\x00" * 13)


class TestPathAttribute:
    def test_flag_predicates(self):
        attr = PathAttribute(0xC0, 99, b"x")
        assert attr.optional and attr.transitive and not attr.partial

    def test_encode_short_form(self):
        attr = PathAttribute(0x40, 1, b"\x00")
        assert attr.encode() == bytes([0x40, 1, 1, 0])

    def test_encode_extended_length(self):
        attr = PathAttribute(0xC0, 99, b"\x00" * 300)
        encoded = attr.encode()
        assert encoded[0] & 0x10  # extended length set
        assert int.from_bytes(encoded[2:4], "big") == 300

    def test_as_u32_wrong_size(self):
        with pytest.raises(AttributeDecodeError):
            PathAttribute(0x40, 5, b"\x00\x01").as_u32()

    def _block(self):
        return [
            make_origin(Origin.IGP),
            make_as_path(AsPath.from_sequence([65001, 65002])),
            make_next_hop(parse_ipv4("10.0.0.1")),
            make_med(50),
            make_local_pref(200),
            make_communities([community(65001, 1)]),
            make_originator_id(parse_ipv4("1.1.1.1")),
            make_cluster_list([parse_ipv4("2.2.2.2"), parse_ipv4("3.3.3.3")]),
            make_atomic_aggregate(),
        ]

    def test_block_roundtrip(self):
        attrs = self._block()
        decoded = decode_attributes(encode_attributes(attrs))
        assert sorted(decoded, key=lambda a: a.type_code) == sorted(
            attrs, key=lambda a: a.type_code
        )

    def test_block_roundtrip_forced_extended_length(self):
        """The extended-length bit is an encoding artifact: the same
        attributes written with two-byte lengths decode to equal ones."""
        attrs = sorted(self._block(), key=lambda a: a.type_code)
        wire = b"".join(
            bytes([a.flags | 0x10, a.type_code])
            + len(a.value).to_bytes(2, "big")
            + a.value
            for a in attrs
        )
        assert wire != encode_attributes(attrs)
        assert decode_attributes(wire) == attrs

    @pytest.mark.parametrize("code", list(AttrTypeCode))
    def test_flag_table_agrees_with_the_enums(self, code):
        flags = _flags_for(code)
        assert type(flags) is int
        assert flags == _flags_for(int(code))
        assert flags == int(_WELL_KNOWN_FLAGS.get(code, 0xC0))

    def test_flag_table_values_come_from_attrflag(self):
        assert make_origin(Origin.IGP).flags == AttrFlag.TRANSITIVE
        assert make_med(1).flags == AttrFlag.OPTIONAL
        assert make_communities([]).flags == AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE

    def test_unknown_code_is_optional_transitive(self):
        assert _flags_for(222) == 0xC0

    def test_block_roundtrip_extended_length(self):
        big = PathAttribute(0xC0, 200, bytes(range(256)) * 2)
        decoded = decode_attributes(encode_attributes([big]))
        assert decoded == [big]

    def test_decode_rejects_truncated_header(self):
        with pytest.raises(AttributeDecodeError):
            decode_attributes(b"\x40")

    def test_decode_rejects_truncated_body(self):
        with pytest.raises(AttributeDecodeError):
            decode_attributes(bytes([0x40, 1, 5, 0]))

    def test_typed_views(self):
        assert make_origin(Origin.EGP).as_origin() == Origin.EGP
        assert make_med(7).as_u32() == 7
        path = AsPath.from_sequence([1, 2])
        assert make_as_path(path).as_path() == path
        assert make_cluster_list([5, 6]).as_cluster_list() == (5, 6)


class TestGeoLoc:
    def test_roundtrip(self):
        attr = make_geoloc(50.8503, 4.3517)
        lat, lon = decode_geoloc(attr)
        assert abs(lat - 50.8503) < 1e-6
        assert abs(lon - 4.3517) < 1e-6

    def test_negative_coordinates(self):
        lat, lon = decode_geoloc(make_geoloc(-33.8688, -70.6693))
        assert lat < 0 and lon < 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_geoloc(91.0, 0.0)
        with pytest.raises(ValueError):
            make_geoloc(0.0, 181.0)

    def test_flags_optional_transitive(self):
        attr = make_geoloc(0.0, 0.0)
        assert attr.optional and attr.transitive
        assert attr.type_code == AttrTypeCode.GEOLOC

    def test_decode_rejects_bad_size(self):
        with pytest.raises(AttributeDecodeError):
            decode_geoloc(PathAttribute(0xC0, AttrTypeCode.GEOLOC, b"\x00" * 7))


class TestDescribe:
    def test_describe_known(self):
        assert describe(make_origin(Origin.IGP)) == "ORIGIN=IGP"
        assert "10.0.0.1" in describe(make_next_hop(parse_ipv4("10.0.0.1")))
        assert "GEOLOC" in describe(make_geoloc(1.0, 2.0))

    def test_describe_unknown_code(self):
        assert describe(PathAttribute(0xC0, 222, b"\xab")) == "attr#222=ab"
