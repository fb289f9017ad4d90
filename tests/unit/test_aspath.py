"""Unit tests for repro.bgp.aspath."""

import pytest

from repro.bgp.aspath import AsPath, AsPathDecodeError, AsPathSegment
from repro.bgp.constants import AsPathSegmentType


class TestSegment:
    def test_sequence_counts_hops(self):
        seg = AsPathSegment(AsPathSegmentType.AS_SEQUENCE, [1, 2, 3])
        assert seg.path_length() == 3

    def test_set_counts_one(self):
        seg = AsPathSegment(AsPathSegmentType.AS_SET, [1, 2, 3])
        assert seg.path_length() == 1

    def test_rejects_out_of_range_asn(self):
        with pytest.raises(ValueError):
            AsPathSegment(AsPathSegmentType.AS_SEQUENCE, [1 << 32])


class TestPath:
    def test_from_sequence(self):
        path = AsPath.from_sequence([65001, 65002])
        assert list(path.asn_iter()) == [65001, 65002]

    def test_empty(self):
        assert AsPath().length() == 0
        assert AsPath.from_sequence([]).segments == ()

    def test_length_mixed(self):
        path = AsPath(
            [
                AsPathSegment(AsPathSegmentType.AS_SEQUENCE, [1, 2]),
                AsPathSegment(AsPathSegmentType.AS_SET, [3, 4, 5]),
            ]
        )
        assert path.length() == 3

    def test_contains(self):
        path = AsPath.from_sequence([65001, 65002])
        assert path.contains(65002)
        assert not path.contains(65003)

    def test_first_and_origin(self):
        path = AsPath.from_sequence([65001, 65002, 65003])
        assert path.first_asn() == 65001
        assert path.origin_asn() == 65003

    def test_origin_of_empty_is_zero(self):
        assert AsPath().origin_asn() == 0

    def test_origin_ambiguous_with_trailing_set(self):
        path = AsPath(
            [
                AsPathSegment(AsPathSegmentType.AS_SEQUENCE, [1]),
                AsPathSegment(AsPathSegmentType.AS_SET, [2, 3]),
            ]
        )
        assert path.origin_asn() == 0

    def test_prepend_extends_sequence(self):
        path = AsPath.from_sequence([65002]).prepend(65001)
        assert list(path.asn_iter()) == [65001, 65002]
        assert len(path.segments) == 1

    def test_prepend_count(self):
        path = AsPath.from_sequence([2]).prepend(1, count=3)
        assert list(path.asn_iter()) == [1, 1, 1, 2]

    def test_prepend_onto_empty(self):
        path = AsPath().prepend(65001)
        assert list(path.asn_iter()) == [65001]

    def test_prepend_before_set_creates_segment(self):
        path = AsPath([AsPathSegment(AsPathSegmentType.AS_SET, [5, 6])]).prepend(1)
        assert path.segments[0].kind == AsPathSegmentType.AS_SEQUENCE
        assert path.segments[1].kind == AsPathSegmentType.AS_SET

    def test_consecutive_pairs(self):
        path = AsPath.from_sequence([1, 2, 3])
        assert list(path.consecutive_pairs()) == [(1, 2), (2, 3)]

    def test_str_renders_sets_in_braces(self):
        path = AsPath(
            [
                AsPathSegment(AsPathSegmentType.AS_SEQUENCE, [1]),
                AsPathSegment(AsPathSegmentType.AS_SET, [2, 3]),
            ]
        )
        assert str(path) == "1 {2 3}"


class TestWire:
    def test_roundtrip_four_octet(self):
        path = AsPath.from_sequence([65001, 4200000000, 1])
        assert AsPath.decode(path.encode()) == path

    def test_roundtrip_two_octet(self):
        path = AsPath.from_sequence([65001, 1])
        assert AsPath.decode(path.encode(four_octet=False), four_octet=False) == path

    def test_two_octet_rejects_large_asn(self):
        with pytest.raises(ValueError):
            AsPath.from_sequence([70000]).encode(four_octet=False)

    def test_decode_rejects_truncated_header(self):
        with pytest.raises(AsPathDecodeError):
            AsPath.decode(b"\x02")

    def test_decode_rejects_truncated_body(self):
        with pytest.raises(AsPathDecodeError):
            AsPath.decode(b"\x02\x02\x00\x00\x00\x01")

    def test_decode_rejects_bad_segment_type(self):
        with pytest.raises(AsPathDecodeError):
            AsPath.decode(b"\x07\x01\x00\x00\x00\x01")

    @pytest.mark.parametrize("kind", [0, 5])
    def test_decode_rejects_types_next_to_the_valid_range(self, kind):
        with pytest.raises(AsPathDecodeError):
            AsPath.decode(bytes([kind, 1, 0, 0, 0, 1]))

    @pytest.mark.parametrize("kind", list(AsPathSegmentType))
    def test_decode_keeps_enum_members(self, kind):
        (segment,) = AsPath.decode(bytes([kind, 1, 0, 0, 0, 1])).segments
        assert segment.kind is kind
        assert AsPathSegment(int(kind), [1]).kind is kind

    def test_segment_rejects_bad_type(self):
        with pytest.raises(ValueError):
            AsPathSegment(5, [1])

    def test_empty_roundtrip(self):
        assert AsPath.decode(AsPath().encode()) == AsPath()
