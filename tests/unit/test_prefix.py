"""Unit tests for repro.bgp.prefix."""

import pickle

import pytest

from repro.bgp.prefix import (
    Prefix,
    PrefixDecodeError,
    format_ipv4,
    mask_for,
    parse_ipv4,
)


class TestParseFormat:
    def test_parse_dotted_quad(self):
        assert parse_ipv4("10.0.0.1") == 0x0A000001

    def test_parse_zero(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_parse_broadcast(self):
        assert parse_ipv4("255.255.255.255") == 0xFFFFFFFF

    def test_format_roundtrip(self):
        for text in ("192.0.2.1", "8.8.8.8", "172.16.254.3"):
            assert format_ipv4(parse_ipv4(text)) == text

    def test_parse_rejects_short(self):
        with pytest.raises(ValueError):
            parse_ipv4("10.0.0")

    def test_parse_rejects_octet_overflow(self):
        with pytest.raises(ValueError):
            parse_ipv4("10.0.0.256")

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(1 << 32)


class TestMask:
    def test_mask_zero(self):
        assert mask_for(0) == 0

    def test_mask_full(self):
        assert mask_for(32) == 0xFFFFFFFF

    def test_mask_slash8(self):
        assert mask_for(8) == 0xFF000000

    def test_mask_rejects_33(self):
        with pytest.raises(ValueError):
            mask_for(33)

    def test_mask_rejects_negative(self):
        with pytest.raises(ValueError):
            mask_for(-1)


class TestPrefix:
    def test_canonicalises_host_bits(self):
        assert Prefix.parse("10.1.2.3/8") == Prefix.parse("10.0.0.0/8")

    def test_parse_bare_address_is_host_route(self):
        assert Prefix.parse("192.0.2.1").length == 32

    def test_str(self):
        assert str(Prefix.parse("10.0.0.0/8")) == "10.0.0.0/8"

    def test_immutable(self):
        prefix = Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            prefix.network = 0

    def test_hashable_and_equal(self):
        assert hash(Prefix.parse("10.0.0.0/8")) == hash(Prefix.parse("10.0.0.0/8"))
        assert Prefix.parse("10.0.0.0/8") != Prefix.parse("10.0.0.0/9")

    def test_ordering(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("11.0.0.0/8")
        assert a < b < c

    def test_hash_is_the_tuple_hash(self):
        # RIB dictionaries hash prefixes in C; the value is what the
        # Python-level __hash__ used to compute.
        for text in ("0.0.0.0/0", "10.0.0.0/8", "192.0.2.128/25", "255.255.255.255/32"):
            prefix = Prefix.parse(text)
            assert hash(prefix) == hash((prefix.network, prefix.length))

    def test_ordering_is_network_then_length(self):
        texts = ["11.0.0.0/8", "10.0.0.0/16", "10.128.0.0/9", "10.0.0.0/8", "0.0.0.0/0"]
        prefixes = [Prefix.parse(text) for text in texts]
        assert sorted(prefixes) == sorted(
            prefixes, key=lambda prefix: (prefix.network, prefix.length)
        )
        assert Prefix.parse("10.0.0.0/8") <= Prefix.parse("10.0.0.0/8")
        assert max(prefixes) == Prefix.parse("11.0.0.0/8")

    def test_pickle_round_trip(self):
        prefix = Prefix.parse("172.16.0.0/12")
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(prefix, protocol))
            assert type(clone) is Prefix
            assert clone == prefix and hash(clone) == hash(prefix)

    def test_no_attribute_can_be_assigned(self):
        prefix = Prefix.parse("10.0.0.0/8")
        for name in ("network", "length", "anything_else"):
            with pytest.raises(AttributeError):
                setattr(prefix, name, 1)

    def test_out_of_range_length_rejected(self):
        for length in (-1, 33):
            with pytest.raises(ValueError):
                Prefix(0, length)

    def test_contains_more_specific(self):
        assert Prefix.parse("10.0.0.0/8").contains(Prefix.parse("10.1.0.0/16"))

    def test_contains_self(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.contains(p)

    def test_not_contains_less_specific(self):
        assert not Prefix.parse("10.0.0.0/16").contains(Prefix.parse("10.0.0.0/8"))

    def test_not_contains_sibling(self):
        assert not Prefix.parse("10.0.0.0/8").contains(Prefix.parse("11.0.0.0/16"))

    def test_contains_address(self):
        p = Prefix.parse("192.0.2.0/24")
        assert p.contains_address(parse_ipv4("192.0.2.200"))
        assert not p.contains_address(parse_ipv4("192.0.3.1"))

    def test_overlaps_symmetric(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.2.0.0/16")
        assert a.overlaps(b) and b.overlaps(a)

    def test_disjoint_do_not_overlap(self):
        assert not Prefix.parse("10.0.0.0/8").overlaps(Prefix.parse("11.0.0.0/8"))

    def test_bit_msb_first(self):
        p = Prefix.parse("128.0.0.0/1")
        assert p.bit(0) == 1
        assert Prefix.parse("64.0.0.0/2").bit(0) == 0

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            Prefix.parse("10.0.0.0/8").bit(32)


class TestWire:
    def test_encode_slash24(self):
        assert Prefix.parse("192.0.2.0/24").encode() == bytes([24, 192, 0, 2])

    def test_encode_slash0(self):
        assert Prefix.parse("0.0.0.0/0").encode() == bytes([0])

    def test_encode_partial_byte(self):
        # /12 needs two bytes of network.
        assert Prefix.parse("172.16.0.0/12").encode() == bytes([12, 172, 16])

    def test_decode_roundtrip(self):
        for text in ("0.0.0.0/0", "10.0.0.0/8", "172.16.0.0/12", "192.0.2.1/32"):
            prefix = Prefix.parse(text)
            decoded, consumed = Prefix.decode(prefix.encode())
            assert decoded == prefix
            assert consumed == len(prefix.encode())

    def test_decode_all_packed_run(self):
        prefixes = [Prefix.parse("10.0.0.0/8"), Prefix.parse("192.0.2.0/24")]
        blob = b"".join(p.encode() for p in prefixes)
        assert list(Prefix.decode_all(blob)) == prefixes

    def test_every_length_round_trips_with_host_bits_set(self):
        for length in range(33):
            nbytes = (length + 7) // 8
            prefix = Prefix(0xFFFFFFFF, length)  # host bits zeroed on build
            assert prefix.network == mask_for(length)
            wire = prefix.encode()
            assert wire == bytes([length]) + mask_for(length).to_bytes(4, "big")[:nbytes]
            # Host bits set in the last network octet are zeroed on
            # decode, and decoding stops where the prefix ends.
            noisy = bytes([length]) + b"\xff" * nbytes + b"\x07"
            assert Prefix.decode(noisy) == (prefix, 1 + nbytes)
            assert Prefix.decode(b"\x00" + noisy, 1) == (prefix, 2 + nbytes)
            assert list(Prefix.decode_all(wire + noisy[:-1])) == [prefix, prefix]

    def test_decode_rejects_length_over_32(self):
        with pytest.raises(PrefixDecodeError, match=r"^prefix length 33 > 32$"):
            Prefix.decode(bytes([33, 1, 2, 3, 4, 5]))
        with pytest.raises(PrefixDecodeError, match=r"^prefix length 40 > 32$"):
            list(Prefix.decode_all(bytes([8, 10, 40, 1, 2, 3, 4, 5])))

    def test_decode_rejects_truncated_body(self):
        with pytest.raises(PrefixDecodeError, match=r"^truncated prefix body$"):
            Prefix.decode(bytes([24, 192, 0]))
        with pytest.raises(PrefixDecodeError, match=r"^truncated prefix body$"):
            list(Prefix.decode_all(bytes([8, 10, 32, 192, 0, 2])))

    def test_decode_all_rejects_a_bad_length_after_good_prefixes(self):
        good = Prefix.parse("10.0.0.0/8").encode() + Prefix.parse("0.0.0.0/0").encode()
        with pytest.raises(PrefixDecodeError, match=r"^prefix length 33 > 32$"):
            Prefix.decode_all(good + bytes([33, 1, 2, 3, 4, 5]))

    def test_decode_all_rejects_a_cut_last_prefix(self):
        good = Prefix.parse("10.0.0.0/8").encode()
        with pytest.raises(PrefixDecodeError, match=r"^truncated prefix body$"):
            Prefix.decode_all(good + bytes([32, 192, 0, 2]))
        with pytest.raises(PrefixDecodeError, match=r"^truncated prefix body$"):
            Prefix.decode_all(good + bytes([1]))

    def test_decode_all_of_an_empty_field_is_empty(self):
        assert Prefix.decode_all(b"") == []

    def test_decode_rejects_empty(self):
        with pytest.raises(PrefixDecodeError):
            Prefix.decode(b"")
