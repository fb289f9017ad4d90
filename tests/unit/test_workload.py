"""Unit tests for the synthetic workload generator and MRT format."""

import io
import struct

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.attributes import (
    decode_attributes,
    encode_attributes,
    make_as_path,
    make_communities,
    make_med,
    make_next_hop,
    make_origin,
)
from repro.bgp.constants import AttrTypeCode, Origin
from repro.bgp.prefix import Prefix, parse_ipv4
from repro.mrt import MrtError, MrtPeer, RibEntry, read_table, write_table
from repro.workload import (
    AsTopology,
    RibGenerator,
    build_updates,
    iter_routes_from_mrt,
    mrt_io,
    origins_of,
)
from repro.workload.mrt_io import _spec_from_entry


class TestTopology:
    def test_generation_deterministic(self):
        a = AsTopology.generate(n_ases=100, seed=5)
        b = AsTopology.generate(n_ases=100, seed=5)
        assert a.all_ases() == b.all_ases()
        assert all(a.providers_of(asn) == b.providers_of(asn) for asn in a.all_ases())

    def test_structure(self):
        topology = AsTopology.generate(n_ases=100, n_tier1=5, seed=5)
        assert len(topology.tier1) == 5
        assert len(topology.all_ases()) == 100
        assert topology.stubs  # there are stubs
        for stub in topology.stubs:
            assert topology.providers_of(stub), "stubs must have providers"

    def test_paths_end_at_origin(self):
        import random

        topology = AsTopology.generate(n_ases=100, seed=5)
        rng = random.Random(1)
        for stub in topology.stubs[:20]:
            path = topology.path_to_tier1(stub, rng)
            assert path[-1] == stub
            assert len(set(path)) == len(path)  # loop free

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            AsTopology.generate(n_ases=5, n_tier1=8)


class TestRibGenerator:
    def test_count_and_uniqueness(self):
        routes = RibGenerator(n_routes=500, seed=3).generate()
        assert len(routes) == 500
        assert len({r.prefix for r in routes}) == 500

    def test_deterministic(self):
        assert (
            RibGenerator(n_routes=50, seed=3).generate()
            == RibGenerator(n_routes=50, seed=3).generate()
        )

    def test_prefix_length_mix(self):
        routes = RibGenerator(n_routes=3000, seed=3).generate()
        slash24 = sum(1 for r in routes if r.prefix.length == 24)
        assert 0.5 < slash24 / len(routes) < 0.7  # ≈59% like RIS

    def test_paths_short_and_loop_free(self):
        routes = RibGenerator(n_routes=300, seed=3).generate()
        for route in routes:
            assert 1 <= len(route.as_path) <= 12
        lengths = [len(set(r.as_path)) >= len(r.as_path) - 1 for r in routes]
        assert all(lengths)  # at most one duplicate (prepending)

    def test_origins_helper(self):
        routes = RibGenerator(n_routes=20, seed=3).generate()
        origins = origins_of(routes)
        assert len(origins) == 20
        assert all(origin == route.origin_asn for (_, origin), route in zip(origins, routes))


class TestBuildUpdates:
    def test_all_prefixes_present_once(self):
        routes = RibGenerator(n_routes=400, seed=3).generate()
        updates = build_updates(routes, next_hop=parse_ipv4("10.0.0.9"))
        prefixes = [p for u in updates for p in u.nlri]
        assert sorted(prefixes) == sorted(r.prefix for r in routes)

    def test_packing_shares_updates(self):
        routes = RibGenerator(n_routes=400, seed=3).generate()
        updates = build_updates(routes, next_hop=1)
        assert len(updates) < len(routes)  # attribute sharing packs NLRI

    def test_ibgp_updates_have_local_pref(self):
        routes = RibGenerator(n_routes=10, seed=3).generate()
        updates = build_updates(routes, next_hop=1, session="ibgp")
        assert all(u.attribute(AttrTypeCode.LOCAL_PREF) is not None for u in updates)

    def test_ebgp_updates_prepend_sender(self):
        routes = RibGenerator(n_routes=10, seed=3).generate()
        updates = build_updates(routes, next_hop=1, session="ebgp", sender_asn=65100)
        for update in updates:
            path = update.attribute(AttrTypeCode.AS_PATH).as_path()
            assert path.first_asn() == 65100
            assert update.attribute(AttrTypeCode.LOCAL_PREF) is None

    def test_max_prefixes_respected(self):
        routes = RibGenerator(n_routes=300, seed=3).generate()
        updates = build_updates(routes, next_hop=1, max_prefixes_per_update=10)
        assert all(len(u.nlri) <= 10 for u in updates)

    def test_bad_session_kind(self):
        with pytest.raises(ValueError):
            build_updates([], next_hop=1, session="maybe")

    def test_updates_fit_wire_limit(self):
        routes = RibGenerator(n_routes=500, seed=3).generate()
        for update in build_updates(routes, next_hop=1):
            assert len(update.encode()) <= 4096


class TestMrt:
    def _sample(self):
        routes = RibGenerator(n_routes=40, seed=3).generate()
        updates = build_updates(routes, next_hop=parse_ipv4("10.0.0.9"))
        peers = [MrtPeer(parse_ipv4("10.0.0.9"), parse_ipv4("10.0.0.9"), 65100)]
        entries = [
            RibEntry(prefix, 0, 1_600_000_000, update.attributes)
            for update in updates
            for prefix in update.nlri
        ]
        return peers, entries

    def test_roundtrip(self):
        peers, entries = self._sample()
        stream = io.BytesIO()
        write_table(stream, peers, entries, collector_id=7)
        stream.seek(0)
        read_peers, read_entries = read_table(stream)
        assert read_peers == peers
        assert read_entries == entries

    def test_missing_index_rejected(self):
        with pytest.raises(MrtError):
            read_table(io.BytesIO(b""))

    def test_truncated_payload_rejected(self):
        peers, entries = self._sample()
        stream = io.BytesIO()
        write_table(stream, peers, entries[:1])
        data = stream.getvalue()[:-3]
        with pytest.raises(MrtError):
            read_table(io.BytesIO(data))

    def test_routes_from_mrt_reconstructs_specs(self, tmp_path):
        from repro.workload import routes_from_mrt

        peers, entries = self._sample()
        path = tmp_path / "table.mrt"
        with open(path, "wb") as handle:
            write_table(handle, peers, entries)
        routes = routes_from_mrt(str(path))
        assert len(routes) == len(entries)
        by_prefix = {entry.prefix for entry in entries}
        assert {route.prefix for route in routes} == by_prefix
        assert all(route.as_path for route in routes)

    def test_routes_from_mrt_feeds_harness(self, tmp_path):
        from repro.sim.harness import ConvergenceHarness
        from repro.workload import routes_from_mrt

        peers, entries = self._sample()
        path = tmp_path / "table.mrt"
        with open(path, "wb") as handle:
            write_table(handle, peers, entries)
        routes = routes_from_mrt(str(path))
        harness = ConvergenceHarness("bird", "plain", "native", routes)
        harness.run()
        assert len(harness.collector) == len(routes)

    def test_foreign_record_types_tolerated(self):
        import struct

        peers, entries = self._sample()
        stream = io.BytesIO()
        # A BGP4MP (type 16) record first: should be skipped.
        stream.write(struct.pack("!IHHI", 0, 16, 4, 2) + b"ab")
        write_table(stream, peers, entries[:2])
        stream.seek(0)
        read_peers, read_entries = read_table(stream)
        assert len(read_entries) == 2


class TestStreamingMrt:
    """``iter_routes_from_mrt`` — the generator twin of
    ``routes_from_mrt`` the sharded replay feeds from."""

    def _table_bytes(self, n_routes=60, seed=3):
        routes = RibGenerator(n_routes=n_routes, seed=seed).generate()
        updates = build_updates(routes, next_hop=parse_ipv4("10.0.0.9"))
        peers = [MrtPeer(parse_ipv4("10.0.0.9"), parse_ipv4("10.0.0.9"), 65100)]
        entries = (
            RibEntry(prefix, 0, 1_600_000_000, update.attributes)
            for update in updates
            for prefix in update.nlri
        )
        stream = io.BytesIO()
        write_table(stream, peers, entries)
        return routes, stream.getvalue()

    def test_streaming_matches_list(self, tmp_path):
        from repro.workload import iter_routes_from_mrt, routes_from_mrt

        _, data = self._table_bytes()
        path = tmp_path / "table.mrt"
        path.write_bytes(data)
        streamed = list(iter_routes_from_mrt(str(path)))
        assert streamed == routes_from_mrt(str(path))
        # A binary handle works just like a path.
        assert list(iter_routes_from_mrt(io.BytesIO(data))) == streamed

    def test_streaming_is_lazy(self):
        from repro.workload import iter_routes_from_mrt

        routes, data = self._table_bytes()
        iterator = iter_routes_from_mrt(io.BytesIO(data))
        first = next(iterator)
        assert first.prefix in {route.prefix for route in routes}
        # The generator still has the rest of the table to give.
        assert sum(1 for _ in iterator) == len(routes) - 1

    def test_streaming_missing_index_raises(self):
        from repro.workload import iter_routes_from_mrt

        with pytest.raises(MrtError):
            list(iter_routes_from_mrt(io.BytesIO(b"")))

    @pytest.mark.slow
    def test_large_table_roundtrip_100k(self, tmp_path):
        """gen-table-scale round-trip: 100k routes survive MRT encode →
        streaming decode with attributes intact."""
        from repro.workload import iter_routes_from_mrt

        routes = RibGenerator(n_routes=100_000, seed=9).generate()
        updates = build_updates(routes, next_hop=parse_ipv4("10.0.0.9"))
        peers = [MrtPeer(parse_ipv4("10.0.0.9"), parse_ipv4("10.0.0.9"), 65100)]
        path = tmp_path / "full.mrt"
        with open(path, "wb") as handle:
            write_table(
                handle,
                peers,
                (
                    RibEntry(prefix, 0, 1_600_000_000, update.attributes)
                    for update in updates
                    for prefix in update.nlri
                ),
            )
        expected = {
            route.prefix: (route.as_path, route.origin, route.med)
            for route in routes
        }
        count = 0
        for spec in iter_routes_from_mrt(str(path)):
            assert expected[spec.prefix] == (spec.as_path, spec.origin, spec.med)
            count += 1
        assert count == len(routes)


_PEER = MrtPeer(parse_ipv4("10.0.0.9"), parse_ipv4("10.0.0.9"), 65100)


def _block(as_path=(65100, 65010), med=None, communities=()):
    """One encoded attribute block, the way a RIB entry carries it."""
    attributes = [make_origin(Origin.IGP), make_next_hop(parse_ipv4("10.0.0.9"))]
    if as_path:
        attributes.append(make_as_path(AsPath.from_sequence(as_path)))
    if med is not None:
        attributes.append(make_med(med))
    if communities:
        attributes.append(make_communities(communities))
    return encode_attributes(attributes)


def _rib(sequence, prefix, *blocks, count=None):
    """A RIB_IPV4_UNICAST payload; ``count`` overrides the entry count."""
    payload = struct.pack("!I", sequence) + Prefix.parse(prefix).encode()
    payload += struct.pack("!H", len(blocks) if count is None else count)
    for block in blocks:
        payload += struct.pack("!HIH", 0, 0, len(block)) + block
    return payload


def _mrt(*rib_payloads):
    """A TABLE_DUMP_V2 file: the peer index, then the given RIB records."""
    stream = io.BytesIO()
    write_table(stream, [_PEER], [])
    for payload in rib_payloads:
        stream.write(struct.pack("!IHHI", 0, 13, 2, len(payload)) + payload)
    return stream.getvalue()


def _reference_routes(data):
    """What ``iter_routes_from_mrt`` documents, spelt out over
    ``read_table``: file order, entries without an AS_PATH skipped
    without claiming the prefix, first entry wins on a duplicate."""
    seen, routes = set(), []
    for entry in read_table(io.BytesIO(data))[1]:
        spec = _spec_from_entry(entry)
        if spec is None or entry.prefix in seen:
            continue
        seen.add(entry.prefix)
        routes.append(spec)
    return routes


class TestMalformedRib:
    """A malformed RIB record is an ``MrtError`` naming its sequence
    number, from both readers, and contributes no route."""

    GOOD = _rib(0, "10.1.0.0/16", _block())
    HEADER = 4 + 3 + 2  # sequence, a /16 prefix, entry count

    CASES = {
        "attr_length_past_payload": _rib(7, "10.7.0.0/16", _block())[:-3],
        "cut_inside_entry_header": _rib(7, "10.7.0.0/16", _block())[: HEADER + 5],
        "count_larger_than_entries": _rib(7, "10.7.0.0/16", _block(), count=2),
        "bad_prefix_length": struct.pack("!I", 7) + bytes([33, 10, 7, 0, 0, 0]),
        "block_cut_mid_attribute": _rib(7, "10.7.0.0/16", _block()[:-2]),
        # The second entry is the broken one: the first must not leak.
        "second_entry_broken": _rib(7, "10.7.0.0/16", _block(), _block()[:-2]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_read_table_raises_mrt_error(self, case):
        data = _mrt(self.GOOD, self.CASES[case])
        with pytest.raises(MrtError, match="RIB record 7"):
            read_table(io.BytesIO(data))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stream_raises_after_the_good_record(self, case):
        data = _mrt(self.GOOD, self.CASES[case])
        routes = []
        with pytest.raises(MrtError, match="RIB record 7"):
            for spec in iter_routes_from_mrt(io.BytesIO(data)):
                routes.append(spec)
        assert [str(spec.prefix) for spec in routes] == ["10.1.0.0/16"]

    def test_empty_payload(self):
        data = _mrt(self.GOOD, b"")
        with pytest.raises(MrtError, match="too short"):
            read_table(io.BytesIO(data))
        with pytest.raises(MrtError, match="too short"):
            list(iter_routes_from_mrt(io.BytesIO(data)))


class TestMemoisedBridge:
    """``iter_routes_from_mrt`` decodes each distinct attribute block
    once; the result is the unmemoised reference's, element for element."""

    def _hand_built(self):
        plain = _block()
        # Same attributes as ``plain`` in other bytes: reversed order,
        # and two-byte (extended) lengths.
        attributes = decode_attributes(plain)
        reordered = b"".join(a.encode() for a in reversed(attributes))
        extended = b"".join(
            bytes([a.flags | 0x10, a.type_code]) + struct.pack("!H", len(a.value)) + a.value
            for a in attributes
        )
        assert len({plain, reordered, extended}) == 3
        return _mrt(
            _rib(0, "10.0.0.0/16", plain),
            _rib(1, "10.0.0.0/16", _block(as_path=(65100, 65099))),  # duplicate: loses
            _rib(2, "10.2.0.0/16", _block(as_path=())),  # no AS_PATH: no claim
            _rib(3, "10.2.0.0/16", _block(med=5)),  # so this one is kept
            _rib(4, "10.4.0.0/16", _block(as_path=()), _block(med=9)),  # two entries
            _rib(5, "10.5.0.0/16", reordered),
            _rib(6, "10.6.0.0/16", extended),
            _rib(7, "10.7.0.0/16", _block(communities=(3, 1, 2))),
            _rib(8, "10.8.0.0/16", plain),
        )

    @pytest.mark.parametrize("cap", [None, 4])
    def test_hand_built_file_matches_reference(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(mrt_io, "_MEMO_CAP", cap)
        data = self._hand_built()
        routes = list(iter_routes_from_mrt(io.BytesIO(data)))
        assert routes == _reference_routes(data)
        by_prefix = {str(spec.prefix): spec for spec in routes}
        assert sorted(by_prefix) == [
            "10.0.0.0/16", "10.2.0.0/16", "10.4.0.0/16", "10.5.0.0/16",
            "10.6.0.0/16", "10.7.0.0/16", "10.8.0.0/16",
        ]
        assert by_prefix["10.0.0.0/16"].as_path == (65100, 65010)
        assert by_prefix["10.2.0.0/16"].med == 5
        assert by_prefix["10.4.0.0/16"].med == 9
        assert by_prefix["10.7.0.0/16"].communities == (1, 2, 3)
        fields = [by_prefix[p][1:] for p in ("10.0.0.0/16", "10.5.0.0/16", "10.6.0.0/16")]
        assert fields[0] == fields[1] == fields[2]

    @pytest.mark.parametrize("cap", [None, 4])
    @pytest.mark.parametrize("seed", [3, 9])
    def test_generated_table_matches_reference(self, monkeypatch, seed, cap):
        if cap is not None:
            monkeypatch.setattr(mrt_io, "_MEMO_CAP", cap)
        routes = RibGenerator(n_routes=300, seed=seed).generate()
        updates = build_updates(routes, next_hop=_PEER.address, session="ebgp", sender_asn=65100)
        stream = io.BytesIO()
        write_table(
            stream,
            [_PEER],
            [RibEntry(p, 0, 0, u.attributes) for u in updates for p in u.nlri],
        )
        streamed = list(iter_routes_from_mrt(io.BytesIO(stream.getvalue())))
        assert len(streamed) == 300
        assert streamed == _reference_routes(stream.getvalue())

    def test_routes_of_one_block_share_their_tuples(self):
        data = _mrt(
            _rib(0, "10.0.0.0/16", _block(communities=(1, 2))),
            _rib(1, "10.1.0.0/16", _block(communities=(1, 2))),
        )
        first, second = iter_routes_from_mrt(io.BytesIO(data))
        assert first.as_path is second.as_path
        assert first.communities is second.communities


def _peer_index(*peers):
    """A PEER_INDEX_TABLE record of raw ``(type, bgp_id, address bytes,
    asn)`` peers."""
    payload = struct.pack("!IHH", 7, 0, len(peers))
    for peer_type, bgp_id, address, asn in peers:
        payload += struct.pack("!BI", peer_type, bgp_id) + address
        payload += struct.pack("!I" if peer_type & 0x02 else "!H", asn)
    return struct.pack("!IHHI", 0, 13, 1, len(payload)) + payload


def _rib_records(*rib_payloads):
    return b"".join(struct.pack("!IHHI", 0, 13, 2, len(p)) + p for p in rib_payloads)


class TestPeerIndex:
    """The streaming reader notes the PEER_INDEX_TABLE without decoding
    it; ``read_table``, which returns the peers, decodes it and reports
    what it cannot represent as an ``MrtError``."""

    IPV6_PEER = (0x03, 1, bytes(range(16)), 65001)  # IPv6 address, 4-octet AS
    IPV4_PEER = (0x00, 2, bytes([10, 0, 0, 9]), 65100)  # IPv4 address, 2-octet AS
    RIBS = _rib_records(
        _rib(0, "10.1.0.0/16", _block()), _rib(1, "10.2.0.0/16", _block(med=4))
    )

    def test_ipv6_peer_streams(self):
        data = _peer_index(self.IPV6_PEER, self.IPV4_PEER) + self.RIBS
        routes = list(iter_routes_from_mrt(io.BytesIO(data)))
        assert [str(route.prefix) for route in routes] == ["10.1.0.0/16", "10.2.0.0/16"]
        assert routes[1].med == 4
        with pytest.raises(MrtError, match="IPv6 peers not supported"):
            read_table(io.BytesIO(data))

    def test_two_octet_as_peer_decodes(self):
        peers, entries = read_table(io.BytesIO(_peer_index(self.IPV4_PEER) + self.RIBS))
        assert peers == [MrtPeer(2, parse_ipv4("10.0.0.9"), 65100)]
        assert len(entries) == 2

    def test_truncated_index(self):
        data = _peer_index(self.IPV4_PEER)
        cut = data[:4] + struct.pack("!HHI", 13, 1, len(data) - 12 - 3) + data[12:-3]
        with pytest.raises(MrtError, match="short PEER_INDEX_TABLE"):
            read_table(io.BytesIO(cut + self.RIBS))
        assert len(list(iter_routes_from_mrt(io.BytesIO(cut + self.RIBS)))) == 2


class TestCutPrefix:
    """A RIB record too short for its prefix is an ``MrtError`` naming
    the record, even when the next record's bytes follow it."""

    GOOD = _rib(0, "10.1.0.0/16", _block())

    @pytest.mark.parametrize(
        "payload, message",
        [
            (struct.pack("!I", 7), "missing length octet"),
            (struct.pack("!I", 7) + bytes([24, 10, 7]), "truncated prefix body"),
        ],
    )
    def test_both_readers_raise(self, payload, message):
        data = _mrt(self.GOOD, payload, self.GOOD)
        with pytest.raises(MrtError, match=f"RIB record 7: .*{message}"):
            read_table(io.BytesIO(data))
        with pytest.raises(MrtError, match=f"RIB record 7: .*{message}"):
            list(iter_routes_from_mrt(io.BytesIO(data)))
