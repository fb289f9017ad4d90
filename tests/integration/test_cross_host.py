"""Integration: the vendor-neutrality claim at scale.

The same xBGP bytecode, attached to PyFRR and PyBIRD, must make both
daemons converge to identical routing state on identical inputs —
despite their different internal representations.
"""

import pytest

from repro.bgp.prefix import parse_ipv4
from repro.bgp.roa import make_roas_for_prefixes
from repro.bird import BirdDaemon
from repro.core.insertion_points import InsertionPoint
from repro.frr import FrrDaemon
from repro.plugins import geoloc, igp_filter, origin_validation, route_reflector
from repro.workload import RibGenerator, build_updates, origins_of


def feed_table(daemon, routes, session="ebgp"):
    daemon.add_neighbor("10.0.0.9", 65100, lambda data: None)
    daemon._established[parse_ipv4("10.0.0.9")] = True
    daemon.neighbors[parse_ipv4("10.0.0.9")].established = True
    updates = build_updates(
        routes,
        next_hop=parse_ipv4("10.0.0.9"),
        session=session,
        sender_asn=65100 if session == "ebgp" else None,
    )
    for update in updates:
        daemon.receive_message("10.0.0.9", update)


def snapshot(daemon):
    return {
        prefix: [(a.type_code, a.flags, a.value) for a in attrs]
        for prefix, attrs in daemon.loc_rib_snapshot().items()
    }


class TestSameBytecodeSameState:
    def test_plain_table_identical(self):
        routes = RibGenerator(n_routes=300, seed=31).generate()
        states = []
        for cls in (FrrDaemon, BirdDaemon):
            daemon = cls(asn=65001, router_id="1.1.1.1")
            feed_table(daemon, routes)
            states.append(snapshot(daemon))
        assert states[0] == states[1]

    def test_geoloc_program_identical(self):
        routes = RibGenerator(n_routes=200, seed=32).generate()
        states = []
        for cls in (FrrDaemon, BirdDaemon):
            daemon = cls(
                asn=65001,
                router_id="1.1.1.1",
                xtra={"coord": geoloc.coord_bytes(50.85, 4.35)},
            )
            daemon.attach_manifest(geoloc.build_manifest())
            feed_table(daemon, routes)
            assert daemon.vmm.fallbacks == 0
            states.append(snapshot(daemon))
        assert states[0] == states[1]

    def test_origin_validation_program_identical(self):
        routes = RibGenerator(n_routes=200, seed=33).generate()
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=33)
        counters = []
        for cls in (FrrDaemon, BirdDaemon):
            daemon = cls(asn=65001, router_id="1.1.1.1")
            daemon.attach_manifest(origin_validation.build_manifest(roas))
            feed_table(daemon, routes)
            chain = daemon.vmm._chains[InsertionPoint.BGP_INBOUND_FILTER]
            counters.append(origin_validation.read_validity_counters(chain[0].state))
        assert counters[0] == counters[1]

    def test_rr_program_bytecode_is_host_independent(self):
        # The loaded program is literally the same instruction sequence.
        manifest_a = route_reflector.build_manifest()
        manifest_b = route_reflector.build_manifest()
        program_a = manifest_a.load()
        program_b = manifest_b.load()
        for code_a, code_b in zip(program_a.codes, program_b.codes):
            assert code_a.instructions == code_b.instructions

    def test_igp_filter_bytecode_identical_verdicts(self):
        # Both hosts given the same IGP answer must filter identically:
        # the feed's nexthop is not an IGP destination, so the metric
        # resolves unreachable and every eBGP export is rejected.
        from repro.igp import IgpTopology, IgpView, Spf

        topology = IgpTopology()
        topology.add_node("self", "1.1.1.1")
        spf = Spf(topology)

        routes = RibGenerator(n_routes=50, seed=34).generate()
        exported = []
        for cls in (FrrDaemon, BirdDaemon):
            daemon = cls(
                asn=65001,
                router_id="1.1.1.1",
                igp=IgpView(spf, topology, "self"),
            )
            daemon.attach_manifest(igp_filter.build_manifest(max_metric=100))
            feed_table(daemon, routes)
            sent = []
            daemon.add_neighbor("10.0.0.5", 65500, sent.append)
            daemon.session_up("10.0.0.5")
            exported.append(len(sent))
            assert daemon.stats["export_rejected"] == 50
        assert exported[0] == exported[1]


class TestNativePropagation:
    def test_large_communities_propagate_on_both_hosts(self):
        # RFC 8092: LARGE_COMMUNITIES is optional transitive, so a
        # speaker that does not act on it still re-advertises it.
        from repro.bgp import Prefix
        from repro.bgp.aspath import AsPath
        from repro.bgp.attributes import (
            PathAttribute,
            make_as_path,
            make_next_hop,
            make_origin,
        )
        from repro.bgp.communities import LargeCommunity, encode_large_communities
        from repro.bgp.constants import AttrTypeCode, Origin
        from repro.bgp.messages import UpdateMessage, split_stream

        large = PathAttribute(
            0xC0,
            AttrTypeCode.LARGE_COMMUNITIES,
            encode_large_communities([LargeCommunity(65100, 1, 2)]),
        )
        frame = UpdateMessage(
            attributes=[
                make_origin(Origin.IGP),
                make_as_path(AsPath.from_sequence((65100,))),
                make_next_hop(parse_ipv4("10.0.0.9")),
                large,
            ],
            nlri=[Prefix.parse("203.0.113.0/24")],
        ).encode()
        exported = []
        for cls in (FrrDaemon, BirdDaemon):
            daemon = cls(asn=65001, router_id="1.1.1.1")
            sent = []
            for address, asn, send in (
                ("10.0.0.9", 65100, lambda data: None),
                ("10.0.0.5", 65500, sent.append),
            ):
                daemon.add_neighbor(address, asn, send)
                daemon.session_up(address)
            daemon.receive_raw("10.0.0.9", frame)
            (advert,) = [
                message
                for message in split_stream(bytearray(b"".join(sent)))
                if isinstance(message, UpdateMessage) and message.nlri
            ]
            exported.append([(a.type_code, a.flags, a.value) for a in advert.attributes])
        assert exported[0] == exported[1]
        assert [code for code, _, _ in exported[0]] == [1, 2, 3, 32]
        assert (large.type_code, large.flags, large.value) in exported[0]
