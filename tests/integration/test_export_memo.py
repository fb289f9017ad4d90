"""Integration: one export memo, and the attribute sets it shares.

The speaker resolves each exported route through one memo keyed on
(attribute set, target is eBGP, source is eBGP, target rr_client,
nexthop_self) whose value is (rewritten host attributes, encoded
blob); every route exported with one rewritten set shares it, and
PyBIRD seals that shared eattr list.  None of this may change what is
sent or advertised: not at a cap so small the memo clears every few
routes, not against the RFC 4271 reference (``repro.fuzz.reference``,
no caches at all), and not with extension codes that write attributes
on the export path.
"""

import io
import random
from typing import NamedTuple

import pytest

from repro.bgp import speaker
from repro.bgp.aspath import AsPath
from repro.bgp.attributes import PathAttribute, make_as_path, make_next_hop, make_origin
from repro.bgp.constants import AttrTypeCode, Origin
from repro.bgp.messages import UpdateMessage, split_stream
from repro.bgp.prefix import Prefix, format_ipv4, parse_ipv4
from repro.bird.eattrs import EattrList
from repro.core.insertion_points import InsertionPoint
from repro.fuzz.reference import ReferenceDut
from repro.mrt import MrtPeer, RibEntry, write_table
from repro.scale import build_scale_daemon
from repro.workload import RibGenerator, build_updates, iter_routes_from_mrt, mrt_io

DUT = "10.0.0.1"
UPSTREAM = "10.0.1.2"
DOWNSTREAM = "10.0.2.2"
SECOND_UPSTREAM = "10.0.3.2"
IBGP_PEER = "10.0.5.2"
LOCAL_ASN = 65001

HOSTS = ["frr", "bird"]


def churn_routes(count=160, seed=26):
    """The benchmark's churn shape: a table, a contest from a second
    upstream whose paths are one hop shorter or longer, then half the
    first upstream's routes withdrawn and a quarter replaced."""
    routes = RibGenerator(n_routes=count, seed=seed).generate()
    rng = random.Random(seed)
    contest = []
    for spec in routes:
        shorter = rng.random() < 0.5 and len(spec.as_path) >= 2
        path = spec.as_path[1:] if shorter else (spec.as_path[0],) + spec.as_path
        contest.append(spec._replace(as_path=path))
    withdrawn = [spec.prefix for spec in rng.sample(routes, count // 2)]
    replaced = [
        spec._replace(med=(spec.med or 0) + 1 + rng.randrange(50))
        for spec in rng.sample(routes, count // 4)
    ]
    return routes, contest, withdrawn, replaced


def churn_feed(session, count=160, seed=26):
    """(upstream, UPDATE) pairs, in order."""
    routes, contest, withdrawn, replaced = churn_routes(count, seed)

    def announce(specs, address, asn):
        return [
            (address, update)
            for update in build_updates(
                specs,
                next_hop=parse_ipv4(address),
                session=session,
                sender_asn=asn,
                max_prefixes_per_update=16,
            )
        ]

    withdrawals = [
        (UPSTREAM, UpdateMessage(withdrawn=withdrawn[start : start + 16]))
        for start in range(0, len(withdrawn), 16)
    ]
    return (
        announce(routes, UPSTREAM, 65100)
        + announce(contest, SECOND_UPSTREAM, 65300)
        + withdrawals
        + announce(replaced, UPSTREAM, 65100)
    )


class Run(NamedTuple):
    daemon: object
    #: peer address -> every byte the DUT sent that peer, in order.
    wire: dict
    #: peer address -> {prefix: attributes as (code, flags, value)}.
    adj_rib_out: dict


def replay(implementation, feature, mode, feed):
    """The Fig. 3 DUT plus a second upstream and a plain iBGP peer, so
    every export class (eBGP, iBGP client, iBGP non-client) is fed."""
    reflecting = feature == "route_reflection"
    daemon, _ = build_scale_daemon(
        {"implementation": implementation, "feature": feature, "mode": mode}
    )
    wire = {}

    def record(address):
        chunks = wire[address] = []
        return chunks.append

    daemon._send_fns[parse_ipv4(DOWNSTREAM)] = record(DOWNSTREAM)
    daemon.add_neighbor(
        SECOND_UPSTREAM,
        LOCAL_ASN if reflecting else 65300,
        record(SECOND_UPSTREAM),
        rr_client=reflecting,
    )
    daemon.add_neighbor(IBGP_PEER, LOCAL_ASN, record(IBGP_PEER))
    daemon.session_up(SECOND_UPSTREAM)
    daemon.session_up(IBGP_PEER)
    for address, update in feed:
        daemon.receive_raw(address, update.encode())

    adj_rib_out = {
        address: {
            str(prefix): tuple(
                sorted((a.type_code, a.flags, bytes(a.value)) for a in route.attribute_list())
            )
            for prefix, route in table.items()
        }
        for address, table in daemon.adj_rib_out._tables.items()
    }
    return Run(
        daemon,
        {address: b"".join(chunks) for address, chunks in wire.items()},
        adj_rib_out,
    )


def reference_replay(feature, feed):
    """The same peers and feed through the RFC 4271 reference, as a
    :class:`Run` (one NLRI per UPDATE on its wire)."""
    reflecting = feature == "route_reflection"
    plugin = {"plain": None, "route_reflection": "route_reflector"}.get(feature, feature)
    model = ReferenceDut(plugin)
    for address, asn in (
        (UPSTREAM, 65100),
        (DOWNSTREAM, 65200),
        (SECOND_UPSTREAM, 65300),
        (IBGP_PEER, LOCAL_ASN),
    ):
        client = reflecting and address != IBGP_PEER
        model.add_peer(address, LOCAL_ASN if reflecting else asn, rr_client=client)
    for address, update in feed:
        model.receive(address, update.encode())
    wire = {format_ipv4(address): b"".join(chunks) for address, chunks in model.sent.items()}
    adj_rib_out = {
        address: {
            str(prefix): tuple(sorted((a.type_code, a.flags, a.value) for a in attrs))
            for prefix, attrs in table.items()
        }
        for address, table in model.adj_rib_out.items()
    }
    return Run(model, wire, adj_rib_out)


def held(run):
    """What each peer ends up holding: per-prefix attribute bytes and
    every prefix withdrawn from it, read off ``run.wire``."""
    views = {}
    for address, data in run.wire.items():
        attributes, withdrawn = {}, set()
        for message in split_stream(bytearray(data)):
            for prefix in message.withdrawn:
                attributes.pop(prefix, None)
                withdrawn.add(prefix)
            for prefix in message.nlri:
                attributes[prefix] = message._attrs_wire
        views[address] = (attributes, withdrawn)
    return views


def advertised(run):
    """``run.adj_rib_out`` without the peers it holds nothing for."""
    return {address: table for address, table in run.adj_rib_out.items() if table}


def attribute_codes(data):
    """Attribute type codes carried by the UPDATEs in ``data``."""
    codes = set()
    for message in split_stream(bytearray(data)):
        if isinstance(message, UpdateMessage) and message.nlri:
            codes.update(attribute.type_code for attribute in message.attributes)
    return codes


# -- cache cliffs -------------------------------------------------------


@pytest.mark.parametrize("implementation", HOSTS)
def test_a_capped_export_memo_sends_and_advertises_the_same(implementation, monkeypatch):
    feed = churn_feed("ebgp")
    uncapped = replay(implementation, "plain", "native", feed)
    monkeypatch.setattr(speaker, "_CACHE_CAP", 8)
    capped = replay(implementation, "plain", "native", feed)
    reference = reference_replay("plain", feed)

    assert set(uncapped.wire) == {DOWNSTREAM, SECOND_UPSTREAM, IBGP_PEER}
    assert all(uncapped.wire.values())
    assert capped.wire == uncapped.wire
    assert held(uncapped) == {
        address: view for address, view in held(reference).items() if address != UPSTREAM
    }
    assert capped.adj_rib_out == uncapped.adj_rib_out
    assert advertised(uncapped) == advertised(reference)
    # The cap was hit, many times.
    assert len(capped.daemon._export_cache) <= 8 < len(uncapped.daemon._export_cache)


@pytest.mark.parametrize("implementation", HOSTS)
def test_the_memo_key_holds_every_rewrite_input(implementation):
    """One attribute set, learned over eBGP and originated locally, then
    re-sent after ``nexthop_self`` flips: towards the iBGP peer only the
    source's session type and ``nexthop_self`` tell the rewrites apart."""
    attributes = [
        make_origin(Origin.IGP),
        make_as_path(AsPath.from_sequence([65100])),
        make_next_hop(parse_ipv4(UPSTREAM)),
    ]
    learned, local = Prefix.parse("192.0.2.0/24"), Prefix.parse("198.51.100.0/24")

    def next_hops_to_ibgp_peer():
        daemon = replay(implementation, "plain", "native", []).daemon

        def next_hops():
            routes = daemon.adj_rib_out.routes_to(parse_ipv4(IBGP_PEER))
            return {route.prefix: route.next_hop() for route in routes}

        update = UpdateMessage(attributes=attributes, nlri=[learned])
        daemon.receive_raw(UPSTREAM, update.encode())
        daemon.originate(local, attributes=attributes)
        before = next_hops()
        daemon.nexthop_self = False
        daemon.session_up(IBGP_PEER)
        return before, next_hops()

    before, after = next_hops_to_ibgp_peer()
    dut, upstream = parse_ipv4(DUT), parse_ipv4(UPSTREAM)
    assert before == {learned: dut, local: upstream}
    assert after == {learned: upstream, local: upstream}


def test_a_capped_mrt_memo_reads_the_same_routes(monkeypatch):
    routes, contest, _, replaced = churn_routes()
    peer = MrtPeer(parse_ipv4(UPSTREAM), parse_ipv4(UPSTREAM), 65100)
    stream = io.BytesIO()
    write_table(
        stream,
        [peer],
        (
            RibEntry(prefix, 0, 0, update.attributes)
            for update in build_updates(
                routes + contest + replaced,
                next_hop=peer.address,
                session="ebgp",
                sender_asn=65100,
            )
            for prefix in update.nlri
        ),
    )
    data = stream.getvalue()
    uncapped = list(iter_routes_from_mrt(io.BytesIO(data)))
    monkeypatch.setattr(mrt_io, "_MEMO_CAP", 8)
    capped = list(iter_routes_from_mrt(io.BytesIO(data)))
    assert capped == uncapped
    assert len(uncapped) == len(routes)


# -- shared, sealed export lists (PyBIRD) ---------------------------------


def test_bird_adj_rib_out_shares_the_memo_lists():
    run = replay("bird", "plain", "native", churn_feed("ebgp"))
    routes = [
        route for table in run.daemon.adj_rib_out._tables.values() for route in table.values()
    ]
    lists = {id(route.eattrs) for route in routes}
    memo = run.daemon._export_cache
    assert routes and len(lists) <= len(memo) < len(routes)
    assert lists <= {id(attrs) for attrs, _ in memo.values()}
    assert all(route.eattrs._sealed for route in routes)


def test_a_sealed_list_refuses_in_place_writes():
    med = int(AttrTypeCode.MULTI_EXIT_DISC)
    sealed = EattrList.from_wire([PathAttribute(0x80, med, b"\x00\x00\x00\x05")]).seal()
    key = sealed.cache_key()
    with pytest.raises(TypeError, match="sealed"):
        sealed.ea_set(med, 0x80, b"\x00\x00\x00\x06")
    with pytest.raises(TypeError, match="sealed"):
        sealed.ea_unset(med)
    assert sealed.cache_key() is key

    # Writers copy first: the copy is writable, the sealed list intact.
    clone = sealed.copy()
    clone.ea_set(med, 0x80, b"\x00\x00\x00\x06")
    assert clone.ea_unset(med)
    assert sealed.ea_find(med).data == b"\x00\x00\x00\x05"


@pytest.mark.parametrize(
    "feature,session",
    [("route_reflection", "ibgp"), ("geoloc", "ebgp")],
    ids=["rr-set_attr", "geoloc-remove_attr-write_buf"],
)
def test_bird_export_writers_match_the_reference(feature, session):
    """RR's outbound code writes with ``set_attr``; GeoLoc's removes its
    attribute towards eBGP and writes it into the encoded bytes towards
    iBGP.  Both write next to lists the memo shares."""
    feed = churn_feed(session)
    fast = replay("bird", feature, "extension", feed)
    reference = reference_replay(feature, feed)

    assert held(fast) == {
        address: view for address, view in held(reference).items() if address in fast.wire
    }
    assert advertised(fast) == advertised(reference)
    assert fast.daemon.vmm.fallbacks == 0
    # Encode codes run on a memo miss only: once per memo entry.
    stats = fast.daemon.vmm.stats()
    for name in fast.daemon.vmm.attached_codes(InsertionPoint.BGP_ENCODE_MESSAGE):
        assert stats[name]["executions"] == len(fast.daemon._export_cache)
    if feature == "route_reflection":
        stamped = {AttrTypeCode.ORIGINATOR_ID, AttrTypeCode.CLUSTER_LIST}
        assert stamped <= attribute_codes(fast.wire[DOWNSTREAM])
    else:
        assert AttrTypeCode.GEOLOC in attribute_codes(fast.wire[IBGP_PEER])
        assert AttrTypeCode.GEOLOC not in attribute_codes(fast.wire[DOWNSTREAM])
