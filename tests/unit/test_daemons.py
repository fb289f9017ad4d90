"""Unit tests for daemon behavior, parametrized over both hosts.

Both PyFRR and PyBIRD implement the same RFC 4271 machine on different
internals; every test here runs against each.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.attributes import (
    make_as_path,
    make_communities,
    make_next_hop,
    make_origin,
)
from repro.bgp.aspath import AsPath
from repro.bgp.constants import AttrTypeCode, Origin, WellKnownCommunity
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import format_ipv4, parse_ipv4
from repro.bird import BirdDaemon
from repro.frr import FrrDaemon

PREFIX = Prefix.parse("203.0.113.0/24")


@pytest.fixture(params=[FrrDaemon, BirdDaemon], ids=["frr", "bird"])
def daemon_cls(request):
    return request.param


def make_daemon(daemon_cls, **kwargs):
    defaults = dict(asn=65001, router_id="1.1.1.1", local_address="10.0.0.1")
    defaults.update(kwargs)
    return daemon_cls(**defaults)


def wire_peer(daemon, address="10.0.0.9", asn=65100, **kwargs):
    """Add an established peer; returns (neighbor, sent-messages list)."""
    sent = []
    neighbor = daemon.add_neighbor(address, asn, sent.append, **kwargs)
    daemon._established[parse_ipv4(address)] = True
    neighbor.established = True
    return neighbor, sent


def ebgp_update(prefixes=(PREFIX,), as_path=(65100,), next_hop="10.0.0.9", extra=()):
    attrs = [
        make_origin(Origin.IGP),
        make_as_path(AsPath.from_sequence(as_path)),
        make_next_hop(parse_ipv4(next_hop)),
    ]
    attrs.extend(extra)
    return UpdateMessage(attributes=attrs, nlri=list(prefixes))


class TestImport:
    def test_update_lands_in_loc_rib(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon)
        daemon.receive_message("10.0.0.9", ebgp_update())
        route = daemon.loc_rib.lookup(PREFIX)
        assert route is not None
        assert route.next_hop() == parse_ipv4("10.0.0.9")

    def test_as_loop_rejected(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon)
        daemon.receive_message("10.0.0.9", ebgp_update(as_path=(65100, 65001)))
        assert daemon.loc_rib.lookup(PREFIX) is None
        assert daemon.stats["loop_rejected"] == 1

    def test_withdrawal_removes_route(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon)
        daemon.receive_message("10.0.0.9", ebgp_update())
        daemon.receive_message("10.0.0.9", UpdateMessage(withdrawn=[PREFIX]))
        assert daemon.loc_rib.lookup(PREFIX) is None

    def test_implicit_replacement(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon)
        daemon.receive_message("10.0.0.9", ebgp_update(as_path=(65100, 65200)))
        daemon.receive_message("10.0.0.9", ebgp_update(as_path=(65100,)))
        route = daemon.loc_rib.lookup(PREFIX)
        assert route.as_path_length() == 1

    def test_best_of_two_peers(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65100)
        wire_peer(daemon, "10.0.0.8", 65200)
        daemon.receive_message("10.0.0.9", ebgp_update(as_path=(65100, 65300)))
        daemon.receive_message(
            "10.0.0.8", ebgp_update(as_path=(65200,), next_hop="10.0.0.8")
        )
        route = daemon.loc_rib.lookup(PREFIX)
        assert route.source.peer_asn == 65200  # shorter path wins

    def test_eor_counted(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon)
        daemon.receive_message("10.0.0.9", UpdateMessage.end_of_rib())
        assert daemon.stats["eor_received"] == 1

    def test_unknown_peer_ignored(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        daemon.receive_message("99.99.99.99", ebgp_update())
        assert daemon.stats["unknown_peer"] == 1

    def test_session_flap_drops_partial_message(self, daemon_cls):
        # The bytes of a message cut off by a session reset belong to
        # the dead TCP stream; they must not prefix the next one.
        daemon = make_daemon(daemon_cls)
        daemon.add_neighbor("10.0.0.9", 65100, lambda data: None)
        daemon.session_up("10.0.0.9")
        frame = ebgp_update().encode()
        daemon.receive_raw("10.0.0.9", frame[:10])
        daemon.session_down("10.0.0.9")
        daemon.session_up("10.0.0.9")
        daemon.receive_raw("10.0.0.9", frame)
        assert daemon.stats["messages_received"] == 1
        assert daemon.loc_rib.lookup(PREFIX) is not None


class TestExport:
    def test_ebgp_export_prepends_and_rewrites_nexthop(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65100)
        _, sent = wire_peer(daemon, "10.0.0.5", 65500)
        daemon.receive_message("10.0.0.9", ebgp_update())
        update = _last_update(sent)
        path = update.attribute(AttrTypeCode.AS_PATH).as_path()
        assert list(path.asn_iter()) == [65001, 65100]
        next_hop = update.attribute(AttrTypeCode.NEXT_HOP).as_u32()
        assert next_hop == daemon.local_address
        assert update.attribute(AttrTypeCode.LOCAL_PREF) is None

    def test_not_sent_back_to_source(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        _, sent = wire_peer(daemon, "10.0.0.9", 65100)
        daemon.receive_message("10.0.0.9", ebgp_update())
        assert _last_update(sent) is None

    def test_ibgp_split_horizon(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65001)  # iBGP source
        _, sent = wire_peer(daemon, "10.0.0.5", 65001)  # iBGP dest
        daemon.receive_message(
            "10.0.0.9", ebgp_update(as_path=(), extra=())
        )
        assert _last_update(sent) is None

    def test_ibgp_export_adds_local_pref(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65100)  # eBGP source
        _, sent = wire_peer(daemon, "10.0.0.5", 65001)  # iBGP dest
        daemon.receive_message("10.0.0.9", ebgp_update())
        update = _last_update(sent)
        assert update.attribute(AttrTypeCode.LOCAL_PREF).as_u32() == 100

    def test_nexthop_self_toward_ibgp(self, daemon_cls):
        daemon = make_daemon(daemon_cls)  # nexthop_self defaults True
        wire_peer(daemon, "10.0.0.9", 65100)
        _, sent = wire_peer(daemon, "10.0.0.5", 65001)
        daemon.receive_message("10.0.0.9", ebgp_update())
        update = _last_update(sent)
        assert update.attribute(AttrTypeCode.NEXT_HOP).as_u32() == daemon.local_address

    def test_no_export_community_honoured(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65100)
        _, sent = wire_peer(daemon, "10.0.0.5", 65500)
        update = ebgp_update(
            extra=[make_communities([int(WellKnownCommunity.NO_EXPORT)])]
        )
        daemon.receive_message("10.0.0.9", update)
        assert _last_update(sent) is None
        assert daemon.stats["export_rejected"] >= 1

    def test_withdrawal_propagates(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65100)
        _, sent = wire_peer(daemon, "10.0.0.5", 65500)
        daemon.receive_message("10.0.0.9", ebgp_update())
        sent.clear()
        daemon.receive_message("10.0.0.9", UpdateMessage(withdrawn=[PREFIX]))
        update = _last_update(sent)
        assert update is not None and PREFIX in update.withdrawn

    def test_session_up_sends_table_and_eor(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65100)
        daemon.receive_message("10.0.0.9", ebgp_update())
        sent = []
        daemon.add_neighbor("10.0.0.5", 65500, sent.append)
        daemon.session_up("10.0.0.5")
        updates = _all_updates(sent)
        assert any(PREFIX in u.nlri for u in updates)
        assert any(u.is_end_of_rib() for u in updates)

    def test_session_down_flushes_and_withdraws(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65100)
        _, sent = wire_peer(daemon, "10.0.0.5", 65500)
        daemon.receive_message("10.0.0.9", ebgp_update())
        sent.clear()
        daemon.session_down("10.0.0.9")
        update = _last_update(sent)
        assert update is not None and PREFIX in update.withdrawn
        assert daemon.loc_rib.lookup(PREFIX) is None


class TestRouteRefresh:
    def test_refresh_resends_adj_rib_out(self, daemon_cls):
        from repro.bgp.messages import RouteRefreshMessage

        daemon = make_daemon(daemon_cls)
        _, sent = wire_peer(daemon, "10.0.0.5", 65500)
        daemon.originate(PREFIX)
        sent.clear()
        daemon.receive_message("10.0.0.5", RouteRefreshMessage())
        updates = _all_updates(sent)
        assert any(PREFIX in u.nlri for u in updates)
        assert any(u.is_end_of_rib() for u in updates)
        assert daemon.stats["route_refresh_received"] == 1

    def test_refresh_respects_export_policy(self, daemon_cls):
        from repro.bgp.messages import RouteRefreshMessage
        from repro.bgp.policy import PrefixListFilter

        daemon = make_daemon(daemon_cls)
        _, sent = wire_peer(daemon, "10.0.0.5", 65500)
        daemon.export_chain.append(PrefixListFilter([PREFIX]))
        daemon.originate(PREFIX)
        sent.clear()
        daemon.receive_message("10.0.0.5", RouteRefreshMessage())
        updates = _all_updates(sent)
        assert not any(PREFIX in u.nlri for u in updates)


class TestLocalRoutes:
    def test_originate_and_withdraw(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        _, sent = wire_peer(daemon, "10.0.0.5", 65500)
        daemon.originate(PREFIX)
        assert daemon.loc_rib.lookup(PREFIX) is not None
        update = _last_update(sent)
        assert PREFIX in update.nlri
        sent.clear()
        daemon.withdraw_local(PREFIX)
        assert PREFIX in _last_update(sent).withdrawn

    def test_local_route_preferred_over_ibgp(self, daemon_cls):
        # Local routes win the eBGP-over-iBGP rung (LOCAL source ranks
        # as not-iBGP and has no peers to lose tie-breaks to).
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon, "10.0.0.9", 65001)
        daemon.receive_message(
            "10.0.0.9",
            UpdateMessage(
                attributes=[
                    make_origin(Origin.IGP),
                    make_as_path(AsPath()),
                    make_next_hop(parse_ipv4("10.0.0.9")),
                ],
                nlri=[PREFIX],
            ),
        )
        daemon.originate(PREFIX)
        assert daemon.loc_rib.lookup(PREFIX).source is None


class TestSnapshots:
    def test_loc_rib_snapshot_neutral_form(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        wire_peer(daemon)
        daemon.receive_message("10.0.0.9", ebgp_update())
        snapshot = daemon.loc_rib_snapshot()
        assert PREFIX in snapshot
        codes = [attr.type_code for attr in snapshot[PREFIX]]
        assert codes == sorted(codes)

    def test_log_ring_bounded(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        for index in range(11_000):
            daemon.log(f"line {index}")
        assert len(daemon.log_messages) <= 10_000


def _all_updates(sent):
    from repro.bgp.messages import split_stream

    buffer = bytearray(b"".join(sent))
    return [m for m in split_stream(buffer) if isinstance(m, UpdateMessage)]


def _last_update(sent):
    updates = _all_updates(sent)
    return updates[-1] if updates else None
