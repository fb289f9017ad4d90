"""Integration: the UPDATE is the unit of work on every path.

One pipeline (``BgpSpeaker.process_update_batch``, fed a vector of one
by ``receive_message``) ends every decision sweep in one packed flush:
advertisements sharing (peer, encoded attribute blob) leave as
multi-NLRI UPDATEs, withdrawals coalesce and go first.  Packing is
framing only — how a feed is cut into UPDATEs must not change what the
downstream ends up holding, what the Loc-RIB holds, or how often the
extension ran.
"""

import gc

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.attributes import make_as_path, make_next_hop, make_origin
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage, split_stream
from repro.bgp.prefix import Prefix, parse_ipv4
from repro.bgp.roa import make_roas_for_prefixes
from repro.scale import build_scale_daemon, normalise_snapshot
from repro.workload import RibGenerator, build_updates, origins_of

UPSTREAM = "10.0.1.2"
DOWNSTREAM = "10.0.2.2"
LATE_PEER = "10.0.4.2"

HOSTS = ["frr", "bird"]
ARMS = [
    ("plain", "native"),
    ("route_reflection", "extension"),
    ("origin_validation", "extension"),
]


def make_config(implementation, feature, mode, routes, tier="jit"):
    config = {
        "implementation": implementation,
        "feature": feature,
        "mode": mode,
        "tier": tier,
    }
    if feature == "origin_validation":
        config["roas"] = make_roas_for_prefixes(origins_of(routes), 0.75, seed=11)
    return config


def announcements(feature, routes, per_update):
    session = "ibgp" if feature == "route_reflection" else "ebgp"
    return build_updates(
        routes,
        next_hop=parse_ipv4(UPSTREAM),
        session=session,
        sender_asn=None if session == "ibgp" else 65100,
        max_prefixes_per_update=per_update,
    )


class Tap:
    """Records the messages a DUT sends to one peer, then delivers them."""

    def __init__(self, daemon, peer=DOWNSTREAM):
        self.messages = []
        self._buffer = bytearray()
        address = parse_ipv4(peer)
        self._deliver = daemon._send_fns[address]
        daemon._send_fns[address] = self

    def __call__(self, data):
        self._buffer.extend(data)
        self._deliver(data)
        for message in split_stream(self._buffer):
            if isinstance(message, UpdateMessage) and not message.is_end_of_rib():
                self.messages.append(message)

    def reassembled(self):
        """(prefix -> attribute bytes held, prefixes ever withdrawn)."""
        held, withdrawn = {}, set()
        for message in self.messages:
            for prefix in message.withdrawn:
                held.pop(prefix, None)
                withdrawn.add(prefix)
            for prefix in message.nlri:
                held[prefix] = bytes(message._attrs_wire)
        return held, withdrawn


def replay(config, updates):
    daemon, collector = build_scale_daemon(config)
    tap = Tap(daemon)
    for update in updates:
        daemon.receive_raw(UPSTREAM, update.encode())
    return daemon, collector, tap


@pytest.mark.parametrize("feature,mode", ARMS)
@pytest.mark.parametrize("implementation", HOSTS)
def test_packing_is_framing_only(implementation, feature, mode):
    routes = RibGenerator(n_routes=240, seed=15).generate()
    config = make_config(implementation, feature, mode, routes)
    victims = [spec.prefix for spec in routes[::5]]

    packed_feed = announcements(feature, routes, 8)
    single_feed = announcements(feature, routes, 1)
    assert len(single_feed) == len(routes) > len(packed_feed)

    packed = replay(config, packed_feed + [UpdateMessage(withdrawn=victims)])
    single = replay(
        config, single_feed + [UpdateMessage(withdrawn=[prefix]) for prefix in victims]
    )

    (p_daemon, p_collector, p_tap), (s_daemon, s_collector, s_tap) = packed, single
    assert p_tap.reassembled() == s_tap.reassembled()
    assert p_tap.reassembled()[1] == set(victims)
    assert set(p_tap.reassembled()[0]) == p_collector.prefixes == s_collector.prefixes
    assert normalise_snapshot(p_daemon.loc_rib_snapshot()) == normalise_snapshot(
        s_daemon.loc_rib_snapshot()
    )
    assert p_daemon.vmm.stats() == s_daemon.vmm.stats()
    if mode == "extension":
        # Once per route per insertion point: packing shares no verdict.
        assert all(
            row["executions"] == len(routes) for row in p_daemon.vmm.stats().values()
        )
        assert p_daemon.vmm.fallbacks == 0

    for tap in (p_tap, s_tap):
        assert all(len(message.encode()) <= 4096 for message in tap.messages)
    # Nothing to pack when every UPDATE carries one prefix ...
    assert all(len(m.nlri) + len(m.withdrawn) == 1 for m in s_tap.messages)
    # ... and what arrives packed leaves packed: never more UPDATEs out
    # than in, one withdrawal for the wave.
    announces = [message for message in p_tap.messages if message.nlri]
    assert 1 < len(announces) <= len(packed_feed)
    assert [len(m.withdrawn) for m in p_tap.messages if m.withdrawn] == [len(victims)]


@pytest.mark.parametrize("implementation", HOSTS)
def test_table_dump_is_chunked_at_the_wire_ceiling(implementation):
    """session_up is a sweep too: 1,500 prefixes sharing one attribute
    set leave as a few maximum-size UPDATEs, none above 4,096 bytes."""
    daemon, _ = build_scale_daemon(
        {"implementation": implementation, "feature": "plain", "mode": "native"}
    )
    prefixes = [Prefix((10 << 24) | (index << 8), 24) for index in range(1500)]
    attributes = [
        make_origin(Origin.IGP),
        make_as_path(AsPath.from_sequence([65100, 65110])),
        make_next_hop(parse_ipv4(UPSTREAM)),
    ]
    for start in range(0, len(prefixes), 100):
        update = UpdateMessage(attributes=attributes, nlri=prefixes[start : start + 100])
        daemon.receive_raw(UPSTREAM, update.encode())

    daemon.add_neighbor(LATE_PEER, 65400, lambda data: None)
    tap = Tap(daemon, LATE_PEER)
    daemon.session_up(LATE_PEER)

    held, withdrawn = tap.reassembled()
    assert set(held) == set(prefixes) and not withdrawn
    assert len(set(held.values())) == 1
    sizes = [len(message.encode()) for message in tap.messages]
    assert max(sizes) <= 4096
    # Room is reckoned at five bytes per prefix, so 1,500 /24s take two.
    assert len(sizes) == 2 and sizes[0] > 3000
    table = daemon.adj_rib_out._tables[parse_ipv4(LATE_PEER)]
    assert set(table) == set(prefixes)


@pytest.mark.parametrize("implementation", HOSTS)
def test_withdraw_and_reannounce_in_one_update_is_one_decision(implementation):
    daemon, collector = build_scale_daemon(
        {"implementation": implementation, "feature": "plain", "mode": "native"}
    )
    prefix = Prefix.parse("198.51.100.0/24")

    def attributes(*path):
        return [
            make_origin(Origin.IGP),
            make_as_path(AsPath.from_sequence(path)),
            make_next_hop(parse_ipv4(UPSTREAM)),
        ]

    daemon.receive_raw(
        UPSTREAM, UpdateMessage(attributes=attributes(65100, 65110), nlri=[prefix]).encode()
    )
    tap = Tap(daemon)
    decided = []
    run_decision = daemon._run_decision
    daemon._run_decision = lambda prefix, config: (
        decided.append(prefix),
        run_decision(prefix, config),
    )[1]

    both = UpdateMessage(
        withdrawn=[prefix], attributes=attributes(65100, 65120, 65130), nlri=[prefix]
    )
    daemon.receive_raw(UPSTREAM, both.encode())

    assert decided == [prefix]
    (message,) = tap.messages
    assert list(message.nlri) == [prefix] and not message.withdrawn
    assert prefix in collector.prefixes
    path = [a for a in daemon.loc_rib_snapshot()[prefix] if a.type_code == 2][0]
    assert list(path.as_path().asn_iter()) == [65100, 65120, 65130]


@pytest.mark.parametrize("implementation", HOSTS)
def test_a_sweep_that_raises_still_flushes_what_adj_rib_out_recorded(implementation):
    daemon, collector = build_scale_daemon(
        {"implementation": implementation, "feature": "plain", "mode": "native"}
    )
    tap = Tap(daemon)
    routes = RibGenerator(n_routes=12, seed=3).generate()
    (update,) = build_updates(
        [spec._replace(as_path=routes[0].as_path, med=None, communities=()) for spec in routes],
        next_hop=parse_ipv4(UPSTREAM),
        session="ebgp",
        sender_asn=65100,
        max_prefixes_per_update=64,
    )
    run_decision = daemon._run_decision
    seen = []

    def failing(prefix, config):
        seen.append(prefix)
        if len(seen) == 8:
            raise RuntimeError("decision blew up mid-sweep")
        return run_decision(prefix, config)

    daemon._run_decision = failing
    with pytest.raises(RuntimeError):
        daemon.receive_raw(UPSTREAM, update.encode())

    recorded = set(daemon.adj_rib_out._tables[parse_ipv4(DOWNSTREAM)])
    assert len(recorded) == 7
    assert set(tap.reassembled()[0]) == recorded == collector.prefixes
    assert not daemon._bulk_adv and not daemon._bulk_wd

    # The speaker keeps working afterwards: the rest arrives on replay.
    daemon._run_decision = run_decision
    daemon.receive_raw(UPSTREAM, update.encode())
    assert len(collector.prefixes) == 12
    assert set(daemon.adj_rib_out._tables[parse_ipv4(DOWNSTREAM)]) == collector.prefixes


def _live(*type_names):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj).__name__ in type_names)


@pytest.mark.parametrize("tier", ["interp", "jit"])
@pytest.mark.parametrize("implementation", HOSTS)
def test_next_does_not_pin_a_traceback_per_run(implementation, tier):
    """``next()`` raises a fresh NextRequested each time.  A shared
    instance accumulates a traceback chain — CPython prepends to
    ``__traceback__`` on every raise — pinning each run's frames,
    context and route: ~3 KiB per route that no collection frees."""
    routes = RibGenerator(n_routes=800, seed=21).generate()
    config = make_config(implementation, "route_reflection", "extension", routes, tier)
    updates = announcements("route_reflection", routes, 8)
    warm = len(updates) // 4
    daemon, collector = build_scale_daemon(config)

    for update in updates[:warm]:
        daemon.receive_raw(UPSTREAM, update.encode())
    before = _live("traceback", "frame")
    for update in updates[warm:]:
        daemon.receive_raw(UPSTREAM, update.encode())
    after = _live("traceback", "frame")

    executions = [row["executions"] for row in daemon.vmm.stats().values()]
    assert executions == [len(routes)] * 2 and len(collector.prefixes) == len(routes)
    assert after - before < 20, f"{after - before} traceback/frame objects pinned"
    assert _live("ExecutionContext") < 10
