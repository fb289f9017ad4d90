"""Integration: batched and sharded replay are invisible to routing.

The scale pipeline (``repro.scale``) must be a pure performance
transform: for every paper plugin and both host implementations, the
Loc-RIB snapshot, the effective export state seen downstream, and the
provenance-visible decision outcomes must be identical whether a feed
is replayed sequentially, through :class:`BatchProcessor`, or split by
:class:`PartitionMap` across shard daemons.

Batching legitimately collapses *transient* downstream traffic (an
announce immediately withdrawn inside one batch never reaches the
wire), so parity is asserted on final state — the advertised set, not
the withdraw event stream.  The feed deliberately contains such a
churn pair to pin that semantics down.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.aspath import AsPath
from repro.bgp.attributes import make_as_path, make_geoloc, make_next_hop, make_origin
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import parse_ipv4
from repro.bgp.roa import make_roas_for_prefixes
from repro.scale import (
    BatchProcessor,
    PartitionMap,
    ShardedReplay,
    build_scale_daemon,
    normalise_snapshot,
    split_update,
)
from repro.sim.harness import ConvergenceHarness
from repro.sim.testbed import RunSpec, build_feed
from repro.workload import RibGenerator, build_updates, origins_of

UPSTREAM = "10.0.1.2"
DOWNSTREAM = "10.0.2.2"

FEATURES = [
    "route_reflection",
    "origin_validation",
    "valley_free",
    "geoloc",
    "closest_exit",
]

#: Two geo-tagged candidates for one prefix, so the GeoLoc filter and
#: the closest-exit decision both have something to decide.
CONTESTED = Prefix.parse("203.0.113.0/24")
EXITS = (
    (UPSTREAM, 65100, (-33.86, 151.21)),  # Sydney
    (DOWNSTREAM, 65200, (48.85, 2.35)),  # Paris — closer to the DUT
)


def make_routes():
    routes = RibGenerator(n_routes=120, seed=7).generate()
    return [spec for spec in routes if spec.prefix != CONTESTED]


def make_config(feature, implementation, routes):
    config = {
        "implementation": implementation,
        "feature": feature,
        "mode": "extension",
        "tier": "jit",
        "provenance": True,
    }
    if feature == "origin_validation":
        config["roas"] = make_roas_for_prefixes(origins_of(routes), 0.75, seed=7)
    if feature == "valley_free":
        # Provider edges lifted from real workload paths, so the plugin
        # exercises both its keep and drop branches.
        edges = set()
        for spec in routes[:6]:
            if len(spec.as_path) > 1:
                edges.add((spec.as_path[1], spec.as_path[0]))
        config["valley"] = {"up_edges": sorted(edges), "dc_ases": [65100]}
    return config


def make_feed(feature, routes):
    """Deterministic (peer, update) feed: bulk announcements, two
    geo-tagged candidates, a withdraw wave, and an announce→withdraw
    churn pair that batching will collapse."""
    session = "ibgp" if feature == "route_reflection" else "ebgp"
    sender = None if session == "ibgp" else 65100

    def announce(specs):
        return build_updates(
            specs,
            next_hop=parse_ipv4(UPSTREAM),
            session=session,
            sender_asn=sender,
            max_prefixes_per_update=8,
        )

    feed = [(UPSTREAM, update) for update in announce(routes)]
    if feature in ("geoloc", "closest_exit"):
        for address, asn, coord in EXITS:
            feed.append(
                (
                    address,
                    UpdateMessage(
                        attributes=[
                            make_origin(Origin.IGP),
                            make_as_path(AsPath.from_sequence([asn])),
                            make_next_hop(parse_ipv4(address)),
                            make_geoloc(*coord),
                        ],
                        nlri=[CONTESTED],
                    ),
                )
            )
    victims = [spec.prefix for spec in routes[::9]]
    feed.append((UPSTREAM, UpdateMessage(withdrawn=victims)))
    churn = routes[1]
    feed.extend((UPSTREAM, update) for update in announce([churn]))
    feed.append((UPSTREAM, UpdateMessage(withdrawn=[churn.prefix])))
    return feed, set(victims) | {churn.prefix}


def run_sequential(config, feed):
    daemon, collector = build_scale_daemon(config)
    for address, update in feed:
        daemon.receive_raw(address, update.encode())
    return daemon, collector


def run_batched(config, feed, batch_size=7):
    daemon, collector = build_scale_daemon(config)
    processor = BatchProcessor(daemon, batch_size=batch_size)
    for address, update in feed:
        processor.receive_raw(address, update.encode())
    processor.flush()
    assert processor.batches_flushed > 1  # batching actually engaged
    return daemon, collector


def run_sharded(config, feed, pmap):
    arms = [build_scale_daemon(config) for _ in range(pmap.shards)]
    for address, update in feed:
        for shard, part in split_update(update, pmap).items():
            arms[shard][0].receive_raw(address, part.encode())
    return arms


def provenance_best(daemon, prefixes):
    """Final RIB-visible best per prefix, straight from provenance."""
    out = {}
    for prefix in prefixes:
        best = None
        for story in daemon.provenance.stories(prefix):
            for event in story["events"]:
                if event.get("op") == "rib":
                    best = event.get("best")
        out[str(prefix)] = best
    return out


@pytest.mark.parametrize("implementation", ["frr", "bird"])
@pytest.mark.parametrize("feature", FEATURES)
def test_batched_and_sharded_replay_match_sequential(feature, implementation):
    routes = make_routes()
    config = make_config(feature, implementation, routes)
    feed, removed = make_feed(feature, routes)

    seq_daemon, seq_collector = run_sequential(config, feed)
    bat_daemon, bat_collector = run_batched(config, feed)
    pmap = PartitionMap((spec.prefix for spec in routes), 2)
    assert pmap.shards == 2
    arms = run_sharded(config, feed, pmap)

    # Loc-RIB parity, attribute-exact.
    seq_snapshot = normalise_snapshot(seq_daemon.loc_rib_snapshot())
    assert normalise_snapshot(bat_daemon.loc_rib_snapshot()) == seq_snapshot
    sharded_snapshot = {}
    for daemon, _ in arms:
        part = normalise_snapshot(daemon.loc_rib_snapshot())
        assert not (sharded_snapshot.keys() & part.keys())
        sharded_snapshot.update(part)
    assert sharded_snapshot == seq_snapshot

    # Withdrawn prefixes are gone everywhere.
    assert not ({str(p) for p in removed} & seq_snapshot.keys())

    # Effective export state: what the downstream peer ends up holding.
    advertised = set(seq_collector.prefixes)
    assert set(bat_collector.prefixes) == advertised
    sharded_advertised = set()
    for _, collector in arms:
        sharded_advertised |= collector.prefixes
    assert sharded_advertised == advertised

    # Provenance-visible decision outcomes on surviving prefixes.
    survivors = sorted(seq_snapshot)[::10]
    sample = [Prefix.parse(p) for p in survivors]
    seq_best = provenance_best(seq_daemon, sample)
    assert all(best is not None for best in seq_best.values())
    assert provenance_best(bat_daemon, sample) == seq_best
    sharded_best = {}
    for prefix in sample:
        owner = arms[pmap.shard_of(prefix)][0]
        sharded_best.update(provenance_best(owner, [prefix]))
    assert sharded_best == seq_best

    if feature == "closest_exit" and implementation == "frr":
        # The decision itself is right, not just consistent: Paris wins.
        assert seq_daemon.loc_rib.lookup(CONTESTED).source.peer_asn == 65200


def execution_counters(registry):
    out = {}
    for family in registry.families():
        if family.kind != "counter" or not family.name.startswith("xbgp_extension"):
            continue
        for values, child in family.children.items():
            out[(family.name, values)] = child.value
    return out


def vmm_stats(registry):
    """``vmm.stats()`` rebuilt from a (merged) registry's counters."""
    out = {}
    for family in registry.families():
        kind = family.name.replace("xbgp_extension_", "")
        if family.kind == "counter" and kind in ("executions", "errors", "fallbacks"):
            for values, child in family.children.items():
                labels = dict(zip(family.label_names, values))
                out.setdefault(labels["extension"], {})[kind] = child.value
    return out


@pytest.mark.parametrize("implementation", ["frr", "bird"])
@pytest.mark.parametrize("arm", ["native", "jit", "pyext"])
@pytest.mark.parametrize("feature", ["route_reflection", "origin_validation"])
def test_harness_and_sharded_replay_are_one_testbed(feature, arm, implementation):
    """The Fig. 4 harness, the inline and the forked shard workers and a
    hand-driven ``build_scale_daemon`` DUT are the same testbed: one run
    description gives the same Loc-RIB, downstream sets and extension
    executions through all four — ``pyext`` across shards included."""
    routes = RibGenerator(n_routes=160, seed=13).generate()
    roas = []
    if feature == "origin_validation":
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=13)
    mode = "native" if arm == "native" else "extension"
    tier = "jit" if arm == "native" else arm
    run = dict(max_prefixes_per_update=8, telemetry=True)

    harness = ConvergenceHarness(
        implementation, feature, mode, routes, roas, engine=tier, **run
    )
    harness.run()
    spec = RunSpec(implementation, feature, mode, roas, tier=tier, **run)
    assert harness.spec == spec
    hand, hand_collector = build_scale_daemon(spec)
    for payload in build_feed(spec, routes)[0]:
        hand.receive_raw(UPSTREAM, payload)
    inline = ShardedReplay(spec, routes, shards=1, backend="inline").run()
    forked = ShardedReplay(spec, routes, shards=2).run()
    assert forked.shards == 2

    snapshot = normalise_snapshot(hand.loc_rib_snapshot())
    assert len(snapshot) == len(routes)
    assert normalise_snapshot(harness.dut.loc_rib_snapshot()) == snapshot
    assert inline.snapshot == forked.snapshot == snapshot

    prefixes = {str(prefix) for prefix in hand_collector.prefixes}
    assert {str(prefix) for prefix in harness.collector.prefixes} == prefixes
    assert inline.prefixes == forked.prefixes == prefixes
    withdrawn = {str(prefix) for prefix in hand_collector.withdrawn}
    assert {str(prefix) for prefix in harness.collector.withdrawn} == withdrawn
    assert inline.withdrawn == forked.withdrawn == withdrawn

    stats = hand.vmm.stats()
    ran = sum(code["executions"] for code in stats.values())
    assert ran == 0 if arm == "native" else ran >= len(routes)
    assert harness.dut.vmm.stats() == stats
    # Workers ship no VMM, but their merged counters say the same thing
    # (instruction totals are left out: origin validation fills its
    # persistent map once per DUT, so they grow with the shard count).
    assert vmm_stats(hand.vmm.telemetry.registry) == stats
    assert vmm_stats(inline.merged_registry(shard_labels=False)) == stats
    assert vmm_stats(forked.merged_registry(shard_labels=False)) == stats


@pytest.mark.parametrize("implementation", ["frr", "bird"])
def test_merged_shard_counters_match_sequential(implementation):
    """Telemetry parity across the process boundary: the merged
    per-worker execution counters of a sharded replay equal the
    counters a sequential (one-shard) replay records — the
    observability plane is as partition-invariant as the routing
    state itself."""
    routes = RibGenerator(n_routes=200, seed=19).generate()
    kwargs = dict(
        feature="route_reflection", mode="extension", batch=16, telemetry=True
    )
    sequential = ShardedReplay(
        implementation, routes, backend="inline", shards=1, **kwargs
    ).run()
    sharded = ShardedReplay(
        implementation, routes, backend="process", shards=2, **kwargs
    ).run()
    assert sharded.shards == 2

    expected = execution_counters(sequential.merged_registry(shard_labels=False))
    merged = execution_counters(sharded.merged_registry(shard_labels=False))
    assert expected  # instrumentation engaged at all
    assert merged == expected


@pytest.mark.parametrize("implementation", ["frr", "bird"])
def test_process_backend_matches_inline(implementation):
    """The multiprocessing boundary (inherited payloads, pickled
    reports) changes nothing vs the same worker code running
    in-process."""
    routes = RibGenerator(n_routes=300, seed=11).generate()
    kwargs = dict(feature="plain", mode="native", shards=2, batch=32)
    inline = ShardedReplay(
        implementation, routes, backend="inline", **kwargs
    ).run()
    process = ShardedReplay(
        implementation, routes, backend="process", **kwargs
    ).run()
    assert process.snapshot == inline.snapshot
    assert process.prefixes == inline.prefixes
    assert process.shards == inline.shards == 2
    assert len(process.snapshot) == len(routes)
