"""The block memo: a block-pure filter chain runs once per attribute
block, and nothing a route's outcome depends on is lost on the way.

Each test drives a DUT by hand on both hosts with UPDATEs whose NLRI
share one attribute block:

- origin validation reads the prefix, so its code must still count
  every prefix of a shared block on its own;
- the export memo key holds the route's source and the target: two
  iBGP upstreams, one client and one non-client, send byte-identical
  blocks, and the verdicts must follow each route's source;
- the circuit breaker must count errors, skips and probation per route
  exactly as it would without the memo.
"""

from collections import Counter

import pytest

from repro.bgp.attributes import make_as_path, make_med, make_next_hop, make_origin
from repro.bgp.aspath import AsPath
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import Prefix, parse_ipv4
from repro.bgp.roa import HashRoaTable, Roa
from repro.core.insertion_points import InsertionPoint
from repro.core.manifest import Manifest
from repro.plugins import origin_validation
from repro.sim.testbed import DOWNSTREAM, UPSTREAM, RunSpec, build_dut, build_feed, build_scale_daemon
from repro.telemetry import QuarantinePolicy
from repro.workload import RibGenerator

HOSTS = ["frr", "bird"]


def block(origin_asn, next_hop=UPSTREAM, path=(65100,)):
    return [
        make_origin(Origin.IGP),
        make_as_path(AsPath.from_sequence(list(path) + [origin_asn])),
        make_next_hop(parse_ipv4(next_hop)),
    ]


@pytest.mark.parametrize("tier", ["jit", "interp"])
@pytest.mark.parametrize("implementation", HOSTS)
def test_origin_validation_counts_each_prefix_of_a_shared_block(implementation, tier):
    valid, invalid, unknown, too_long = (
        Prefix.parse(text)
        for text in ("10.1.0.0/16", "10.2.0.0/16", "192.0.2.0/24", "10.1.7.0/24")
    )
    roas = [Roa(Prefix.parse("10.1.0.0/16"), 64500, 16), Roa(Prefix.parse("10.2.0.0/16"), 64999)]
    daemon, _ = build_scale_daemon(
        RunSpec(implementation, "origin_validation", "extension", roas=roas, tier=tier)
    )
    nlri = [valid, invalid, unknown, too_long]
    daemon.receive_raw(UPSTREAM, UpdateMessage(attributes=block(64500), nlri=nlri).encode())

    table = HashRoaTable()
    table.extend(roas)
    truth = Counter(table.validate(prefix, 64500).name for prefix in nlri)
    assert truth == {"VALID": 1, "INVALID": 2, "NOT_FOUND": 1}
    (item,) = daemon.vmm._chains[InsertionPoint.BGP_INBOUND_FILTER]
    assert origin_validation.read_validity_counters(item.state) == truth
    assert daemon.vmm.stats()["rov_import"]["executions"] == len(nlri)


CLIENT, NON_CLIENT = UPSTREAM, "10.0.3.2"


@pytest.mark.parametrize("mode", ["extension", "native"])
@pytest.mark.parametrize("implementation", HOSTS)
def test_export_verdicts_follow_the_source_of_a_shared_block(implementation, mode):
    """The extension arm keys its outcome by (block, source, target),
    the native arm its RFC 4456 stamp by (block, source)."""
    daemon = build_dut(RunSpec(implementation, "route_reflection", mode))
    for address, rr_client in ((CLIENT, True), (NON_CLIENT, False), (DOWNSTREAM, False)):
        neighbor = daemon.add_neighbor(address, 65001, lambda data: None, rr_client=rr_client)
        daemon._established[neighbor.peer_address] = True
        neighbor.established = True
    attributes = block(64500, next_hop="10.9.9.9", path=())
    contested, kept, moved = (
        Prefix.parse(text) for text in ("10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16")
    )
    daemon.receive_raw(CLIENT, UpdateMessage(attributes=attributes, nlri=[contested, kept]).encode())
    # Byte-identical block from the non-client; the client's copy stays
    # best (lower router id) ...
    daemon.receive_raw(NON_CLIENT, UpdateMessage(attributes=attributes, nlri=[contested]).encode())
    # ... until the client withdraws it and, in the same UPDATE and so
    # the same sweep, announces another prefix with the same block.
    daemon.receive_raw(
        CLIENT, UpdateMessage([contested], attributes, [moved]).encode()
    )
    assert daemon.loc_rib.lookup(contested).source.peer_address == parse_ipv4(NON_CLIENT)

    def advertised(address):
        table = daemon.adj_rib_out._tables.get(parse_ipv4(address), {})
        return {prefix: route.originator_id() for prefix, route in table.items()}

    # RFC 4456 §6: a client's routes go to everyone, a non-client's to
    # clients only; ORIGINATOR_ID names the route's own source.
    assert advertised(DOWNSTREAM) == {kept: parse_ipv4(CLIENT), moved: parse_ipv4(CLIENT)}
    assert advertised(NON_CLIENT) == {kept: parse_ipv4(CLIENT), moved: parse_ipv4(CLIENT)}
    assert advertised(CLIENT) == {contested: parse_ipv4(NON_CLIENT)}
    if mode == "native":
        return
    stats = daemon.vmm.stats()["rr_export"]
    # The first sweep's four exports share two runs, one per target;
    # the third sweep's four are four distinct (block, source, target)
    # keys.  The second changes no best path and exports nothing.
    assert (stats["routes"], stats["executions"]) == (8, 6)


@pytest.mark.parametrize("implementation", HOSTS)
def test_breaker_counts_per_route_behind_a_block_pure_code(implementation):
    threshold, probation_after = 3, 4
    spec = RunSpec(
        implementation,
        "route_reflection",
        "extension",
        quarantine_after=threshold,
        inject_crasher=True,
        max_prefixes_per_update=8,
    )
    daemon, collector = build_scale_daemon(spec)
    daemon.vmm.breaker.policy = QuarantinePolicy(threshold, probation_after, 2)
    routes = RibGenerator(n_routes=90, seed=5).generate()
    feed = build_feed(spec, routes)[0]
    assert any(len(UpdateMessage.decode_body(payload[19:]).nlri) > 1 for payload in feed)
    health = daemon.vmm.breaker.state_for("bgp_inbound_filter", "crash")
    seen = 0
    for payload in feed:
        daemon.receive_raw(UPSTREAM, payload)
        seen += len(UpdateMessage.decode_body(payload[19:]).nlri)
        # rr_import (seq 0) delegates every route to the crasher (seq
        # 99): it runs on the first `threshold` routes, then on every
        # `probation_after`-th skipped one, and faults each time.
        past = max(0, seen - threshold)
        runs = min(seen, threshold) + past // probation_after
        stats = daemon.vmm.stats()
        assert stats["crash"]["executions"] == stats["crash"]["errors"] == runs
        assert stats["rr_import"]["executions"] == stats["rr_import"]["routes"] == seen
        assert health.state == ("open" if seen >= threshold else "closed")
        assert health.skipped == (past % probation_after if seen >= threshold else 0)
        assert health.quarantine_count == (1 + past // probation_after if seen >= threshold else 0)
    assert seen == len(routes) and len(collector.prefixes) == len(routes)


#: Faults on routes carrying a MED, delegates on the others: block-pure,
#: and its faults depend on the block.
FLAKY = """
u64 flaky(u64 args) {
    if (get_attr(ATTR_MED) != 0) { return *(u64 *)(0); }
    next();
}
"""


@pytest.mark.parametrize("implementation", HOSTS)
def test_a_clean_run_between_faults_resets_the_breaker_per_route(implementation):
    """Clean, faulting, clean, faulting in one vector: every clean route
    resets the error streak, as a run would, so a threshold of two is
    never reached.  A memo hit must not stand in for the third route's
    run while an error is pending."""
    spec = RunSpec(implementation, "plain", "native", quarantine_after=2)
    daemon, _ = build_scale_daemon(spec)
    daemon.attach_manifest(
        Manifest(
            "flaky",
            [{"name": "flaky", "insertion_point": "BGP_INBOUND_FILTER",
              "helpers": ["next", "get_attr"], "source": FLAKY}],
        )
    )
    clean, faulting = block(64500), block(64500) + [make_med(5)]
    updates = [
        UpdateMessage(attributes=attributes, nlri=[Prefix.parse(f"10.{index}.0.0/16")])
        for index, attributes in enumerate((clean, faulting, clean, faulting))
    ]
    daemon.process_update_batch(daemon.neighbors[parse_ipv4(UPSTREAM)], updates)
    assert daemon.vmm.quarantined_codes() == []
    stats = daemon.vmm.stats()["flaky"]
    assert (stats["executions"], stats["routes"], stats["errors"]) == (4, 4, 2)


@pytest.mark.parametrize("implementation", HOSTS)
def test_native_reflection_stamps_once_per_block_and_source(implementation, monkeypatch):
    daemon, _ = build_scale_daemon(RunSpec(implementation, "route_reflection", "native"))
    stamped = []
    stamp = type(daemon)._stamp_reflection
    monkeypatch.setattr(
        type(daemon), "_stamp_reflection", lambda self, route: stamped.append(route) or stamp(self, route)
    )
    nlri = [Prefix.parse(f"10.{index}.0.0/16") for index in range(5)]
    attributes = block(64500, path=())
    daemon.receive_raw(UPSTREAM, UpdateMessage(attributes=attributes, nlri=nlri).encode())
    assert len(stamped) == 1
    assert len(daemon.adj_rib_out._tables[parse_ipv4(DOWNSTREAM)]) == len(nlri)


@pytest.mark.parametrize("implementation", HOSTS)
def test_a_code_that_decided_is_the_last_one_credited(implementation):
    """A hit credits only the codes its run reached: the first code
    returns a verdict, so the second never runs, memo or not."""
    spec = RunSpec(implementation, "plain", "native")
    daemon, _ = build_scale_daemon(spec)
    codes = [
        {"name": name, "insertion_point": "BGP_INBOUND_FILTER", "seq": seq,
         "helpers": ["next"], "source": source}
        for seq, (name, source) in enumerate((
            ("decides", "u64 f(u64 a) { return FILTER_ACCEPT; }"),
            ("never", "u64 f(u64 a) { next(); }"),
        ))
    ]
    daemon.attach_manifest(Manifest("two", codes))
    nlri = [Prefix.parse(f"10.{index}.0.0/16") for index in range(3)]
    daemon.receive_raw(UPSTREAM, UpdateMessage(attributes=block(64500), nlri=nlri).encode())
    stats = daemon.vmm.stats()
    assert (stats["decides"]["executions"], stats["decides"]["routes"]) == (1, 3)
    assert (stats["never"]["executions"], stats["never"]["routes"]) == (0, 0)


@pytest.mark.parametrize("implementation", HOSTS)
def test_provenance_explains_every_route_so_each_runs(implementation):
    spec = RunSpec(implementation, "route_reflection", "extension", provenance=True)
    daemon, _ = build_scale_daemon(spec)
    nlri = [Prefix.parse(f"10.{index}.0.0/16") for index in range(3)]
    daemon.receive_raw(UPSTREAM, UpdateMessage(attributes=block(64500, path=()), nlri=nlri).encode())
    stats = daemon.vmm.stats()["rr_import"]
    assert stats["executions"] == stats["routes"] == len(nlri)
