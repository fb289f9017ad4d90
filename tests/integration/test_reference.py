"""Integration: the RFC 4271 reference, and the hosts against it.

:class:`repro.fuzz.reference.ReferenceDut` is the host oracle's judge,
so it stays independent of what it judges: it imports the codec only,
and nothing on the benchmark's path loads it.  The Fig. 3 harness must
leave each host's downstream wire, Adj-RIB-Out and Loc-RIB where the
reference leaves its own, for the route-reflection and
origin-validation extensions on both bytecode tiers.  An UPDATE that
the DUT's eBGP rewrite grows past the 4,096-byte ceiling is suppressed
for that peer by both hosts and by the reference alike.
"""

import ast
import inspect
import os
import subprocess
import sys

import pytest

from repro.bgp.aspath import AsPath
from repro.bgp.attributes import make_as_path, make_communities, make_next_hop, make_origin
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import Prefix, parse_ipv4
from repro.bgp.roa import make_roas_for_prefixes
from repro.fuzz import reference
from repro.fuzz.oracles import _REFERENCE_KEYS, _first_key_diff, _host_views, _reference_views
from repro.fuzz.reference import ReferenceDut
from repro.plugins import geoloc
from repro.scale import build_scale_daemon
from repro.sim.harness import ConvergenceHarness
from repro.workload import RibGenerator, origins_of

UPSTREAM = "10.0.1.2"
DOWNSTREAM = "10.0.2.2"
HOSTS = ["frr", "bird"]

#: What the reference may import: the codec, which has its own oracle.
CODEC = {
    "repro.bgp.messages",
    "repro.bgp.attributes",
    "repro.bgp.aspath",
    "repro.bgp.prefix",
    "repro.bgp.constants",
}


def test_the_reference_imports_the_codec_only():
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(reference))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            package = reference.__name__.split(".")[: -node.level]
            imported.add(".".join(package + [node.module]))
    assert {name for name in imported if name.startswith("repro")} <= CODEC
    assert {name for name in imported if not name.startswith("repro")} <= {
        "__future__", "struct", "typing",
    }


def test_the_testbed_and_the_scale_path_do_not_load_it():
    probe = "import sys, repro.scale, repro.sim.testbed; print('repro.fuzz' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"


def test_the_geoloc_model_uses_the_shipped_radius():
    radius = geoloc.build_manifest().constants["MAX_DIST_SQ"]
    assert reference._GEOLOC_RANGE_SQ == radius == geoloc.distance_threshold(5000.0)


def _judge(daemon, downstream_chunks, model):
    """The oracle's verdict on one Fig. 3 run: None when they agree.  The
    upstream hears nothing from either (split horizon)."""
    sent = {parse_ipv4(UPSTREAM): [], parse_ipv4(DOWNSTREAM): downstream_chunks}
    assert not model.sent[parse_ipv4(UPSTREAM)]
    return _first_key_diff(_host_views(daemon, sent), _reference_views(model), _REFERENCE_KEYS)


def _tap(daemon):
    """Record what the DUT sends downstream (it is still delivered)."""
    chunks = []
    address = parse_ipv4(DOWNSTREAM)
    deliver = daemon._send_fns[address]

    def send(data):
        chunks.append(data)
        deliver(data)

    daemon._send_fns[address] = send
    return chunks


@pytest.mark.parametrize("engine", ["jit", "interp"])
@pytest.mark.parametrize("feature", ["route_reflection", "origin_validation"])
@pytest.mark.parametrize("implementation", HOSTS)
def test_the_harness_run_equals_the_reference(implementation, feature, engine):
    routes = RibGenerator(n_routes=90, seed=47).generate()
    roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=47)
    harness = ConvergenceHarness(implementation, feature, "extension", routes, roas, engine=engine)
    chunks = _tap(harness.dut)
    harness.run()

    reflecting = feature == "route_reflection"
    model = ReferenceDut("route_reflector" if reflecting else "origin_validation", roas=roas)
    model.add_peer(UPSTREAM, 65001 if reflecting else 65100, rr_client=reflecting)
    model.add_peer(DOWNSTREAM, 65001 if reflecting else 65200, rr_client=reflecting)
    for frame in harness.feed:
        model.receive(UPSTREAM, frame)

    assert _judge(harness.dut, chunks, model) is None
    assert len(model.adj_rib_out[parse_ipv4(DOWNSTREAM)]) == len(routes)
    assert all(row["executions"] > 0 for row in harness.extension_stats().values())


@pytest.mark.parametrize("implementation", HOSTS)
def test_an_export_grown_past_the_message_ceiling_is_suppressed(implementation):
    """A 4,095-byte eBGP UPDATE (one /24, ~4 KB of COMMUNITIES) becomes
    4,099 bytes once the DUT prepends its AS: it is not sent, the
    earlier advertisement of the prefix is withdrawn, and the rest of
    the flush is unharmed."""
    prefix, other = Prefix.parse("198.51.100.0/24"), Prefix.parse("203.0.113.0/24")

    def update(nlri, *communities):
        attributes = [
            make_origin(Origin.IGP),
            make_as_path(AsPath.from_sequence([65100, 65110])),
            make_next_hop(parse_ipv4(UPSTREAM)),
        ]
        if communities:
            attributes.append(make_communities(communities))
        return UpdateMessage(attributes=attributes, nlri=nlri).encode()

    grown = update([prefix], *range(1, 1011))
    assert len(grown) == 4095
    daemon, collector = build_scale_daemon(
        {"implementation": implementation, "feature": "plain", "mode": "native"}
    )
    chunks = _tap(daemon)
    model = ReferenceDut()
    model.add_peer(UPSTREAM, 65100)
    model.add_peer(DOWNSTREAM, 65200)
    for frame in (update([prefix, other]), grown):
        daemon.receive_raw(UPSTREAM, frame)
        model.receive(UPSTREAM, frame)

    assert daemon.stats["export_oversize"] == model.oversize == 1
    assert prefix in daemon.loc_rib and prefix not in collector.prefixes
    assert collector.prefixes == {other} and collector.withdrawn == {prefix}
    assert parse_ipv4(DOWNSTREAM) not in daemon.adj_rib_out._tables or (
        prefix not in daemon.adj_rib_out._tables[parse_ipv4(DOWNSTREAM)]
    )
    assert _judge(daemon, chunks, model) is None
