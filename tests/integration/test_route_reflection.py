"""Integration: §3.2 — route reflection as extension code.

The headline equivalence: a host running the RR bytecode produces the
same reflected routes — ORIGINATOR_ID and CLUSTER_LIST included — as a
host running its native RFC 4456 implementation.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.constants import AttrTypeCode
from repro.bird import BirdDaemon
from repro.frr import FrrDaemon
from repro.plugins import route_reflector
from repro.sim import Network
from repro.sim.harness import ConvergenceHarness
from repro.workload import RibGenerator

PREFIX = Prefix.parse("198.51.100.0/24")


def build_rr(dut_cls, mode):
    """client A -> RR DUT -> client B, all iBGP."""
    network = Network()
    up = BirdDaemon(asn=65001, router_id="10.0.1.1")
    dut = dut_cls(asn=65001, router_id="10.0.0.1", route_reflector=mode)
    down = BirdDaemon(asn=65001, router_id="10.0.2.2")
    if mode == "extension":
        dut.attach_manifest(route_reflector.build_manifest())
    network.add_router("up", up)
    network.add_router("dut", dut)
    network.add_router("down", down)
    network.connect("up", "10.0.1.1", "dut", "10.0.0.1")
    network.connect("dut", "10.0.0.1", "down", "10.0.2.2")
    network.neighbor_config("dut", "10.0.1.1").rr_client = True
    network.neighbor_config("dut", "10.0.2.2").rr_client = True
    network.establish_all()
    return network, up, dut, down


@pytest.mark.parametrize("dut_cls", [FrrDaemon, BirdDaemon], ids=["frr", "bird"])
class TestEquivalence:
    def test_reflected_attributes_match_native(self, dut_cls):
        snapshots = {}
        for mode in ("native", "extension"):
            network, up, dut, down = build_rr(dut_cls, mode)
            up.originate(PREFIX)
            network.run()
            route = down.loc_rib.lookup(PREFIX)
            assert route is not None, f"{mode}: not reflected"
            snapshots[mode] = sorted(
                (a.type_code, a.value) for a in route.attribute_list()
            )
        assert snapshots["native"] == snapshots["extension"]

    def test_originator_id_is_client_router_id(self, dut_cls):
        network, up, dut, down = build_rr(dut_cls, "extension")
        up.originate(PREFIX)
        network.run()
        route = down.loc_rib.lookup(PREFIX)
        from repro.bgp.prefix import parse_ipv4

        assert route.attribute(AttrTypeCode.ORIGINATOR_ID).as_u32() == parse_ipv4(
            "10.0.1.1"
        )

    def test_cluster_list_prepended(self, dut_cls):
        network, up, dut, down = build_rr(dut_cls, "extension")
        up.originate(PREFIX)
        network.run()
        route = down.loc_rib.lookup(PREFIX)
        from repro.bgp.prefix import parse_ipv4

        assert route.attribute(AttrTypeCode.CLUSTER_LIST).as_cluster_list() == (
            parse_ipv4("10.0.0.1"),
        )

    def test_originator_loop_rejected_on_import(self, dut_cls):
        # A route whose ORIGINATOR_ID equals the DUT's router id came
        # from the DUT originally: the extension must drop it.
        from repro.bgp.attributes import (
            make_as_path,
            make_next_hop,
            make_origin,
            make_originator_id,
        )
        from repro.bgp.aspath import AsPath
        from repro.bgp.constants import Origin
        from repro.bgp.messages import UpdateMessage
        from repro.bgp.prefix import parse_ipv4

        network, up, dut, down = build_rr(dut_cls, "extension")
        update = UpdateMessage(
            attributes=[
                make_origin(Origin.IGP),
                make_as_path(AsPath()),
                make_next_hop(parse_ipv4("10.0.1.1")),
                make_originator_id(parse_ipv4("10.0.0.1")),  # the DUT itself
            ],
            nlri=[PREFIX],
        )
        dut.receive_message("10.0.1.1", update)
        assert dut.loc_rib.lookup(PREFIX) is None
        assert dut.stats["import_rejected"] == 1

    def test_cluster_loop_rejected_on_import(self, dut_cls):
        from repro.bgp.attributes import (
            make_as_path,
            make_cluster_list,
            make_next_hop,
            make_origin,
        )
        from repro.bgp.aspath import AsPath
        from repro.bgp.constants import Origin
        from repro.bgp.messages import UpdateMessage
        from repro.bgp.prefix import parse_ipv4

        network, up, dut, down = build_rr(dut_cls, "extension")
        update = UpdateMessage(
            attributes=[
                make_origin(Origin.IGP),
                make_as_path(AsPath()),
                make_next_hop(parse_ipv4("10.0.1.1")),
                make_cluster_list([parse_ipv4("10.0.0.1")]),  # our cluster
            ],
            nlri=[PREFIX],
        )
        dut.receive_message("10.0.1.1", update)
        assert dut.loc_rib.lookup(PREFIX) is None

    def test_nonclient_to_nonclient_not_reflected(self, dut_cls):
        network, up, dut, down = build_rr(dut_cls, "extension")
        network.neighbor_config("dut", "10.0.1.1").rr_client = False
        network.neighbor_config("dut", "10.0.2.2").rr_client = False
        up.originate(PREFIX)
        network.run()
        assert down.loc_rib.lookup(PREFIX) is None

    def test_client_route_reflected_to_nonclient(self, dut_cls):
        network, up, dut, down = build_rr(dut_cls, "extension")
        network.neighbor_config("dut", "10.0.2.2").rr_client = False
        up.originate(PREFIX)  # up is a client
        network.run()
        assert down.loc_rib.lookup(PREFIX) is not None


class TestAtScale:
    @pytest.mark.parametrize("implementation", ["frr", "bird"])
    def test_full_table_reflection_both_modes(self, implementation):
        routes = RibGenerator(n_routes=400, seed=11).generate()
        collected = {}
        for mode in ("native", "extension"):
            harness = ConvergenceHarness(implementation, "route_reflection", mode, routes)
            harness.run()
            collected[mode] = harness.collector.prefixes
            assert len(collected[mode]) == 400
        assert collected["native"] == collected["extension"]

    def test_extension_runs_are_counted(self):
        routes = RibGenerator(n_routes=50, seed=11).generate()
        harness = ConvergenceHarness("frr", "route_reflection", "extension", routes)
        harness.run()
        stats = harness.extension_stats()
        assert stats["rr_import"]["routes"] == 50
        assert stats["rr_import"]["errors"] == 0
        assert stats["rr_export"]["errors"] == 0
