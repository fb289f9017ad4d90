"""Integration: §3.4 — origin validation as extension code."""

import pytest

from repro.bgp.constants import RouteOriginValidity
from repro.bgp.roa import make_roas_for_prefixes
from repro.core.insertion_points import InsertionPoint
from repro.plugins import origin_validation
from repro.sim.harness import ConvergenceHarness
from repro.workload import RibGenerator, origins_of


def extension_counters(harness):
    chain = harness.dut.vmm._chains[InsertionPoint.BGP_INBOUND_FILTER]
    return origin_validation.read_validity_counters(chain[0].state)


@pytest.mark.parametrize("implementation", ["frr", "bird"])
class TestValidation:
    def test_extension_counters_match_native(self, implementation):
        routes = RibGenerator(n_routes=400, seed=21).generate()
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=21)

        native = ConvergenceHarness(implementation, "origin_validation", "native", routes, roas)
        native.run()
        native_counts = {
            RouteOriginValidity[name].name: count
            for name, count in native.dut.validity_counters.items()
        }

        extension = ConvergenceHarness(
            implementation, "origin_validation", "extension", routes, roas
        )
        extension.run()
        assert extension_counters(extension) == native_counts

    def test_roughly_75_percent_valid(self, implementation):
        routes = RibGenerator(n_routes=600, seed=22).generate()
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=22)
        harness = ConvergenceHarness(implementation, "origin_validation", "extension", routes, roas)
        harness.run()
        counters = extension_counters(harness)
        total = sum(counters.values())
        assert total == 600
        assert 0.70 < counters["VALID"] / total < 0.80

    def test_invalid_routes_not_discarded(self, implementation):
        # Paper: "checks the validity ... but does not discard".
        routes = RibGenerator(n_routes=200, seed=23).generate()
        roas = make_roas_for_prefixes(origins_of(routes), 0.5, seed=23)
        harness = ConvergenceHarness(implementation, "origin_validation", "extension", routes, roas)
        harness.run()
        assert len(harness.dut.loc_rib) == 200
        assert len(harness.collector) == 200

    def test_no_extension_errors(self, implementation):
        routes = RibGenerator(n_routes=150, seed=24).generate()
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=24)
        harness = ConvergenceHarness(implementation, "origin_validation", "extension", routes, roas)
        harness.run()
        stats = harness.extension_stats()
        assert stats["rov_import"]["errors"] == 0
        assert harness.dut.vmm.fallbacks == 0


class TestEngines:
    def test_interp_engine_agrees_with_jit(self):
        routes = RibGenerator(n_routes=120, seed=26).generate()
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=26)
        counters = {}
        for engine in ("interp", "jit"):
            harness = ConvergenceHarness(
                "frr", "origin_validation", "extension", routes, roas, engine=engine
            )
            harness.run()
            counters[engine] = extension_counters(harness)
        assert counters["interp"] == counters["jit"]
