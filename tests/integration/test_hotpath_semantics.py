"""Integration: the host's caches must be semantically invisible.

Replaying the same workload with ``hot_path=True`` and ``hot_path=False``
(host caches off: no peer-info memo, no packed-attribute, encode or
mechanics caches, eager attribute parsing downstream — nothing about
the VM, which has one memory model and one run path) must yield
byte-identical routing outcomes and the same per-extension execution
statistics on both daemons.
"""

import pytest

from repro.bgp.roa import make_roas_for_prefixes
from repro.sim.harness import ConvergenceHarness
from repro.workload import RibGenerator, origins_of


def _observe(implementation, feature, routes, roas, hot_path, engine="jit"):
    harness = ConvergenceHarness(
        implementation,
        feature,
        "extension",
        routes,
        roas,
        engine=engine,
        hot_path=hot_path,
    )
    harness.run()
    adj_out = {
        str(route.prefix) for route in harness.dut.loc_rib.routes()
    }
    return {
        "prefixes": set(harness.collector.prefixes),
        "withdrawn": set(harness.collector.withdrawn),
        "updates": harness.collector.updates,
        "loc_rib": adj_out,
        "stats": harness.extension_stats(),
        "fallbacks": harness.dut.vmm.fallbacks,
    }


class TestHotPathSemantics:
    @pytest.mark.parametrize("implementation", ["frr", "bird"])
    @pytest.mark.parametrize("feature", ["route_reflection", "origin_validation"])
    def test_hot_path_arms_identical(self, implementation, feature):
        routes = RibGenerator(n_routes=90, seed=47).generate()
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=47)
        fast = _observe(implementation, feature, routes, roas, hot_path=True)
        slow = _observe(implementation, feature, routes, roas, hot_path=False)
        assert fast == slow
        assert fast["fallbacks"] == 0

    @pytest.mark.parametrize("implementation", ["frr", "bird"])
    def test_hot_path_arms_identical_interp(self, implementation):
        routes = RibGenerator(n_routes=40, seed=48).generate()
        fast = _observe(
            implementation, "route_reflection", routes, None, True, engine="interp"
        )
        slow = _observe(
            implementation, "route_reflection", routes, None, False, engine="interp"
        )
        assert fast == slow
