"""Unit tests for the Fig. 4 experiment driver itself."""

import pytest

from repro.bgp.roa import make_roas_for_prefixes
from repro.eval import fig4
from repro.workload import RibGenerator, origins_of


@pytest.fixture(scope="module")
def tiny_routes():
    return RibGenerator(n_routes=60, seed=55).generate()


class TestRunCell:
    def test_produces_paired_samples(self, tiny_routes):
        result = fig4.run_cell(
            "bird", "route_reflection", tiny_routes, None, runs=2, engine="jit"
        )
        assert len(result.native_seconds) == 2
        assert len(result.extension_seconds) == 2
        assert all(value > 0 for value in result.native_seconds)

    def test_impacts_are_percentages(self, tiny_routes):
        result = fig4.run_cell(
            "bird", "route_reflection", tiny_routes, None, runs=2, engine="jit"
        )
        stats = result.stats()
        assert set(stats) == {"min", "p25", "median", "p75", "max"}
        assert stats["min"] <= stats["median"] <= stats["max"]

    def test_origin_validation_cell(self, tiny_routes):
        roas = make_roas_for_prefixes(origins_of(tiny_routes), 0.75, seed=55)
        result = fig4.run_cell(
            "frr", "origin_validation", tiny_routes, roas, runs=1, engine="jit"
        )
        assert result.engine == "jit"
        assert len(result.extension_seconds) == 1

    @pytest.mark.parametrize("feature", ["route_reflection", "origin_validation"])
    def test_both_arms_run_without_telemetry(self, tiny_routes, feature, monkeypatch):
        """The VMM's watchers exist on the extension arm only: a cell
        that left them on would time the telemetry plane, not the
        extension.  Only the untimed run that measures the VM's busy
        time, built after every timed one, has them on."""
        built = []

        class Recording(fig4.ConvergenceHarness):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.spec.mode, self.dut.vmm.telemetry))

        monkeypatch.setattr(fig4, "ConvergenceHarness", Recording)
        roas = make_roas_for_prefixes(origins_of(tiny_routes), 0.75, seed=55)
        fig4.run_cell("bird", feature, tiny_routes, roas, runs=1, engine="jit")
        timed, (measured,) = built[:4], built[4:]
        assert sorted(mode for mode, _ in timed) == ["extension"] * 2 + ["native"] * 2
        assert [telemetry for _, telemetry in timed] == [None] * 4
        assert measured[0] == "extension" and measured[1] is not None

    def test_render_includes_every_cell(self, tiny_routes):
        results = [
            fig4.run_cell("bird", "route_reflection", tiny_routes, None, 1, "jit"),
            fig4.run_cell("frr", "route_reflection", tiny_routes, None, 1, "jit"),
        ]
        text = fig4.render_table(results, 60, 1)
        assert text.count("route_reflection") == 4  # a jit and a vm-free row each
        assert text.count(" vm-free ") == 2
        assert "bird" in text and "frr" in text

    @pytest.mark.parametrize("feature", ["route_reflection", "origin_validation"])
    def test_the_vm_free_row_is_never_above_the_jit_row(self, tiny_routes, feature):
        """The VM-free row takes the VM's measured busy time out of each
        extension run: it exists, the VM did work, and no run of it is
        slower than the same run as timed."""
        roas = make_roas_for_prefixes(origins_of(tiny_routes), 0.75, seed=55)
        result = fig4.run_cell("frr", feature, tiny_routes, roas, runs=2, engine="jit")
        assert result.vm_busy > 0
        free, timed = result.vm_free_impacts_percent, result.impacts_percent
        assert len(free) == len(timed) == 2
        assert all(low < high for low, high in zip(free, timed))
        assert result.vm_free_stats()["median"] < result.stats()["median"]


class TestBoxplotEdgeCases:
    def test_single_sample(self):
        stats = fig4.boxplot_stats([5.0])
        assert stats["min"] == stats["median"] == stats["max"] == 5.0

    def test_interpolated_quartiles(self):
        stats = fig4.boxplot_stats([0.0, 10.0])
        assert stats["p25"] == 2.5
        assert stats["p75"] == 7.5
