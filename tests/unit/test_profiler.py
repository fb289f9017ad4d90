"""Unit tests for the profiling subsystem (repro.telemetry.profiler).

Three invariants carry the subsystem:

* engine agreement — the interpreter's exact PC counters and the JIT's
  block counters describe the same execution: identical block-level
  profiles and identical instruction totals for every paper plugin;
* toggle parity — enable/disable_profiling binds the profiler's watch
  into the VMM's steps and back out, exactly like the provenance
  toggle: nothing is recorded while off, and a toggled daemon replays
  like one that never was;
* accounting closure — profiled instruction sums equal the VMM's
  existing telemetry counters (no separate, subtly different count).
"""

import json
import re

import pytest

from repro.bgp import Prefix
from repro.bgp.aspath import AsPath
from repro.bgp.attributes import (
    make_as_path,
    make_geoloc,
    make_next_hop,
    make_origin,
)
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import parse_ipv4
from repro.bgp.roa import Roa
from repro.core.vmm import VmmConfig
from repro.eval import bench
from repro.frr import FrrDaemon
from repro.plugins import (
    closest_exit,
    geoloc,
    origin_validation,
    route_reflector,
    valley_free,
)
from repro.sim.harness import ConvergenceHarness
from repro.telemetry import PHASES, Profiler
from repro.workload import RibGenerator

PREFIX = Prefix.parse("203.0.113.0/24")
BRUSSELS = (50.85, 4.35)
PARIS = (48.85, 2.35)
SYDNEY = (-33.86, 151.21)


def _update(asn, next_hop, coord=None, path=None):
    attrs = [
        make_origin(Origin.IGP),
        make_as_path(AsPath.from_sequence(path if path is not None else (asn,))),
        make_next_hop(parse_ipv4(next_hop)),
    ]
    if coord is not None:
        attrs.append(make_geoloc(*coord))
    return UpdateMessage(attributes=attrs, nlri=[PREFIX])


def _daemon(engine, manifest, neighbors, xtra=None):
    daemon = FrrDaemon(
        asn=65001,
        router_id="1.1.1.1",
        vmm_config=VmmConfig(tier=engine),
        xtra=xtra or {},
        profiling=True,
    )
    daemon.attach_manifest(manifest)
    for address, asn, rr_client in neighbors:
        daemon.add_neighbor(address, asn, lambda data: None, rr_client=rr_client)
        daemon._established[parse_ipv4(address)] = True
    return daemon


def scenario_route_reflector(engine):
    daemon = _daemon(
        engine,
        route_reflector.build_manifest(),
        [("10.0.0.8", 65001, True), ("10.0.0.9", 65001, False)],
    )
    daemon.receive_message("10.0.0.8", _update(65001, "10.0.0.8", path=()))
    return daemon


def scenario_origin_validation(engine):
    daemon = _daemon(
        engine,
        origin_validation.build_manifest([Roa(PREFIX, 65100)]),
        [("10.0.0.8", 65100, False)],
    )
    daemon.receive_message("10.0.0.8", _update(65100, "10.0.0.8"))
    return daemon


def scenario_geoloc(engine):
    daemon = _daemon(
        engine,
        geoloc.build_manifest(),
        [("10.0.0.8", 65100, False), ("10.0.0.9", 65001, False)],
        xtra={"coord": geoloc.coord_bytes(*BRUSSELS)},
    )
    daemon.receive_message("10.0.0.8", _update(65100, "10.0.0.8"))
    return daemon


def scenario_valley_free(engine):
    daemon = _daemon(
        engine,
        valley_free.build_manifest([(65100, 65200)], [65001, 65100, 65200]),
        [("10.0.0.8", 65100, False)],
    )
    daemon.receive_message(
        "10.0.0.8", _update(65100, "10.0.0.8", path=(65100, 65200))
    )
    return daemon


def scenario_closest_exit(engine):
    daemon = _daemon(
        engine,
        closest_exit.build_manifest(),
        [("10.0.0.8", 65100, False), ("10.0.0.9", 65200, False)],
        xtra={"coord": geoloc.coord_bytes(*BRUSSELS)},
    )
    # Two candidates for one prefix so BGP_DECISION actually runs;
    # the shorter path points away from Brussels.
    daemon.receive_message("10.0.0.8", _update(65100, "10.0.0.8", coord=SYDNEY))
    daemon.receive_message(
        "10.0.0.9", _update(65200, "10.0.0.9", coord=PARIS, path=(65200, 65300))
    )
    return daemon


SCENARIOS = {
    "route_reflector": scenario_route_reflector,
    "origin_validation": scenario_origin_validation,
    "geoloc": scenario_geoloc,
    "valley_free": scenario_valley_free,
    "closest_exit": scenario_closest_exit,
}


class TestEngineAgreement:
    """Interp PC counters and JIT block counters tell one story."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_block_profiles_agree(self, name):
        interp = SCENARIOS[name]("interp").profiler
        jit = SCENARIOS[name]("jit").profiler
        by_key_interp = {(p.point, p.extension): p for p in interp.profiles()}
        by_key_jit = {(p.point, p.extension): p for p in jit.profiles()}
        assert by_key_interp, f"{name}: no extension executed"
        assert by_key_interp.keys() == by_key_jit.keys()
        for key in by_key_interp:
            profile_i, profile_j = by_key_interp[key], by_key_jit[key]
            assert profile_i.engine == "interp"
            assert profile_j.engine == "jit"
            assert profile_i.runs == profile_j.runs > 0
            assert profile_i.block_profile() == profile_j.block_profile()
            assert profile_i.instructions() == profile_j.instructions() > 0

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_memory_watermarks_agree(self, name):
        interp = SCENARIOS[name]("interp").profiler
        jit = SCENARIOS[name]("jit").profiler
        for profile_i, profile_j in zip(interp.profiles(), jit.profiles()):
            assert profile_i.heap_hwm == profile_j.heap_hwm
            assert profile_i.stack_hwm == profile_j.stack_hwm


class TestDaemonProfilingToggle:
    """enable/disable_profiling binds the profiler into every step and
    back out — structural parity with the provenance toggle."""

    def make_daemon(self, **kwargs):
        daemon = FrrDaemon(asn=65001, router_id="1.1.1.1", **kwargs)
        daemon.attach_manifest(route_reflector.build_manifest())
        return daemon

    @staticmethod
    def replay(daemon):
        """One reflected route; returns the VMM's stats and trace."""
        daemon.add_neighbor("10.0.0.8", 65001, lambda data: None, rr_client=True)
        daemon._established[parse_ipv4("10.0.0.8")] = True
        daemon.receive_message("10.0.0.8", _update(65001, "10.0.0.8", path=()))
        trace = [
            {k: v for k, v in event.items() if k != "ts"}
            for event in daemon.vmm.telemetry.trace.events()
        ]
        return daemon.vmm.stats(), trace

    def test_fast_path_active_without_profiling(self):
        daemon = self.make_daemon()
        assert daemon.profiler is None and daemon.vmm.profiler is None
        stats, _ = self.replay(daemon)
        assert sum(row["executions"] for row in stats.values()) > 0
        for chain in daemon.vmm._chains.values():
            for item in chain:
                assert item.profile is None and item.vm.profile is None

    def test_enable_drops_fast_path_and_wires_hooks(self):
        daemon = self.make_daemon()
        profiler = daemon.enable_profiling()
        assert daemon.profiler is profiler
        assert daemon.vmm.profiler is profiler
        for chain in daemon.vmm._chains.values():
            for item in chain:
                if item.vm is not None:
                    assert item.vm.profile is not None
                assert item.profile is not None
        stats, _ = self.replay(daemon)
        ran = {name: row["executions"] for name, row in stats.items() if row["executions"]}
        assert ran and ran == {
            p.extension: p.runs for p in profiler.profiles() if p.runs
        }

    def test_disable_restores_fast_path(self):
        daemon = self.make_daemon()
        profiler = daemon.enable_profiling()
        daemon.disable_profiling()
        assert daemon.profiler is None
        assert daemon.vmm.profiler is None
        for chain in daemon.vmm._chains.values():
            for item in chain:
                if item.vm is not None:
                    assert item.vm.profile is None
                assert item.profile is None
        # Off records nothing, and replays like a never-toggled daemon.
        assert self.replay(daemon) == self.replay(self.make_daemon())
        assert all(p.runs == 0 and p.instructions() == 0 for p in profiler.profiles())
        assert not profiler.phases

    def test_constructor_flag_enables_profiling(self):
        daemon = self.make_daemon(profiling=True)
        assert daemon.profiler is not None
        assert daemon.profiler.implementation == "frr"
        assert daemon.vmm.profiler is daemon.profiler

    def test_enable_accepts_custom_profiler(self):
        daemon = self.make_daemon()
        custom = Profiler(router="1.1.1.1", implementation="frr")
        installed = daemon.enable_profiling(custom)
        assert installed is custom
        assert daemon.vmm.profiler is custom

    def test_round_trip_runs_identically(self):
        """A run after disable produces the same RIB as never enabling."""
        toggled = self.make_daemon()
        toggled.enable_profiling()
        toggled.disable_profiling()
        plain = self.make_daemon()
        for daemon in (toggled, plain):
            daemon.add_neighbor("10.0.0.8", 65001, lambda data: None, rr_client=True)
            daemon._established[parse_ipv4("10.0.0.8")] = True
            daemon.receive_message("10.0.0.8", _update(65001, "10.0.0.8", path=()))
        assert toggled.loc_rib.lookup(PREFIX) is not None
        assert plain.loc_rib.lookup(PREFIX) is not None
        assert toggled.vmm.stats() == plain.vmm.stats()


class TestAccountingClosure:
    """Profiled sums must equal the VMM's own telemetry counters."""

    @pytest.mark.parametrize("engine", ["interp", "jit"])
    def test_instruction_sums_match_telemetry(self, engine):
        routes = RibGenerator(n_routes=30, seed=20200604).generate()
        harness = ConvergenceHarness(
            "frr",
            "route_reflection",
            "extension",
            routes,
            engine=engine,
            profiling=True,
        )
        harness.run()
        snapshot = harness.telemetry_snapshot()
        series = (
            snapshot["metrics"]
            .get("xbgp_extension_instructions", {})
            .get("series", [])
        )
        counted = {
            (s["labels"]["point"], s["labels"]["extension"]): s["value"]
            for s in series
        }
        profiles = list(harness.dut.profiler.profiles())
        assert profiles
        for profile in profiles:
            assert (
                profile.instructions()
                == counted[(profile.point, profile.extension)]
            )

    def test_phase_breakdown_covers_update_path(self):
        routes = RibGenerator(n_routes=30, seed=20200604).generate()
        harness = ConvergenceHarness(
            "frr", "route_reflection", "extension", routes, profiling=True
        )
        harness.run()
        report = harness.profile_report()
        recorded = set(report["phases"])
        assert recorded <= set(PHASES)
        assert {
            "decode",
            "bgp_inbound_filter",
            "bgp_decision",
            "bgp_outbound_filter",
            "bgp_encode_message",
        } <= recorded
        for entry in report["phases"].values():
            assert entry["count"] > 0
            assert entry["seconds"] >= 0.0


class TestCollapsedStacks:
    """Export must be loadable by speedscope / flamegraph.pl: every
    line is `frame;frame;... <integer>`."""

    LINE = re.compile(r"^[^; ]+(;[^; ]+)+ \d+$")

    def _profiler(self):
        return scenario_route_reflector("jit").profiler

    def test_instruction_weights_format(self):
        profiler = self._profiler()
        lines = profiler.collapsed(weights="instructions")
        assert lines
        for line in lines:
            assert self.LINE.match(line), line
        # Leaf frames are pc blocks; weights sum to total instructions.
        total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total == sum(p.instructions() for p in profiler.profiles())

    def test_time_weights_format(self):
        profiler = self._profiler()
        lines = profiler.collapsed(weights="time")
        assert lines
        for line in lines:
            assert self.LINE.match(line), line

    def test_export_writes_file(self, tmp_path):
        profiler = self._profiler()
        path = tmp_path / "collapsed.txt"
        count = profiler.export_collapsed(str(path), weights="instructions")
        assert count == len(path.read_text().splitlines()) > 0


class TestBenchRecords:
    """BENCH_*.json schema, round-trip and the regression gate."""

    def _record(self, scenario="route-reflection-frr-jit", median=0.1):
        return bench.make_record(
            scenario,
            [median, median, median * 1.2, median * 0.9, median],
            400,
            instructions=12345,
            timestamp="2026-08-06T00:00:00+00:00",
            sha="deadbeef",
        )

    def test_make_record_statistics(self):
        record = self._record()
        assert record["schema_version"] == bench.SCHEMA_VERSION
        assert record["runs"] == 5
        assert record["median_wall_seconds"] == pytest.approx(0.1)
        assert record["p95_wall_seconds"] == pytest.approx(0.12)
        assert record["routes_per_second"] == pytest.approx(4000.0)
        assert record["instructions"] == 12345
        assert record["git_sha"] == "deadbeef"

    def test_write_load_round_trip(self, tmp_path):
        record = self._record()
        path = bench.write_record(record, str(tmp_path))
        assert path.endswith("BENCH_route-reflection-frr-jit.json")
        assert bench.load_record(path) == record

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema_version": 999, "scenario": "x"}))
        with pytest.raises(ValueError):
            bench.load_record(str(path))

    def test_compare_within_noise_passes(self):
        baseline = self._record(median=0.1)
        current = self._record(median=0.11)
        result = bench.compare(current, baseline)
        assert not result["regression"]
        assert "ok" in bench.render_compare(result)

    def test_compare_flags_synthetic_2x_slowdown(self):
        baseline = self._record(median=0.1)
        current = self._record(median=0.2)
        result = bench.compare(current, baseline)
        assert result["regression"]
        assert result["ratio"] == pytest.approx(2.0)
        assert "REGRESSION" in bench.render_compare(result)

    def test_compare_threshold_is_honored(self):
        baseline = self._record(median=0.1)
        current = self._record(median=0.2)
        assert not bench.compare(current, baseline, threshold=1.5)["regression"]

    def test_compare_rejects_scenario_mismatch(self):
        with pytest.raises(ValueError):
            bench.compare(self._record("a"), self._record("b"))
