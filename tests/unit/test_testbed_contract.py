"""The Fig. 3 testbed exists once: one run description, one builder,
one replay loop.

A new run knob is one :class:`repro.sim.testbed.RunSpec` field.  These
checks fail when an entry point grows a run keyword of its own again,
when a misspelt key is silently ignored, when building a DUT imports
code inside the timed build, or when the one replay loop ticks at a
different cadence than the loops it replaced.
"""

import inspect
import subprocess
import sys

import pytest

from repro.scale import ShardedReplay, build_scale_daemon, replay_feed
from repro.sim.harness import ConvergenceHarness
from repro.core.vmm import TIERS
from repro.sim.testbed import ENGINES, FEATURES, RunSpec, build_feed
from repro.telemetry import EventLog
from repro.workload import RibGenerator

FIELDS = set(RunSpec._fields)


def routes(count=40):
    return RibGenerator(n_routes=count, seed=23).generate()


def keywords(entry_point):
    """(named parameters, whether the rest is forwarded as **fields)."""
    parameters = inspect.signature(entry_point.__init__).parameters.values()
    named = {p.name for p in parameters if p.kind is not p.VAR_KEYWORD} - {"self"}
    return named, any(p.kind is p.VAR_KEYWORD for p in parameters)


class TestOneRunDescription:
    def test_harness_names_only_its_positionals_aliases_and_sinks(self):
        named, forwards = keywords(ConvergenceHarness)
        assert forwards
        positional = {"implementation", "feature", "mode", "routes", "roas"}
        # ``engine`` is the harness's name for the ``tier`` field;
        # ``telemetry`` / ``shard_telemetry`` both land in ``telemetry``.
        assert named - positional == {
            "engine", "telemetry", "shard_telemetry", "events", "progress",
        }
        assert positional - {"routes"} <= FIELDS

    def test_sharded_replay_names_only_backend_and_sinks(self):
        named, forwards = keywords(ShardedReplay)
        assert forwards
        assert named == {"implementation", "routes", "backend", "progress", "events"}

    def test_every_field_is_accepted_by_all_three(self):
        spec = RunSpec("frr")
        fields = spec._asdict()
        build_scale_daemon(fields)
        build_scale_daemon(spec)
        replay = ShardedReplay(routes=routes(), backend="inline", **fields)
        assert replay.spec == spec
        for name in ("implementation", "feature", "mode", "roas"):
            fields.pop(name)
        fields["engine"] = fields.pop("tier")
        harness = ConvergenceHarness("frr", "plain", "native", routes(), **fields)
        assert harness.spec == spec

    def test_entry_point_defaults_differ_only_where_stated(self):
        harness = ConvergenceHarness("frr", "plain", "native", routes())
        replay = ShardedReplay("frr", routes())
        differing = {
            name
            for name in FIELDS
            if getattr(harness.spec, name) != getattr(replay.spec, name)
        }
        assert differing == {"batch", "shards", "telemetry"}
        assert (harness.spec.batch, harness.spec.shards, harness.spec.telemetry) == (
            1, 1, True,
        )
        assert (replay.spec.batch, replay.spec.shards, replay.spec.telemetry) == (
            64, 2, False,
        )

    def test_harness_hands_its_description_to_the_shards(self):
        harness = ConvergenceHarness(
            "bird", "plain", "native", routes(), shards=2, batch=4, collect="summary"
        )
        harness.run()
        assert harness.shard_result.shards == 2
        assert [r["batches"] > 0 for r in harness.shard_result.per_shard] == [True] * 2
        assert harness.shard_result.snapshot is None  # collect="summary" arrived

    def test_misspelt_key_raises_everywhere(self):
        with pytest.raises(TypeError):
            build_scale_daemon({"implementation": "frr", "fature": "route_reflection"})
        with pytest.raises(TypeError):
            ShardedReplay("frr", routes(), quarantine_afer=3)
        with pytest.raises(TypeError):
            ConvergenceHarness("frr", "plain", "native", routes(), quarantine_afer=3)

    def test_deleted_parameters_stay_deleted(self):
        with pytest.raises(TypeError):
            ShardedReplay("frr", routes(), trace_tail=16)
        with pytest.raises(TypeError):
            ConvergenceHarness("frr", "plain", "native", routes(), quarantine=None)

    @pytest.mark.parametrize(
        "bad",
        [
            {"implementation": "quagga"},
            {"feature": "multicast"},
            {"mode": "hybrid"},
            {"tier": "fpga"},
            {"collect": "everything"},
            {"batch": 0},
            {"shards": 0},
        ],
    )
    def test_validation_is_the_descriptions(self, bad):
        with pytest.raises(ValueError):
            RunSpec(**{"implementation": "frr", **bad})

    def test_the_engines_are_the_vmm_tiers(self):
        """An extension arm runs bytecode on one of the VMM's tiers;
        there is no other kind of extension code to select."""
        assert ENGINES == TIERS == ("jit", "interp")
        with pytest.raises(ValueError):
            RunSpec("frr", tier="host")


#: Run in a fresh interpreter: what is in sys.modules is the point.
_IMPORT_PROBE = """
import sys
import repro.scale
from repro.scale import build_scale_daemon
before = set(sys.modules)
for implementation in ("frr", "bird"):
    for feature in {features!r}:
        for mode in ("native", "extension"):
            build_scale_daemon(
                {{"implementation": implementation, "feature": feature, "mode": mode}}
            )
    for feature in ("route_reflection", "origin_validation"):
        build_scale_daemon(
            {{"implementation": implementation, "feature": feature,
              "mode": "extension", "tier": "interp", "inject_crasher": True}}
        )
late = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
print(late)
"""


def test_building_a_dut_imports_nothing():
    """Everything a DUT build needs is loaded with ``repro.scale``, so a
    timed build (``setup_s``, a worker's ``build_seconds``) never pays
    for a first-call import."""
    probe = _IMPORT_PROBE.format(features=tuple(FEATURES))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": ":".join(p for p in sys.path if p)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestOneReplayLoop:
    """Tick cadence of :func:`replay_feed`; the expectations were
    captured from the per-caller loops it replaced (200 routes, seed 23,
    4 prefixes per UPDATE: 66 UPDATEs + End-of-RIB)."""

    PROGRESS = [28, 51, 71, 86, 110, 132, 147, 170, 191]
    SAMPLES = 7  # six mid-replay (every 10 of 67) + the final one

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("implementation", ["frr", "bird"])
    def test_worker_heartbeats_and_samples(self, implementation, batch):
        log = EventLog()
        result = ShardedReplay(
            implementation,
            routes(200),
            feature="route_reflection",
            mode="extension",
            shards=1,
            backend="inline",
            telemetry=True,
            batch=batch,
            max_prefixes_per_update=4,
            heartbeat_every=7,
            timeseries_every=10,
            events=log,
        ).run()
        assert result.per_shard[0]["updates"] == 66
        progress = [
            event["routes_done"]
            for event in log.events()
            if event["event"] == "shard_progress"
        ]
        assert progress == self.PROGRESS
        assert len(result.shard_timeseries[0]) == self.SAMPLES

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("implementation", ["frr", "bird"])
    def test_harness_samples(self, implementation, batch):
        harness = ConvergenceHarness(
            implementation,
            "route_reflection",
            "extension",
            routes(200),
            batch=batch,
            max_prefixes_per_update=4,
            timeseries_every=10,
        )
        harness.run()
        assert len(harness.feed) == 67
        assert len(harness.timeseries) == self.SAMPLES

    def test_ticked_and_bare_loops_agree(self):
        spec = RunSpec("frr", "route_reflection", "extension", batch=8)
        feed, routes_done = build_feed(spec, routes(200), progress=True)
        assert build_feed(spec, routes(200)) == (feed, None)
        assert routes_done[-1] == routes_done[-2] == 200  # End-of-RIB adds none
        bare, bare_collector = build_scale_daemon(spec)
        ticked, ticked_collector = build_scale_daemon(spec)
        seen = []
        assert replay_feed(bare, feed, spec.batch) == replay_feed(
            ticked, feed, spec.batch, tick=seen.append
        )
        assert seen == list(range(1, len(feed) + 1))
        assert ticked_collector.prefixes == bare_collector.prefixes
        assert ticked.vmm.stats() == bare.vmm.stats()
