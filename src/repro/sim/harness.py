"""Experiment harnesses.

:class:`ConvergenceHarness` reproduces the Fig. 3 testbed: an upstream
router feeds a full BGP table to the Device Under Test, which processes
it and re-advertises to a downstream router.  The measurement is the
wall-clock delay between the announcement of the first prefix and the
reception of the last prefix downstream (§3.2) — compared between the
DUT's native feature and the xBGP extension implementing the same
feature.

The upstream feed is replayed from pre-encoded UPDATE bytes and the
downstream side is a lightweight collector, so both ends cost the same
in every arm and the native-vs-extension difference observed is the
DUT's.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..bgp.prefix import Prefix
from ..bgp.roa import Roa
from ..bird.daemon import BirdDaemon
from ..scale import ShardedReplay, replay_feed
from ..telemetry import (
    Telemetry,
    TimeSeriesSampler,
    emit_convergence_events,
    merge_into,
)
from ..workload.rib_gen import RouteSpec
from .network import Network
from .testbed import Collector, RunSpec, build_dut, build_feed, build_scale_daemon

__all__ = ["Collector", "ConvergenceHarness", "build_explain_scenario"]


class ConvergenceHarness:
    """One Fig. 3 run: upstream → DUT → downstream, timed.

    ``implementation``, ``feature``, ``mode`` and ``roas`` pick the DUT,
    the experiment, the arm and its ROAs; ``engine`` how the extension
    arm runs (the harness's name for the ``tier`` field).  Every other
    keyword is a :class:`~repro.sim.testbed.RunSpec` field with that
    class's default (``batch``, ``shards``, ``collect``, ``hot_path``,
    ``provenance``, ``profiling``, ``timeseries_every``, …); a name that
    is not one raises ``TypeError``.

    ``telemetry`` (on by default) instruments the single-daemon DUT and,
    for ``shards > 1``, keeps the parent-side snapshot of the workers'
    counters; ``shard_telemetry`` runs the shard *workers* with telemetry
    on and merges what they ship back — separate so the telemetry-off
    sharded bench stays at its baseline cost.

    ``events`` is an optional :class:`~repro.telemetry.EventLog`.  It
    receives the ``quarantine`` transitions of every DUT that runs with
    telemetry on, in this process or in a shard worker; batch flushes
    and convergence signals of a single-daemon run; the replay / shard
    lifecycle and progress of a sharded one.  ``progress`` is an
    optional callable fed every raw worker heartbeat (what a
    :class:`~repro.telemetry.ReplayProgress` consumes live).
    """

    def __init__(
        self,
        implementation: str,
        feature: str,
        mode: str,
        routes: List[RouteSpec],
        roas: Optional[List[Roa]] = None,
        *,
        engine: str = "jit",
        telemetry: bool = True,
        shard_telemetry: bool = False,
        events=None,
        progress=None,
        **fields: object,
    ):
        spec = RunSpec(
            implementation,
            feature,
            mode,
            roas=roas or (),
            tier=engine,
            telemetry=telemetry,
            **fields,
        )
        if spec.shards > 1:
            spec = spec.replace(telemetry=shard_telemetry)
        self.spec = spec
        self.routes = routes
        self.telemetry_enabled = telemetry
        self.events = events
        self.progress = progress
        #: Telemetry snapshot of the most recent :meth:`run` (or None
        #: when the DUT runs uninstrumented).
        self.last_telemetry: Optional[Dict[str, object]] = None
        #: Per-shard reports of the most recent sharded :meth:`run`.
        self.shard_result = None
        #: Samples of the most recent :meth:`run` (shard-labeled and
        #: merged for sharded runs), or None.
        self.timeseries: Optional[List[Dict[str, object]]] = None
        if spec.shards > 1:
            # The DUT lives in the workers; building a parent DUT and
            # pre-encoding a parent feed would only duplicate work.
            self.dut = None
            self.feed = None
            self.collector = Collector()
        else:
            self.dut, self.collector = build_scale_daemon(spec)
            self.feed, _ = build_feed(spec, routes)
            if events is not None and self.dut.vmm.telemetry is not None:
                # Breaker transitions become schema'd quarantine events.
                self.dut.vmm.telemetry.events = events

    # -- measurement -----------------------------------------------------

    def run(self) -> float:
        """Replay the feed through the DUT; return elapsed seconds.

        Timed span: first byte announced upstream → last prefix seen by
        the downstream collector (checked after the deterministic replay
        drains, mirroring the paper's first-announce-to-last-receive
        delay).  With ``shards > 1`` the workload runs through
        :class:`~repro.scale.ShardedReplay` workers instead and the
        timed span is the parent's dispatch → merge wall clock.
        """
        expected = len(self.routes)
        if self.spec.shards > 1:
            return self._run_sharded(expected)
        telemetry = self.dut.vmm.telemetry
        every = self.spec.timeseries_every
        sampler = tick = None
        if every > 0 and telemetry is not None:
            sampler = TimeSeriesSampler(telemetry.registry)

            def tick(done: int) -> None:
                if done % every == 0:
                    sampler.sample()

        start = time.perf_counter()
        replay_feed(self.dut, self.feed, self.spec.batch, events=self.events, tick=tick)
        elapsed = time.perf_counter() - start
        if len(self.collector) != expected:
            raise RuntimeError(
                f"convergence incomplete: downstream holds "
                f"{len(self.collector)}/{expected} prefixes "
                f"(vmm fallbacks={self.dut.vmm.fallbacks})"
            )
        self.last_telemetry = self.telemetry_snapshot()
        if sampler is not None:
            # Final post-replay sample with gauges refreshed by the
            # telemetry_snapshot() call above.
            sampler.sample()
            self.timeseries = sampler.series.samples()
        if self.events is not None:
            report = self.convergence_report()
            if report is not None:
                emit_convergence_events(self.events, report)
        return elapsed

    def _run_sharded(self, expected: int) -> float:
        result = ShardedReplay(
            self.spec, self.routes, progress=self.progress, events=self.events
        ).run()
        self.shard_result = result
        if result.shard_timeseries is not None:
            self.timeseries = result.merged_timeseries()
        if result.prefixes is not None:
            self.collector.prefixes = {Prefix.parse(p) for p in result.prefixes}
            self.collector.withdrawn = {Prefix.parse(p) for p in result.withdrawn}
            held = len(self.collector)
        else:
            held = result.prefix_count  # shards disjoint: sum == union
        if held != expected:
            raise RuntimeError(
                f"convergence incomplete: downstream holds "
                f"{held}/{expected} prefixes across "
                f"{result.shards} shards"
            )
        self.last_telemetry = self.telemetry_snapshot()
        return result.wall_seconds

    def extension_stats(self) -> Dict[str, Dict[str, int]]:
        return self.dut.vmm.stats() if self.dut is not None else {}

    def telemetry_snapshot(self) -> Optional[Dict[str, object]]:
        """Current telemetry state (gauges refreshed), or None.

        A sharded run has no parent DUT; instead, the workers' per-shard
        counters are re-registered into a parent-side registry so the
        ``xbgp stats`` surface (and the bench instruction totals) keep
        working with ``shards > 1``.  When the workers themselves ran
        with telemetry on (``shard_telemetry=True``), their full
        registries merge in too — every family shard-labeled — and the
        snapshot's health table becomes the workers' breaker rows.
        """
        if self.dut is None:
            if not self.telemetry_enabled or self.shard_result is None:
                return None
            telemetry = Telemetry()
            registry = telemetry.registry
            worker_telemetry = self.shard_result.telemetry
            if worker_telemetry is not None:
                merge_into(registry, worker_telemetry["registry"])
            for report in self.shard_result.per_shard:
                shard = str(report["shard"])
                registry.counter(
                    "xbgp_shard_routes", "routes replayed per shard", shard=shard
                ).inc(report["routes"])
                registry.counter(
                    "xbgp_shard_updates", "UPDATEs replayed per shard", shard=shard
                ).inc(report["updates"])
                registry.counter(
                    "xbgp_shard_batches", "UPDATE batches flushed per shard", shard=shard
                ).inc(report["batches"])
                registry.gauge(
                    "xbgp_shard_build_seconds",
                    "worker DUT + feed build wall-clock",
                    shard=shard,
                ).set(report["build_seconds"])
                registry.gauge(
                    "xbgp_shard_replay_seconds",
                    "worker replay wall-clock",
                    shard=shard,
                ).set(report["replay_seconds"])
                pool = report.get("attr_pool") or {}
                registry.counter(
                    "xbgp_shard_attr_pool_hits",
                    "worker AttrPool hits (incl. shipped intern table)",
                    shard=shard,
                ).inc(pool.get("hits", 0))
                registry.counter(
                    "xbgp_shard_attr_pool_misses",
                    "worker AttrPool misses",
                    shard=shard,
                ).inc(pool.get("misses", 0))
                registry.counter(
                    "xbgp_shard_fallbacks", "worker VMM fallbacks", shard=shard
                ).inc(report["fallbacks"])
            snapshot = telemetry.snapshot()
            if worker_telemetry is not None:
                snapshot["health"] = worker_telemetry["health"]
                snapshot["trace"] = {
                    "tail_events": len(worker_telemetry["trace_tail"])
                }
            return snapshot
        telemetry = self.dut.vmm.telemetry
        if telemetry is None:
            return None
        self.dut.update_telemetry_gauges()
        return telemetry.snapshot()

    def convergence_report(self) -> Optional[Dict[str, object]]:
        """The DUT's provenance convergence report, or None when the
        harness runs without provenance."""
        tracker = self.dut.provenance if self.dut is not None else None
        if tracker is None:
            return None
        return tracker.convergence_report()

    def profile_report(self, top: int = 10) -> Optional[Dict[str, object]]:
        """The DUT's profiler report, or None when the harness runs
        without profiling."""
        profiler = self.dut.profiler if self.dut is not None else None
        if profiler is None:
            return None
        return profiler.report(top=top)


def build_explain_scenario(
    implementation: str, prefix: Prefix, engine: str = "jit"
):
    """A small provenance-enabled route-reflection network for ``xbgp
    explain`` and the cross-implementation provenance tests.

    Topology: client ``up`` (BIRD) → RR DUT (``implementation``,
    running the route-reflector *extension*) → client ``down`` (BIRD),
    all iBGP.  ``up`` originates ``prefix`` after sessions settle, so
    the DUT's provenance holds the full causal chain: peer →
    extension runs → attribute writes → decision → export.

    Returns ``(network, up, dut, down)``.
    """
    network = Network()
    up = BirdDaemon(asn=65001, router_id="10.0.1.1", provenance=True)
    dut = build_dut(
        RunSpec(
            implementation,
            "route_reflection",
            "extension",
            tier=engine,
            telemetry=True,
            provenance=True,
        )
    )
    down = BirdDaemon(asn=65001, router_id="10.0.2.2", provenance=True)
    network.add_router("up", up)
    network.add_router("dut", dut)
    network.add_router("down", down)
    network.connect("up", "10.0.1.1", "dut", "10.0.0.1")
    network.connect("dut", "10.0.0.1", "down", "10.0.2.2")
    network.neighbor_config("dut", "10.0.1.1").rr_client = True
    network.neighbor_config("dut", "10.0.2.2").rr_client = True
    network.establish_all()
    up.originate(prefix)
    network.run()
    return network, up, dut, down
