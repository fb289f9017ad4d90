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
from typing import Callable, Dict, List, Optional, Tuple

from ..bgp.messages import UpdateMessage, split_stream
from ..bgp.prefix import Prefix, format_ipv4, parse_ipv4
from ..bird.daemon import BirdDaemon
from ..frr.daemon import FrrDaemon
from ..bgp.roa import HashRoaTable, Roa, TrieRoaTable
from ..plugins import origin_validation, route_reflector
from ..workload.rib_gen import RouteSpec, build_updates

__all__ = [
    "Collector",
    "ConvergenceHarness",
    "DAEMONS",
    "ENGINES",
    "build_explain_scenario",
    "wire_dut",
]

#: The one host registry: implementation name -> daemon class.
DAEMONS = {"frr": FrrDaemon, "bird": BirdDaemon}

#: How an extension arm runs: a bytecode tier, or the plugin as host
#: Python (``pyext``, attached on the default tier's VMM).
ENGINES = ("jit", "interp", "pyext")

_UPSTREAM = "10.0.1.2"
_DUT = "10.0.0.1"
_DOWNSTREAM = "10.0.2.2"


def _vm_tier(engine: str) -> str:
    return "jit" if engine == "pyext" else engine


def wire_dut(dut, downstream_send: Callable[[bytes], None], ibgp: bool, rr_clients: bool):
    """Attach the Fig. 3 peers to ``dut``: a silent upstream and a
    downstream delivering to ``downstream_send``, both forced
    Established (no OPEN exchange, no initial table dump).  Returns
    ``(upstream, downstream)``."""
    upstream = dut.add_neighbor(
        _UPSTREAM, 65001 if ibgp else 65100, lambda data: None, rr_client=rr_clients
    )
    downstream = dut.add_neighbor(
        _DOWNSTREAM, 65001 if ibgp else 65200, downstream_send, rr_client=rr_clients
    )
    for neighbor in (upstream, downstream):
        dut._established[neighbor.peer_address] = True
        neighbor.established = True
    return upstream, downstream


class Collector:
    """The downstream router's receive side: counts prefixes.

    ``eager_attributes`` forces a full path-attribute parse of every
    received UPDATE, the behaviour every receiver had before
    :class:`UpdateMessage` learned to decode attributes lazily — a
    ``hot_path=False`` harness (host caches off, the reference arm of
    the host oracle) restores that per-message parse.
    """

    def __init__(self, eager_attributes: bool = False) -> None:
        self.prefixes: set = set()
        self.withdrawn: set = set()
        self.updates = 0
        self._buffer = bytearray()
        self._eager_attributes = eager_attributes

    def receive(self, data: bytes) -> None:
        self._buffer.extend(data)
        for message in split_stream(self._buffer):
            if isinstance(message, UpdateMessage):
                self.updates += 1
                if self._eager_attributes:
                    message.attributes
                for prefix in message.nlri:
                    self.prefixes.add(prefix)
                for prefix in message.withdrawn:
                    self.prefixes.discard(prefix)
                    self.withdrawn.add(prefix)

    def __len__(self) -> int:
        return len(self.prefixes)


class ConvergenceHarness:
    """One Fig. 3 run: upstream → DUT → downstream, timed.

    ``implementation`` picks the DUT ("frr"/"bird"); ``feature`` picks
    the experiment ("route_reflection" or "origin_validation");
    ``mode`` picks the arm ("native" or "extension"); ``engine`` how
    the extension arm runs: the ``jit`` or ``interp`` bytecode tier, or
    ``pyext`` (the plugin rewritten as host Python).  ``hot_path=False``
    turns the *host's* caches off (encode/mechanics caches, lazy
    attribute parsing) and says nothing about the VM.
    """

    def __init__(
        self,
        implementation: str,
        feature: str,
        mode: str,
        routes: List[RouteSpec],
        roas: Optional[List[Roa]] = None,
        max_prefixes_per_update: int = 64,
        engine: str = "jit",
        telemetry: bool = True,
        quarantine=None,
        hot_path: bool = True,
        provenance: bool = False,
        profiling: bool = False,
        batch: int = 1,
        shards: int = 1,
        shard_collect: str = "full",
        shard_telemetry: bool = False,
        events=None,
        progress=None,
        heartbeat_every: int = 0,
        timeseries_every: int = 0,
        quarantine_after: int = 0,
        inject_crasher: bool = False,
    ):
        if implementation not in DAEMONS:
            raise ValueError(f"unknown implementation {implementation!r}")
        if feature not in ("route_reflection", "origin_validation", "plain"):
            raise ValueError(f"unknown feature {feature!r}")
        if mode not in ("native", "extension"):
            raise ValueError(f"unknown mode {mode!r}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > 1 and engine == "pyext":
            raise ValueError("sharded replay does not support the pyext engine")
        self.implementation = implementation
        self.feature = feature
        self.mode = mode
        self.engine = engine
        self.routes = routes
        self.roas = roas or []
        self.telemetry_enabled = telemetry
        self.quarantine = quarantine
        #: False turns the host's caches off (no marshalling, encode or
        #: mechanics caches, eager attribute parsing downstream): the
        #: reference arm of the host fuzz oracle and of
        #: tests/integration/test_hotpath_semantics.py.
        self.hot_path = hot_path
        #: True turns on the DUT's per-route provenance tracking — the
        #: observability-overhead ablation's "on" arm.
        self.provenance = provenance
        #: True turns on the DUT's phase + PC-level profiler (the
        #: ``xbgp profile`` data source).
        self.profiling = profiling
        #: Telemetry snapshot of the most recent :meth:`run` (or None
        #: when the DUT runs uninstrumented).
        self.last_telemetry: Optional[Dict[str, object]] = None
        #: UPDATEs per decode→decision vector; 1 = the sequential path.
        self.batch = batch
        #: Worker processes the route workload is partitioned across by
        #: prefix range; 1 = single-daemon replay in this process.
        self.shards = shards
        #: Sharded result granularity: "full" merges route-level
        #: snapshots (what parity suites compare); "summary" keeps them
        #: in the workers and merges counts only (what benchmarks use).
        self.shard_collect = shard_collect
        #: Per-shard reports of the most recent sharded :meth:`run`.
        self.shard_result = None
        #: True runs the shard *workers* with telemetry on, shipping
        #: each worker's registry/breakers/trace tail back for the
        #: cross-process merge.  Separate from ``telemetry`` (the
        #: single-daemon default) so the telemetry-off sharded bench
        #: stays at its baseline cost.
        self.shard_telemetry = shard_telemetry
        #: Optional :class:`~repro.telemetry.EventLog` receiving the
        #: schema'd lifecycle events (replay/shard progress, batch
        #: flushes, quarantine trips, convergence signals).
        self.events = events
        #: Optional callable fed every raw heartbeat event (what a
        #: :class:`~repro.telemetry.ReplayProgress` consumes live).
        self.progress = progress
        #: Worker heartbeat cadence in UPDATEs (0 = auto when a sink is
        #: attached, silent otherwise).
        self.heartbeat_every = heartbeat_every
        #: Mid-replay registry sampling cadence in UPDATEs (0 = off).
        #: Needs telemetry on (single-daemon) / shard_telemetry on
        #: (sharded) — there is no registry to sample otherwise.
        self.timeseries_every = timeseries_every
        #: Samples of the most recent :meth:`run` (shard-labeled and
        #: merged for sharded runs), or None.
        self.timeseries: Optional[List[Dict[str, object]]] = None
        #: Breaker error threshold for fault-injection drills (0 keeps
        #: the paper's always-retry default).
        self.quarantine_after = quarantine_after
        #: True attaches the deliberately crashing ``faulty`` plugin.
        self.inject_crasher = inject_crasher
        if quarantine_after > 0 and self.quarantine is None:
            from ..telemetry import QuarantinePolicy

            self.quarantine = QuarantinePolicy(error_threshold=quarantine_after)
        self.collector = Collector(eager_attributes=not hot_path)
        if shards > 1:
            # The DUT lives in the workers; building a parent DUT and
            # pre-encoding a parent feed would only duplicate work.
            self.dut = None
            self.feed = None
            self._max_prefixes_per_update = max_prefixes_per_update
        else:
            self.dut = self._build_dut()
            reflecting = feature == "route_reflection"
            wire_dut(self.dut, self.collector.receive, ibgp=reflecting, rr_clients=reflecting)
            self.feed = self._build_feed(max_prefixes_per_update)
            if events is not None and self.dut.vmm.telemetry is not None:
                # Breaker transitions become schema'd quarantine events.
                self.dut.vmm.telemetry.events = events

    # -- construction -------------------------------------------------

    def _build_dut(self):
        from ..core.vmm import VmmConfig
        from . import harness as _self  # noqa: F401 (keep import graph simple)
        from ..plugins import pynative

        daemon_cls = DAEMONS[self.implementation]
        kwargs: Dict[str, object] = {
            "asn": 65001,
            "router_id": _DUT,
            "local_address": _DUT,
        }
        kwargs["vmm_config"] = VmmConfig(
            tier=_vm_tier(self.engine),
            telemetry=self.telemetry_enabled,
            quarantine=self.quarantine,
        )
        kwargs["hot_path"] = self.hot_path
        kwargs["provenance"] = self.provenance
        kwargs["profiling"] = self.profiling
        if self.feature == "route_reflection":
            kwargs["route_reflector"] = self.mode
        if self.feature == "origin_validation" and self.mode == "native":
            # FRR natively browses a trie; BIRD natively probes a hash.
            table = TrieRoaTable() if self.implementation == "frr" else HashRoaTable()
            table.extend(self.roas)
            kwargs["roa_table"] = table
        dut = daemon_cls(**kwargs)
        if self.feature == "route_reflection" and self.mode == "extension":
            if self.engine == "pyext":
                dut.attach_program(pynative.route_reflector_program())
            else:
                dut.attach_manifest(route_reflector.build_manifest())
        if self.feature == "origin_validation" and self.mode == "extension":
            if self.engine == "pyext":
                dut.attach_program(pynative.origin_validation_program(self.roas))
            else:
                dut.attach_manifest(origin_validation.build_manifest(self.roas))
        if self.inject_crasher:
            from ..plugins import faulty

            dut.attach_manifest(faulty.build_manifest())
        return dut

    def _build_feed(self, max_prefixes_per_update: int) -> List[bytes]:
        """Pre-encode the upstream's UPDATE stream (constant cost)."""
        session = "ibgp" if self.feature == "route_reflection" else "ebgp"
        updates = build_updates(
            self.routes,
            next_hop=parse_ipv4(_UPSTREAM),
            session=session,
            sender_asn=65100 if session == "ebgp" else None,
            max_prefixes_per_update=max_prefixes_per_update,
        )
        feed = [update.encode() for update in updates]
        feed.append(UpdateMessage.end_of_rib().encode())
        return feed

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
        if self.shards > 1:
            return self._run_sharded(expected)
        sampler = None
        if self.timeseries_every > 0 and self.dut.vmm.telemetry is not None:
            from ..telemetry import TimeSeriesSampler

            sampler = TimeSeriesSampler(self.dut.vmm.telemetry.registry)
        start = time.perf_counter()
        if self.batch > 1:
            from ..scale import BatchProcessor

            processor = BatchProcessor(
                self.dut, batch_size=self.batch, events=self.events
            )
            if sampler is not None:
                since_sample = 0
                for payload in self.feed:
                    processor.receive_raw(_UPSTREAM, payload)
                    since_sample += 1
                    if since_sample >= self.timeseries_every:
                        since_sample = 0
                        sampler.sample()
            else:
                for payload in self.feed:
                    processor.receive_raw(_UPSTREAM, payload)
            processor.flush()
        elif sampler is not None:
            receive = self.dut.receive_raw
            since_sample = 0
            for payload in self.feed:
                receive(_UPSTREAM, payload)
                since_sample += 1
                if since_sample >= self.timeseries_every:
                    since_sample = 0
                    sampler.sample()
        else:
            receive = self.dut.receive_raw
            for payload in self.feed:
                receive(_UPSTREAM, payload)
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
                from ..telemetry import emit_convergence_events

                emit_convergence_events(self.events, report)
        return elapsed

    def _run_sharded(self, expected: int) -> float:
        from ..scale import ShardedReplay

        replay = ShardedReplay(
            self.implementation,
            self.routes,
            feature=self.feature,
            mode=self.mode,
            roas=self.roas,
            shards=self.shards,
            batch=self.batch,
            tier=self.engine,
            hot_path=self.hot_path,
            max_prefixes_per_update=self._max_prefixes_per_update,
            profiling=self.profiling,
            collect=self.shard_collect,
            telemetry=self.shard_telemetry,
            heartbeat_every=self.heartbeat_every,
            timeseries_every=self.timeseries_every,
            progress=self.progress,
            events=self.events,
            quarantine_after=self.quarantine_after,
            inject_crasher=self.inject_crasher,
        )
        result = replay.run()
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
            from ..telemetry import Telemetry, merge_into

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
    from ..core.vmm import VmmConfig
    from ..plugins import pynative
    from ..plugins import route_reflector as rr_plugin
    from .network import Network

    if implementation not in DAEMONS:
        raise ValueError(f"unknown implementation {implementation!r}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    network = Network()
    up = BirdDaemon(asn=65001, router_id="10.0.1.1", provenance=True)
    dut = DAEMONS[implementation](
        asn=65001,
        router_id="10.0.0.1",
        route_reflector="extension",
        vmm_config=VmmConfig(tier=_vm_tier(engine)),
        provenance=True,
    )
    down = BirdDaemon(asn=65001, router_id="10.0.2.2", provenance=True)
    if engine == "pyext":
        dut.attach_program(pynative.route_reflector_program())
    else:
        dut.attach_manifest(rr_plugin.build_manifest())
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
