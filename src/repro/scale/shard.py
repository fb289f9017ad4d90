"""Sharded full-table replay.

:class:`PartitionMap` splits the IPv4 space into contiguous address
ranges balanced over the workload's prefixes and stores the range →
shard assignment as aligned CIDR blocks in a
:class:`~repro.bgp.trie.PrefixTrie`; any prefix — including ones never
seen at build time, e.g. later withdrawals or more-specifics — maps to
a shard by longest-prefix match on its lowest address.  Because BGP's
decision process is independent per prefix, routing all routes of a
prefix to the same worker makes the sharded outcome exactly the
sequential one.

:class:`ShardedReplay` buckets a :class:`RouteSpec` workload with that
map, replays each bucket through its own daemon in a
``multiprocessing`` worker (or inline, for debugging and the fuzz
oracle), and merges the per-shard Loc-RIB snapshots deterministically
(disjoint by construction, emitted in shard order with sorted keys).
"""

from __future__ import annotations

import gc
import multiprocessing
from bisect import bisect_right
from collections import Counter
from time import perf_counter, time as wall_clock
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..bgp.messages import UpdateMessage, split_stream
from ..bgp.prefix import Prefix, parse_ipv4
from ..bgp.roa import HashRoaTable, Roa, TrieRoaTable
from ..bgp.trie import PrefixTrie
from ..core.vmm import VmmConfig
from ..telemetry.health import QuarantinePolicy
# Also loads the FRR host stack with this module, so forked shard
# workers inherit it instead of importing it inside their timed DUT build.
from ..frr.attrs_intern import AttrPool
from ..telemetry.aggregate import merge_into, snapshot_registry
from ..telemetry.events import EventLog
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.timeseries import TimeSeriesSampler, merge_timeseries
from ..workload.rib_gen import RouteSpec, build_updates
from .batch import BatchProcessor

__all__ = [
    "PartitionMap",
    "ShardedReplay",
    "ShardedResult",
    "build_scale_daemon",
    "normalise_snapshot",
    "split_update",
]

_UPSTREAM = "10.0.1.2"
_DUT = "10.0.0.1"

#: Features a scale daemon knows how to wire, mapping to the five paper
#: plugins plus the bare pipeline.
FEATURES = (
    "plain",
    "route_reflection",
    "origin_validation",
    "valley_free",
    "geoloc",
    "closest_exit",
)


def _cover(start: int, end: int) -> Iterable[Prefix]:
    """Minimal aligned CIDR blocks covering the address range
    ``[start, end)``."""
    while start < end:
        align = (start & -start) or (1 << 32)
        size = 1 << ((end - start).bit_length() - 1)
        block = min(align, size)
        yield Prefix(start, 33 - block.bit_length())
        start += block


class PartitionMap:
    """Prefix-range → shard assignment, trie-backed."""

    def __init__(self, prefixes: Iterable[Prefix], shards: int) -> None:
        networks = sorted({prefix.network for prefix in prefixes})
        shards = max(1, int(shards))
        # Never more shards than distinct networks (an empty workload
        # degenerates to one shard owning the whole address space).
        shards = min(shards, len(networks)) if networks else 1
        # Cut addresses chosen so each range holds ~equal route count.
        cuts = [0]
        for index in range(1, shards):
            cut = networks[(index * len(networks)) // shards]
            if cut > cuts[-1]:
                cuts.append(cut)
        self.shards = len(cuts)
        self._cuts = cuts
        self._trie: PrefixTrie = PrefixTrie()
        bounds = cuts + [1 << 32]
        self.blocks: List[Tuple[Prefix, int]] = []
        for shard in range(self.shards):
            for block in _cover(bounds[shard], bounds[shard + 1]):
                self._trie.insert(block, shard)
                self.blocks.append((block, shard))

    def shard_of(self, prefix: Prefix) -> int:
        """The shard owning ``prefix`` (by its lowest address).

        Range ``[cuts[i], cuts[i+1])`` is shard ``i`` — a sorted-list
        bisect gives the same answer as the trie's longest-prefix match
        (asserted by the partition unit tests) at a fraction of the
        per-lookup cost, which matters when bucketing 724k routes.
        """
        if self.shards == 1:
            return 0
        return bisect_right(self._cuts, prefix.network) - 1


def split_update(update: UpdateMessage, pmap: PartitionMap) -> Dict[int, UpdateMessage]:
    """Partition one UPDATE's NLRI/withdrawals by shard.

    Attribute bytes are carried verbatim (the split messages share the
    original's raw wire), so per-shard decode sees exactly what the
    sequential path saw.
    """
    nlri: Dict[int, List[Prefix]] = {}
    withdrawn: Dict[int, List[Prefix]] = {}
    for prefix in update.withdrawn:
        withdrawn.setdefault(pmap.shard_of(prefix), []).append(prefix)
    for prefix in update.nlri:
        nlri.setdefault(pmap.shard_of(prefix), []).append(prefix)
    result: Dict[int, UpdateMessage] = {}
    for shard in sorted(set(nlri) | set(withdrawn)):
        message = UpdateMessage(
            withdrawn=withdrawn.get(shard, ()),
            attributes=update.attributes,
            nlri=nlri.get(shard, ()),
        )
        if update._attrs_wire is not None:
            message._attrs_wire = update._attrs_wire
        result[shard] = message
    return result


class _Collector:
    """Downstream receive side: export sets without a sim dependency."""

    def __init__(self) -> None:
        self.prefixes: set = set()
        self.withdrawn: set = set()
        self.updates = 0
        self._buffer = bytearray()

    def receive(self, data: bytes) -> None:
        self._buffer.extend(data)
        for message in split_stream(self._buffer):
            if isinstance(message, UpdateMessage):
                self.updates += 1
                for prefix in message.nlri:
                    self.prefixes.add(prefix)
                for prefix in message.withdrawn:
                    self.prefixes.discard(prefix)
                    self.withdrawn.add(prefix)


def normalise_snapshot(snapshot) -> Dict[str, tuple]:
    """Loc-RIB snapshot in a picklable, order-insensitive form."""
    return {
        str(prefix): tuple(
            sorted((a.type_code, a.flags, a.value.hex()) for a in attributes)
        )
        for prefix, attributes in snapshot.items()
    }


def build_scale_daemon(config: Dict[str, object]):
    """Build and wire one DUT per the (picklable) shard ``config``.

    Returns ``(daemon, collector)``: upstream and downstream neighbors
    attached and established, the feature's plugin manifest (or native
    equivalent) installed — the same wiring as
    :class:`~repro.sim.harness.ConvergenceHarness`, extended to all
    five paper plugins.
    """
    from ..plugins import (
        closest_exit,
        faulty,
        geoloc,
        origin_validation,
        route_reflector,
        valley_free,
    )
    from ..sim.harness import DAEMONS, wire_dut

    implementation = str(config["implementation"])
    feature = str(config.get("feature", "plain"))
    mode = str(config.get("mode", "native"))
    tier = str(config.get("tier", "jit"))
    hot_path = bool(config.get("hot_path", True))
    roas: List[Roa] = list(config.get("roas") or [])
    coord = config.get("coord")
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}")

    quarantine_after = int(config.get("quarantine_after", 0))
    quarantine = (
        QuarantinePolicy(error_threshold=quarantine_after)
        if quarantine_after > 0
        else None
    )
    kwargs: Dict[str, object] = {
        "asn": 65001,
        "router_id": _DUT,
        "local_address": _DUT,
        "vmm_config": VmmConfig(
            tier=tier,
            telemetry=bool(config.get("telemetry", False)),
            quarantine=quarantine,
        ),
        "hot_path": hot_path,
        "provenance": bool(config.get("provenance", False)),
        "profiling": bool(config.get("profiling", False)),
    }
    if feature == "route_reflection":
        kwargs["route_reflector"] = mode
    if feature == "origin_validation" and mode == "native":
        table = TrieRoaTable() if implementation == "frr" else HashRoaTable()
        table.extend(roas)
        kwargs["roa_table"] = table
    if feature in ("geoloc", "closest_exit"):
        latitude, longitude = coord if coord is not None else (50.85, 4.35)
        kwargs["xtra"] = {"coord": geoloc.coord_bytes(latitude, longitude)}
    daemon = DAEMONS[implementation](**kwargs)

    if mode == "extension" or feature in ("valley_free", "geoloc", "closest_exit"):
        if feature == "route_reflection":
            daemon.attach_manifest(route_reflector.build_manifest())
        elif feature == "origin_validation":
            daemon.attach_manifest(origin_validation.build_manifest(roas))
        elif feature == "valley_free":
            valley = config.get("valley") or {}
            daemon.attach_manifest(
                valley_free.build_manifest(
                    valley.get("up_edges", ()), valley.get("dc_ases", ())
                )
            )
        elif feature == "geoloc":
            daemon.attach_manifest(geoloc.build_manifest())
        elif feature == "closest_exit":
            daemon.attach_manifest(closest_exit.build_manifest())

    if bool(config.get("inject_crasher", False)):
        # Fault-injection drill: a crash-on-every-run filter rides along
        # at a late seq, so the breaker (when armed via quarantine_after)
        # has real faults to trip on.
        daemon.attach_manifest(faulty.build_manifest())

    collector = _Collector()
    reflecting = feature == "route_reflection"
    wire_dut(daemon, collector.receive, ibgp=reflecting, rr_clients=reflecting)
    return daemon, collector


def _replay_shard(payload) -> Dict[str, object]:
    """Worker: build a DUT, build + replay this shard's feed, return a
    picklable report.

    Module-level so ``multiprocessing`` can resolve it under any start
    method; also called directly by the inline backend.

    When the parent armed heartbeats (``heartbeat_every > 0`` and a
    queue was installed by :func:`_init_worker`), the worker announces
    ``shard_start``, streams ``shard_progress`` every N updates, and
    closes with ``shard_finish`` — the raw feed behind live progress,
    ETA, and the lifecycle event log.  When the daemon runs with
    telemetry on, the full registry (mergeable snapshot), the breaker
    table and the trace-ring tail ride back in the report.
    """
    config, shard, routes = payload
    queue = _HEARTBEAT_QUEUE
    every = int(config.get("heartbeat_every", 0))
    heartbeat = queue is not None and every > 0

    def beat(kind: str, **fields: object) -> None:
        if heartbeat:
            queue.put({"event": kind, "ts": wall_clock(), "shard": shard, **fields})

    beat("shard_start", routes=len(routes))
    # The replay allocates millions of acyclic objects (routes, attrs,
    # messages); cyclic-gc passes over that live set are pure overhead,
    # so collection pauses for the duration (refcounting still frees
    # everything transient; a worker process exits right after anyway).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        daemon, collector = build_scale_daemon(config)

        session = "ibgp" if config.get("feature") == "route_reflection" else "ebgp"
        updates = build_updates(
            routes,
            next_hop=parse_ipv4(_UPSTREAM),
            session=session,
            sender_asn=65100 if session == "ebgp" else None,
            max_prefixes_per_update=int(config.get("max_prefixes_per_update", 64)),
        )
        feed = []
        nlri_counts = []
        for update in updates:
            feed.append(update.encode())
            nlri_counts.append(len(update.nlri))
        feed.append(UpdateMessage.end_of_rib().encode())
        nlri_counts.append(0)
        build_seconds = perf_counter() - started

        batch = int(config.get("batch", 64))
        sample_every = int(config.get("timeseries_every", 0))
        sampler = None
        if sample_every > 0 and daemon.vmm.telemetry is not None:
            # Mid-replay samples of this worker's own registry; the
            # parent merges them into one shard-labeled time-series.
            sampler = TimeSeriesSampler(daemon.vmm.telemetry.registry)
        started = perf_counter()
        processor = None
        if batch > 1:
            processor = BatchProcessor(daemon, batch_size=batch)
            receive = processor.receive_raw
        else:
            receive = daemon.receive_raw
        if heartbeat or sampler is not None:
            routes_done = 0
            since_beat = 0
            since_sample = 0
            for index, payload_bytes in enumerate(feed):
                receive(_UPSTREAM, payload_bytes)
                routes_done += nlri_counts[index]
                since_beat += 1
                since_sample += 1
                if heartbeat and since_beat >= every:
                    since_beat = 0
                    beat("shard_progress", routes_done=routes_done, routes=len(routes))
                if sampler is not None and since_sample >= sample_every:
                    since_sample = 0
                    sampler.sample()
        else:
            for payload_bytes in feed:
                receive(_UPSTREAM, payload_bytes)
        if processor is not None:
            processor.flush()
            batches = processor.batches_flushed
        else:
            batches = 0
        replay_seconds = perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    beat(
        "shard_finish",
        routes=len(routes),
        replay_seconds=replay_seconds,
        build_seconds=build_seconds,
    )

    telemetry_report = None
    telemetry = daemon.vmm.telemetry
    if telemetry is not None:
        # Everything the PR 1/4/5 stack recorded in this process, in
        # picklable form: the registry as a mergeable snapshot, the
        # breaker table, and the tail of the trace ring.
        daemon.update_telemetry_gauges()
        tail = int(config.get("trace_tail", 256))
        if sampler is not None:
            # Final post-replay sample (gauges now up to date): the
            # merged series' last sample must carry the full totals.
            sampler.sample()
        telemetry_report = {
            "registry": snapshot_registry(telemetry.registry),
            "health": telemetry.health.snapshot(),
            "trace_tail": telemetry.trace.events()[-tail:] if tail > 0 else [],
            "trace_stats": telemetry.trace.stats(),
            "timeseries": sampler.series.samples() if sampler is not None else None,
        }

    pool: Optional[AttrPool] = getattr(daemon, "attr_pool", None)
    profiler = getattr(daemon, "profiler", None)
    report: Dict[str, object] = {
        "profile": profiler.report(top=5) if profiler is not None else None,
        "shard": shard,
        "routes": len(routes),
        "updates": len(feed) - 1,
        "batches": batches,
        "build_seconds": build_seconds,
        "replay_seconds": replay_seconds,
        "stats": dict(daemon.stats),
        "fallbacks": daemon.vmm.fallbacks,
        "telemetry": telemetry_report,
        "attr_pool": {
            "hits": pool.hits if pool is not None else 0,
            "misses": pool.misses if pool is not None else 0,
        },
    }
    if str(config.get("collect", "full")) == "summary":
        # Benchmark mode: route-level state stays in the worker — a
        # 724k-entry snapshot costs seconds to marshal and pickle, and
        # the bench only needs counts for its convergence check.
        report["snapshot"] = None
        report["prefixes"] = None
        report["withdrawn"] = None
        report["loc_rib_count"] = len(daemon.loc_rib)
        report["prefix_count"] = len(collector.prefixes)
        report["withdrawn_count"] = len(collector.withdrawn)
    else:
        report["snapshot"] = normalise_snapshot(daemon.loc_rib_snapshot())
        report["prefixes"] = sorted(str(prefix) for prefix in collector.prefixes)
        report["withdrawn"] = sorted(str(prefix) for prefix in collector.withdrawn)
    return report


#: Payloads staged for fork-start workers (inherited, not pickled);
#: set only for the duration of a process-backend run.
_FORK_PAYLOADS: Optional[List[tuple]] = None

#: Heartbeat sink the current worker writes progress events to: a
#: ``multiprocessing.Queue`` installed by :func:`_init_worker` in pool
#: workers, a :class:`_CallbackQueue` for the inline backend, or None
#: (heartbeats off — the default, and free).
_HEARTBEAT_QUEUE = None


def _init_worker(queue) -> None:
    """Pool initializer: install the parent's heartbeat queue."""
    global _HEARTBEAT_QUEUE
    _HEARTBEAT_QUEUE = queue


class _CallbackQueue:
    """Queue-shaped shim delivering heartbeats synchronously (inline
    backend: worker and parent share one process)."""

    def __init__(self, deliver: Callable[[Dict[str, object]], None]) -> None:
        self._deliver = deliver

    def put(self, event: Dict[str, object]) -> None:
        self._deliver(event)


def _replay_shard_by_index(index: int) -> Dict[str, object]:
    """Fork-backend worker entry: resolve the payload from the memory
    inherited at fork time."""
    assert _FORK_PAYLOADS is not None
    return _replay_shard(_FORK_PAYLOADS[index])


class ShardedResult:
    """Deterministically merged outcome of a sharded replay."""

    __slots__ = (
        "snapshot",
        "prefixes",
        "withdrawn",
        "prefix_count",
        "withdrawn_count",
        "stats",
        "per_shard",
        "shards",
        "wall_seconds",
        "build_seconds",
        "replay_seconds",
        "telemetry",
        "shard_timeseries",
    )

    def __init__(self, per_shard: List[Dict[str, object]], wall_seconds: float):
        per_shard = sorted(per_shard, key=lambda report: report["shard"])
        summary = any(report["snapshot"] is None for report in per_shard)
        stats: Counter = Counter()
        if summary:
            # collect="summary": route-level state stayed in the workers;
            # shards are disjoint by construction, so the union counts
            # are plain sums.
            self.snapshot = None
            self.prefixes = None
            self.withdrawn = None
            self.prefix_count = sum(r["prefix_count"] for r in per_shard)
            self.withdrawn_count = sum(r["withdrawn_count"] for r in per_shard)
            for report in per_shard:
                stats.update(report["stats"])
        else:
            snapshot: Dict[str, tuple] = {}
            prefixes: set = set()
            withdrawn: set = set()
            for report in per_shard:
                shard_snapshot = report["snapshot"]
                overlap = snapshot.keys() & shard_snapshot.keys()
                if overlap:  # partition invariant: shards own disjoint prefixes
                    raise RuntimeError(f"shards overlap on {sorted(overlap)[:3]}")
                snapshot.update(shard_snapshot)
                prefixes.update(report["prefixes"])
                withdrawn.update(report["withdrawn"])
                stats.update(report["stats"])
            self.snapshot = {key: snapshot[key] for key in sorted(snapshot)}
            self.prefixes = prefixes
            self.withdrawn = withdrawn
            self.prefix_count = len(prefixes)
            self.withdrawn_count = len(withdrawn)
        self.stats = stats
        self.per_shard = per_shard
        self.shards = len(per_shard)
        self.wall_seconds = wall_seconds
        self.build_seconds = max(
            (report["build_seconds"] for report in per_shard), default=0.0
        )
        self.replay_seconds = max(
            (report["replay_seconds"] for report in per_shard), default=0.0
        )
        self.telemetry = self._merge_telemetry(per_shard)
        self.shard_timeseries = self._collect_timeseries(per_shard)

    @staticmethod
    def _collect_timeseries(
        per_shard: List[Dict[str, object]],
    ) -> Optional[List[List[Dict[str, object]]]]:
        """Per-shard sample lists, positionally indexed by shard (None
        when workers ran without time-series sampling)."""
        series = [
            (report.get("telemetry") or {}).get("timeseries")
            for report in per_shard
        ]
        if not any(series):
            return None
        return [samples or [] for samples in series]

    @staticmethod
    def _merge_telemetry(
        per_shard: List[Dict[str, object]],
    ) -> Optional[Dict[str, object]]:
        """One shard-labeled registry + tagged health/trace rows from
        the per-worker telemetry reports (None when workers ran with
        telemetry off)."""
        shipped = [
            (report["shard"], report["telemetry"])
            for report in per_shard
            if report.get("telemetry") is not None
        ]
        if not shipped:
            return None
        registry = MetricsRegistry()
        health: List[Dict[str, object]] = []
        trace_tail: List[Dict[str, object]] = []
        for shard, worker in shipped:
            merge_into(
                registry, worker["registry"], labels={"shard": str(shard)}
            )
            for row in worker["health"]:
                tagged = dict(row)
                tagged["shard"] = shard
                health.append(tagged)
            for event in worker["trace_tail"]:
                tagged = dict(event)
                tagged["shard"] = shard
                trace_tail.append(tagged)
        return {
            "registry": snapshot_registry(registry),
            "health": health,
            "trace_tail": trace_tail,
        }

    def merged_registry(self, shard_labels: bool = True) -> MetricsRegistry:
        """The cross-shard registry as a live :class:`MetricsRegistry`.

        ``shard_labels=True`` keeps the per-shard origin label (what
        ``/metrics`` serves); ``shard_labels=False`` re-merges the raw
        worker snapshots without the stamp — counters become plain
        cross-shard sums, directly comparable to a sequential replay's
        registry (the batch-parity suite pins this equality).
        """
        if self.telemetry is None:
            raise RuntimeError("workers ran with telemetry off")
        registry = MetricsRegistry()
        if shard_labels:
            merge_into(registry, self.telemetry["registry"])
            return registry
        for report in self.per_shard:
            worker = report.get("telemetry")
            if worker is not None:
                merge_into(registry, worker["registry"])
        return registry

    def merged_timeseries(
        self, shard_labels: bool = True
    ) -> List[Dict[str, object]]:
        """The cross-shard time-series, merged at the union of sample
        instants (last-carried-forward per shard; see
        :func:`~repro.telemetry.timeseries.merge_timeseries`).

        ``shard_labels=False`` drops the per-shard stamp so the final
        sample's counters are plain cross-shard sums — directly equal
        to a sequential replay's final sample (pinned by the telemetry
        plane integration suite).
        """
        if self.shard_timeseries is None:
            raise RuntimeError("workers ran without time-series sampling")
        return merge_timeseries(
            self.shard_timeseries, shard_labels=shard_labels
        )


class ShardedReplay:
    """Partition a workload by prefix range and replay each bucket
    through its own daemon.

    ``backend="process"`` runs one ``multiprocessing`` worker per shard
    (start method: fork where available, never more worker processes
    than cores); ``backend="inline"`` runs the same worker function
    in-process — same code path minus the process boundary, used by the
    fuzz oracle and for debugging.
    """

    def __init__(
        self,
        implementation: str,
        routes: Sequence[RouteSpec],
        *,
        feature: str = "plain",
        mode: str = "native",
        roas: Optional[Sequence[Roa]] = None,
        coord: Optional[Tuple[float, float]] = None,
        valley: Optional[Dict[str, object]] = None,
        shards: int = 2,
        batch: int = 64,
        tier: str = "jit",
        hot_path: bool = True,
        max_prefixes_per_update: int = 64,
        backend: str = "process",
        profiling: bool = False,
        collect: str = "full",
        telemetry: bool = False,
        heartbeat_every: int = 0,
        timeseries_every: int = 0,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
        events: Optional[EventLog] = None,
        trace_tail: int = 256,
        quarantine_after: int = 0,
        inject_crasher: bool = False,
    ) -> None:
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        if collect not in ("full", "summary"):
            raise ValueError(f"unknown collect mode {collect!r}")
        self.implementation = implementation
        self.routes = list(routes)
        self.backend = backend
        self.batch = batch
        self.progress = progress
        self.events = events
        if heartbeat_every <= 0 and (progress is not None or events is not None):
            # A sink was attached but no cadence chosen: a sensible
            # default beats silently never hearing from the workers.
            heartbeat_every = 500
        self.heartbeat_every = heartbeat_every
        self.partition = PartitionMap(
            (spec.prefix for spec in self.routes), shards
        )
        self.config: Dict[str, object] = {
            "implementation": implementation,
            "feature": feature,
            "mode": mode,
            "tier": tier,
            "hot_path": hot_path,
            "roas": list(roas or []),
            "coord": coord,
            "valley": valley,
            "batch": batch,
            "max_prefixes_per_update": max_prefixes_per_update,
            "telemetry": bool(telemetry),
            "heartbeat_every": heartbeat_every,
            "timeseries_every": int(timeseries_every),
            "trace_tail": trace_tail,
            "profiling": profiling,
            "collect": collect,
            "quarantine_after": int(quarantine_after),
            "inject_crasher": bool(inject_crasher),
        }

    def _payloads(self) -> List[tuple]:
        buckets: List[List[RouteSpec]] = [
            [] for _ in range(self.partition.shards)
        ]
        shard_of = self.partition.shard_of
        for spec in self.routes:
            buckets[shard_of(spec.prefix)].append(spec)
        return [(self.config, shard, bucket) for shard, bucket in enumerate(buckets)]

    def _emit(self, event: Dict[str, object]) -> None:
        """Deliver one heartbeat to the attached sinks (parent side)."""
        if self.events is not None:
            self.events.append(dict(event))
        if self.progress is not None:
            self.progress(event)

    def run(self) -> ShardedResult:
        started = perf_counter()
        payloads = self._payloads()
        self._emit(
            {
                "event": "replay_start",
                "ts": wall_clock(),
                "shards": self.partition.shards,
                "routes": len(self.routes),
            }
        )
        if self.backend == "inline" or self.partition.shards == 1:
            global _HEARTBEAT_QUEUE
            saved = _HEARTBEAT_QUEUE
            _HEARTBEAT_QUEUE = (
                _CallbackQueue(self._emit) if self.heartbeat_every > 0 else None
            )
            try:
                reports = [_replay_shard(payload) for payload in payloads]
            finally:
                _HEARTBEAT_QUEUE = saved
        else:
            reports = self._run_pool(payloads)
        wall_seconds = perf_counter() - started
        self._emit(
            {
                "event": "replay_finish",
                "ts": wall_clock(),
                "shards": self.partition.shards,
                "routes": len(self.routes),
                "wall_seconds": wall_seconds,
            }
        )
        return ShardedResult(reports, wall_seconds)

    def _run_pool(self, payloads: List[tuple]) -> List[Dict[str, object]]:
        import os
        from queue import Empty

        # Never oversubscribe: with more workers than cores the
        # shards time-slice, and their large working sets thrash
        # the caches against each other (measured ~2.3x per-shard
        # inflation at 4 shards on 1 core).  Excess shards queue
        # and run at solo speed instead.
        processes = min(self.partition.shards, os.cpu_count() or 1)
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else None
        context = multiprocessing.get_context(start_method)
        manager = context.Manager() if self.heartbeat_every > 0 else None
        heartbeats = manager.Queue() if manager is not None else None
        initializer = _init_worker if heartbeats is not None else None
        initargs = (heartbeats,) if heartbeats is not None else ()

        def drain(block: bool) -> None:
            while True:
                try:
                    event = (
                        heartbeats.get(timeout=0.2)
                        if block
                        else heartbeats.get_nowait()
                    )
                except Empty:
                    return
                self._emit(event)
                block = False

        def wait_and_drain(pending) -> List[Dict[str, object]]:
            if heartbeats is None:
                return pending.get()
            while not pending.ready():
                drain(block=True)
            drain(block=False)
            return pending.get()

        try:
            if start_method == "fork":
                # Forked workers inherit the parent's memory, so the
                # payloads (181k RouteSpecs per shard at full-table
                # scale) ride the fork for free instead of being
                # pickled through the Pool's pipe; only the shard
                # index crosses it.
                global _FORK_PAYLOADS
                _FORK_PAYLOADS = payloads
                try:
                    with context.Pool(
                        processes=processes,
                        maxtasksperchild=1,
                        initializer=initializer,
                        initargs=initargs,
                    ) as pool:
                        reports = wait_and_drain(
                            pool.map_async(
                                _replay_shard_by_index,
                                range(len(payloads)),
                                chunksize=1,
                            )
                        )
                finally:
                    _FORK_PAYLOADS = None
            else:
                with context.Pool(
                    processes=processes,
                    maxtasksperchild=1,
                    initializer=initializer,
                    initargs=initargs,
                ) as pool:
                    reports = wait_and_drain(
                        pool.map_async(_replay_shard, payloads, chunksize=1)
                    )
        finally:
            if manager is not None:
                manager.shutdown()
        return reports
