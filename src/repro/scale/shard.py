"""Sharded full-table replay.

:class:`ShardedReplay` buckets a :class:`RouteSpec` workload by
attribute group — the ``(as_path, origin, med, communities)`` key
``build_updates`` packs UPDATEs by — so each attribute set is decoded,
interned, rewritten and encoded in one shard only.  Groups go to shards
largest first, each to the least-loaded shard by route count (ties by
shard index); a prefix seen twice stays on its first route's shard.
Because BGP's decision process is independent per prefix, routing all
routes of a prefix to the same worker makes the sharded outcome exactly
the sequential one.  Each bucket replays through its own daemon in a
forked worker (or inline, for debugging and the fuzz oracle), and the
per-shard Loc-RIB snapshots merge deterministically (disjoint by
construction, emitted in shard order with sorted keys).

:class:`PartitionMap` and :func:`split_update` serve live feeds instead,
which must also place prefixes never seen at build time: the map splits
the IPv4 space into contiguous address ranges balanced over the
workload's prefixes and stores the range → shard assignment as aligned
CIDR blocks in a :class:`~repro.bgp.trie.PrefixTrie`; any prefix —
later withdrawals or more-specifics included — maps to a shard by
longest-prefix match on its lowest address.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
from bisect import bisect_right
from collections import Counter
from heapq import heapreplace
from time import perf_counter, time as wall_clock
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..bgp.messages import UpdateMessage
from ..bgp.prefix import Prefix
from ..bgp.trie import PrefixTrie
from ..frr.attrs_intern import AttrPool
# Loads both host stacks, the plugins and the compiled tier with this
# module, so forked shard workers inherit them instead of importing them
# inside their timed DUT build.
from ..sim.testbed import (
    UPSTREAM,
    RunSpec,
    build_feed,
    build_scale_daemon,
    normalise_snapshot,
)
from ..telemetry.aggregate import merge_into, snapshot_registry
from ..telemetry.events import EventLog
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.timeseries import TimeSeriesSampler, merge_timeseries
from ..workload.rib_gen import RouteSpec
from .batch import BatchProcessor

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "PartitionMap",
    "ShardedReplay",
    "ShardedResult",
    "build_scale_daemon",
    "normalise_snapshot",
    "replay_feed",
    "split_update",
]

#: Trace-ring events each worker ships back with its telemetry report.
_TRACE_TAIL = 256


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


def replay_feed(
    daemon,
    feed: Sequence[bytes],
    batch: int = 1,
    events: Optional[EventLog] = None,
    tick: Optional[Callable[[int], None]] = None,
) -> int:
    """Replay ``feed`` into ``daemon`` from the upstream peer.

    The one replay loop: sequential (``batch == 1``) or through a
    :class:`BatchProcessor` (``events`` gets its ``batch_flush``
    events), flushed at the end.  ``tick(done)`` runs after every
    UPDATE with the number fed so far — what heartbeats and mid-replay
    time-series samples hang off.  Returns the batches flushed.
    """
    processor = None
    receive = daemon.receive_raw
    if batch > 1:
        processor = BatchProcessor(daemon, batch_size=batch, events=events)
        receive = processor.receive_raw
    if tick is None:
        for payload in feed:
            receive(UPSTREAM, payload)
    else:
        for done, payload in enumerate(feed, start=1):
            receive(UPSTREAM, payload)
            tick(done)
    if processor is None:
        return 0
    processor.flush()
    return processor.batches_flushed


class _ShardEvents:
    """The ``EventLog.emit`` side of a worker: stamps the shard and
    hands the event to the heartbeat channel."""

    def __init__(self, put: Callable[[Dict[str, object]], None], shard: int) -> None:
        self._put = put
        self._shard = shard

    def emit(self, event: str, **fields: object) -> None:
        self._put({"event": event, "ts": wall_clock(), "shard": self._shard, **fields})


def _replay_shard(
    spec: RunSpec,
    shard: int,
    routes: Sequence[RouteSpec],
    put: Optional[Callable[[Dict[str, object]], None]],
) -> Dict[str, object]:
    """Worker: build a DUT, build + replay this shard's feed, return a
    picklable report (run in a forked worker, or inline).

    When the parent armed heartbeats (``put`` is its channel), the
    worker announces ``shard_start``, streams ``shard_progress`` every
    ``heartbeat_every`` updates, forwards its DUT's ``quarantine``
    transitions, and closes with ``shard_finish`` — the raw feed behind
    live progress, ETA, and the lifecycle event log.  When the daemon
    runs with telemetry on, the full registry (mergeable snapshot), the
    breaker table and the trace-ring tail ride back in the report.
    """
    every = spec.heartbeat_every
    events = _ShardEvents(put, shard) if put is not None else None
    if events is not None:
        events.emit("shard_start", routes=len(routes))
    # The replay allocates millions of acyclic objects (routes, attrs,
    # messages); cyclic-gc passes over that live set are pure overhead,
    # so collection pauses for the duration (refcounting still frees
    # everything transient; a worker process exits right after anyway).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        daemon, collector = build_scale_daemon(spec)
        feed, routes_done = build_feed(spec, routes, progress=events is not None)
        build_seconds = perf_counter() - started

        telemetry = daemon.vmm.telemetry
        sampler = None
        if telemetry is not None:
            # Breaker transitions reach the parent's event log.
            telemetry.events = events
            if spec.timeseries_every > 0:
                # Mid-replay samples of this worker's own registry; the
                # parent merges them into one shard-labeled time-series.
                sampler = TimeSeriesSampler(telemetry.registry)
        tick = None
        if events is not None or sampler is not None:

            def tick(done: int) -> None:
                if events is not None and done % every == 0:
                    events.emit(
                        "shard_progress",
                        routes_done=routes_done[done - 1],
                        routes=len(routes),
                    )
                if sampler is not None and done % spec.timeseries_every == 0:
                    sampler.sample()

        started = perf_counter()
        batches = replay_feed(daemon, feed, spec.batch, tick=tick)
        replay_seconds = perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    if events is not None:
        events.emit(
            "shard_finish",
            routes=len(routes),
            replay_seconds=replay_seconds,
            build_seconds=build_seconds,
        )

    telemetry_report = None
    if telemetry is not None:
        # Everything the telemetry stack recorded in this process, in
        # picklable form: the registry as a mergeable snapshot, the
        # breaker table, and the tail of the trace ring.
        daemon.update_telemetry_gauges()
        if sampler is not None:
            # Final post-replay sample (gauges now up to date): the
            # merged series' last sample must carry the full totals.
            sampler.sample()
        telemetry_report = {
            "registry": snapshot_registry(telemetry.registry),
            "health": telemetry.health.snapshot(),
            "trace_tail": telemetry.trace.events()[-_TRACE_TAIL:],
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
    if spec.collect == "summary":
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


def _fork_shard(
    spec: RunSpec, shard: int, routes: Sequence[RouteSpec], heartbeats: bool
) -> Tuple[int, Connection]:
    """Fork one worker for ``shard``; returns ``(pid, receiving end of
    its pipe)``.  The child inherits its bucket with the parent's
    memory, sends ``(kind, body)`` messages — ``event`` heartbeats, then
    one ``report``, or an ``error`` carrying the exception (None when it
    does not survive pickling) and its formatted traceback — and exits
    without running the parent's exit handlers."""
    # Imported here, not with the module: the sequential replays import
    # this module too and never fork.
    from multiprocessing.connection import Pipe

    receiver, sender = Pipe(duplex=False)
    pid = os.fork()
    if pid:
        sender.close()
        return pid, receiver
    status = 1
    try:
        receiver.close()
        put = (lambda event: sender.send(("event", event))) if heartbeats else None
        try:
            sender.send(("report", _replay_shard(spec, shard, routes, put)))
            status = 0
        except Exception as exc:
            import traceback

            trace = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = None
            sender.send(("error", (exc, trace)))
    finally:
        sys.stderr.flush()
        os._exit(status)


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


def _bucket(routes: Iterable[RouteSpec], shards: int) -> Tuple[Tuple[RouteSpec, ...], ...]:
    """Attribute-group buckets of ``routes`` for up to ``shards``
    workers (see the module docstring); never an empty bucket unless
    the workload is empty."""
    ordered = list(routes)
    groups: Dict[tuple, int] = {}  # (as_path, origin, med, communities) -> id
    first: Dict[Prefix, int] = {}  # prefix -> its first route's group
    owners = [
        first.setdefault(route[0], groups.setdefault(route[1:], len(groups)))
        for route in ordered
    ]
    sizes = Counter(owners)
    loads = [(0, shard) for shard in range(max(1, min(shards, len(sizes))))]
    home = [0] * len(groups)
    for group in sorted(sizes, key=lambda group: (-sizes[group], group)):
        load, shard = loads[0]  # least loaded, lowest index on a tie
        home[group] = shard
        heapreplace(loads, (load + sizes[group], shard))
    buckets: List[List[RouteSpec]] = [[] for _ in loads]
    for route, group in zip(ordered, owners):
        buckets[home[group]].append(route)
    return tuple(map(tuple, buckets))


class ShardedReplay:
    """Bucket a workload by attribute group and replay each bucket
    through its own daemon.

    ``implementation`` plus :class:`~repro.sim.testbed.RunSpec` keywords
    (here ``shards`` defaults to 2, ``batch`` to 64), or a ready
    ``RunSpec`` in its place, describe the run; every worker builds its
    DUT and feed from that one description.  ``shards`` is an upper
    bound: never more shards than attribute groups.  ``events`` (an
    :class:`~repro.telemetry.EventLog`) and ``progress`` (a callable)
    are parent-side sinks for the workers' heartbeats: replay and shard
    lifecycle, progress, and the ``quarantine`` transitions of every
    worker DUT running with telemetry on, stamped with its ``shard``.

    ``backend="process"`` forks one worker per shard, never more at once
    than cores, each reporting through its own pipe; a worker that dies
    before reporting is a :class:`RuntimeError` naming its shard, and an
    exception a worker raises is re-raised in the parent with such a
    ``RuntimeError`` (carrying the worker's traceback) as its cause.
    ``backend="inline"`` runs the same worker function in-process — same
    code path minus the process boundary, used by the fuzz oracle and
    for debugging.
    """

    def __init__(
        self,
        implementation: Union[str, RunSpec],
        routes: Iterable[RouteSpec],
        *,
        backend: str = "process",
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
        events: Optional[EventLog] = None,
        **fields: object,
    ) -> None:
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        if isinstance(implementation, RunSpec):
            spec = implementation.replace(**fields)
        else:
            spec = RunSpec(implementation, **{"shards": 2, "batch": 64, **fields})
        if spec.heartbeat_every <= 0 and (progress is not None or events is not None):
            # A sink was attached but no cadence chosen: a sensible
            # default beats silently never hearing from the workers.
            spec = spec.replace(heartbeat_every=500)
        self.spec = spec
        self.backend = backend
        self.progress = progress
        self.events = events
        self._buckets = _bucket(routes, spec.shards)

    @property
    def buckets(self) -> Tuple[Tuple[RouteSpec, ...], ...]:
        """Each shard's routes, in input order."""
        return self._buckets

    def _emit(self, event: Dict[str, object]) -> None:
        """Deliver one heartbeat to the attached sinks (parent side)."""
        if self.events is not None:
            self.events.append(dict(event))
        if self.progress is not None:
            self.progress(event)

    def run(self) -> ShardedResult:
        started = perf_counter()
        shards = len(self.buckets)
        routes = sum(map(len, self.buckets))
        self._emit(
            {"event": "replay_start", "ts": wall_clock(), "shards": shards, "routes": routes}
        )
        if self.backend == "inline" or shards == 1:
            put = self._emit if self.spec.heartbeat_every > 0 else None
            reports = [
                _replay_shard(self.spec, shard, bucket, put)
                for shard, bucket in enumerate(self.buckets)
            ]
        else:
            reports = self._run_forked()
        wall_seconds = perf_counter() - started
        self._emit(
            {
                "event": "replay_finish",
                "ts": wall_clock(),
                "shards": shards,
                "routes": routes,
                "wall_seconds": wall_seconds,
            }
        )
        return ShardedResult(reports, wall_seconds)

    def _run_forked(self) -> List[Dict[str, object]]:
        from multiprocessing.connection import wait  # lazily, as in _fork_shard

        # Never oversubscribe: with more workers than cores the shards
        # time-slice, and their large working sets thrash the caches
        # against each other (measured ~2.3x per-shard inflation at 4
        # shards on 1 core).  Excess shards wait and run at solo speed.
        limit = min(len(self.buckets), os.cpu_count() or 1)
        waiting = list(enumerate(self.buckets))
        heartbeats = self.spec.heartbeat_every > 0
        running: Dict[Connection, Tuple[int, int]] = {}  # receiver -> shard, pid
        reports: Dict[int, Dict[str, object]] = {}
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            while waiting or running:
                while waiting and len(running) < limit:
                    shard, bucket = waiting.pop(0)
                    pid, receiver = _fork_shard(self.spec, shard, bucket, heartbeats)
                    running[receiver] = (shard, pid)
                for receiver in wait(list(running)):
                    shard, pid = running[receiver]
                    try:
                        kind, body = receiver.recv()
                    except (EOFError, OSError):  # closed, or cut mid-message
                        del running[receiver]
                        receiver.close()
                        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        if shard not in reports:
                            raise RuntimeError(
                                f"shard {shard} worker exited with status {status} "
                                "before reporting"
                            ) from None
                        continue
                    if kind == "event":
                        self._emit(body)
                    elif kind == "report":
                        reports[shard] = body
                    else:
                        error, trace = body
                        failure = RuntimeError(f"shard {shard} worker failed:\n{trace}")
                        if error is None:
                            raise failure
                        # The worker's own exception, as the inline backend
                        # raises it, caused by one naming the shard.
                        raise error from failure
        finally:
            for receiver, (_, pid) in running.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                receiver.close()
        return list(reports.values())
