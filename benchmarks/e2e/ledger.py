"""The per-layer ledger: spans taken from outside, and what they add up to.

A layer is a module under ``src/repro/``.  Nothing in ``src/`` is
instrumented: spans wrap the benchmark's own calls into each module's
public functions, counts come from the returned shard reports and the
program's public telemetry.  Spans stay in memory until the run ends.

A span is ``(id, name, start, end, parent, trial)`` on the
``perf_counter`` clock, which forked children share with the parent.
A span's self time is its duration minus its children's.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

from repro.bgp.messages import UpdateMessage, split_stream
from repro.bgp.prefix import parse_ipv4
from repro.bgp.roa import HashRoaTable, TrieRoaTable
from repro.plugins import origin_validation, route_reflector
from repro.scale import PartitionMap, build_scale_daemon
from repro.workload import build_updates, iter_routes_from_mrt

from names import PER_LAYER, layer_applies
from workloads import UPSTREAM, UPSTREAM_ASN, Inputs

__all__ = ["Tracer", "probe_layers", "layer_metrics", "summarise"]

Span = Dict[str, object]


class Tracer:
    """In-memory span recorder for one trial."""

    def __init__(self, trial: str) -> None:
        self.trial = trial
        self.spans: List[Span] = []
        self._open: List[int] = []

    def add(self, name: str, start: float, end: float) -> int:
        """Record a finished span under the innermost open one."""
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": self._open[-1] if self._open else None,
                "trial": self.trial,
            }
        )
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.add(name, perf_counter(), 0.0)
        self._open.append(span_id)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[span_id]["end"] = perf_counter()


def _total(spans: Sequence[Span], name: str) -> float:
    return sum(span["end"] - span["start"] for span in spans if span["name"] == name)


def summarise(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: how many, total seconds, self seconds."""
    children: Dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["trial"], span["parent"])
            children[key] = children.get(key, 0.0) + span["end"] - span["start"]
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = summary.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - children.get((span["trial"], span["id"]), 0.0)
    return summary


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return values[min(len(values) - 1, int(share * len(values)))]


# -- probes: calls into single layers ----------------------------------------


def probe_layers(inputs: Inputs, tracer: Tracer) -> Dict[str, int]:
    """Call each layer's public functions directly over this workload's
    own inputs, one span per call site.  Returns the work counts the
    spans are divided by."""
    name = inputs.name
    counts: Dict[str, int] = {}

    if inputs.mrt_path is not None:
        routes = list(iter_routes_from_mrt(inputs.mrt_path))
        with tracer.span("scale.partition"):
            partition = PartitionMap((spec.prefix for spec in routes), inputs.config["shards"])
            shard_of = partition.shard_of
            for spec in routes:
                shard_of(spec.prefix)
        # The bytes a shard worker builds and replays, rebuilt here so
        # the codec can be timed over them.
        feed = [
            update.encode()
            for update in build_updates(
                routes,
                next_hop=parse_ipv4(UPSTREAM),
                session="ebgp",
                sender_asn=UPSTREAM_ASN,
            )
        ]
    else:
        feed = [payload for phase in inputs.phases for payload in phase.feed]

    decoded: List[UpdateMessage] = []
    with tracer.span("bgp.decode"):
        for payload in feed:
            for message in split_stream(bytearray(payload)):
                message.attributes
                message.nlri
                decoded.append(message)
    counts["updates"] = len(decoded)
    # A decoded message re-emits its attribute bytes verbatim; a fresh
    # one pays the attribute encode an exporter pays.
    fresh = [
        UpdateMessage(message.withdrawn, message.attributes, message.nlri)
        for message in decoded
    ]
    with tracer.span("bgp.encode"):
        for message in fresh:
            message.encode()

    pairs = inputs.expect.get("pairs")
    if pairs is not None:
        counts["roa_checks"] = len(pairs)
        for label, table in (("hash", HashRoaTable()), ("trie", TrieRoaTable())):
            table.extend(inputs.config["roas"])
            validate = table.validate
            with tracer.span("bgp.roa_validate." + label):
                for prefix, origin in pairs:
                    validate(prefix, origin)

    if inputs.config["mode"] == "extension":
        if name == "rr-ext-frr":
            manifest = route_reflector.build_manifest()
        else:
            manifest = origin_validation.build_manifest(inputs.config["roas"])
        with tracer.span("xc.compile"):
            program = manifest.load()
        daemon, _ = build_scale_daemon(
            {
                "implementation": inputs.config["implementation"],
                "feature": "plain",
                "mode": "native",
            }
        )
        with tracer.span("core.attach"):
            daemon.vmm.attach_program(program)
    return counts


# -- spans and counters -> named metrics ---------------------------------------


def layer_metrics(
    inputs: Inputs,
    traced: Dict[str, object],
    spans: Sequence[Span],
    counts: Dict[str, int],
    untraced_wall_s: float,
    pair_walls: Optional[Dict[str, float]],
) -> Dict[str, float]:
    """Every per-layer metric of the contract for one workload.

    ``spans`` holds the traced trial's and the probe's spans.
    ``untraced_wall_s`` is the median wall of this workload's untraced
    trials (``trace.overhead_pct`` compares the traced trial with it);
    ``pair_walls`` holds the same median for both of the ``rr-*`` pair
    (``core.ext_over_native``, ``core.ext_minus_native_us_per_route``).
    A metric that is not taken on this workload reads 0.
    """
    routes = inputs.routes
    counters = traced["counters"]
    values: Dict[str, float] = {}

    def per(seconds: float, work: int) -> float:
        """Microseconds per unit of work."""
        return seconds * 1e6 / work if work else 0.0

    values["workload.gen_s"] = inputs.gen_s
    values["trace.overhead_pct"] = 100.0 * (traced["wall_s"] - untraced_wall_s) / untraced_wall_s
    values["host.rss_bytes_per_route"] = traced["rss_replay_bytes"] / routes
    values["bgp.decode_us_per_update"] = per(_total(spans, "bgp.decode"), counts["updates"])
    values["bgp.encode_us_per_update"] = per(_total(spans, "bgp.encode"), counts["updates"])
    for label in ("hash", "trie"):
        values["bgp.roa_validate_us." + label] = per(
            _total(spans, "bgp.roa_validate." + label), counts.get("roa_checks", 0)
        )
    values["xc.compile_ms"] = _total(spans, "xc.compile") * 1e3
    values["core.attach_ms"] = _total(spans, "core.attach") * 1e3

    vm_busy = 0.0
    by_point: Dict[str, List[float]] = {}
    for row in counters["extensions"]:
        vm_busy += row["busy_s"]
        point = by_point.setdefault(row["point"], [0.0, 0])
        point[0] += row["busy_s"]
        point[1] += row["runs"]
        runs = counters["executions"].get(row["extension"], 0)
        values["ebpf.instructions_per_run." + row["extension"]] = (
            row["instructions"] / runs if runs else 0.0
        )
        values["ebpf.helper_calls_per_run." + row["extension"]] = (
            row["helper_calls"] / runs if runs else 0.0
        )
    for point, (busy, runs) in by_point.items():
        values["core.vm_us_per_run." + point] = per(busy, runs)
    values["core.vm_busy_s"] = vm_busy
    values["core.executions"] = sum(counters["executions"].values())
    values["core.fallbacks"] = counters["fallbacks"]

    if pair_walls is not None:
        extension, native = pair_walls["rr-ext-frr"], pair_walls["rr-native-frr"]
        values["core.ext_minus_native_us_per_route"] = per(extension - native, routes)
        values["core.ext_over_native"] = extension / native

    if inputs.mrt_path is None:
        sink = _total(spans, "sink.collect")
        values["sink.collect_s"] = sink
        host = inputs.config["implementation"]
        values[host + ".self_us_per_route"] = per(
            _total(spans, "replay") - vm_busy - sink, routes
        )
        calls = sorted(
            span["end"] - span["start"] for span in spans if span["name"] == "host.receive_raw"
        )
        values["host.update_us.p50"] = _percentile(calls, 0.50) * 1e6
        values["host.update_us.p99"] = _percentile(calls, 0.99) * 1e6
        if len(inputs.phases) > 1:
            for phase in inputs.phases:
                values[f"bird.{phase.name}_us_per_route"] = per(
                    _total(spans, "phase." + phase.name), phase.events
                )
    else:
        shards = counters["per_shard"]
        builds = [report["build_seconds"] for report in shards]
        replays = [report["replay_seconds"] for report in shards]
        parse_s = _total(spans, "mrt.parse")
        values["mrt.parse_s"] = parse_s
        values["mrt.parse_routes_per_s"] = routes / parse_s
        values["scale.partition_s"] = _total(spans, "scale.partition")
        values["scale.shard_build_s.max"] = max(builds)
        values["scale.shard_build_s.sum"] = sum(builds)
        values["scale.shard_replay_s.max"] = max(replays)
        values["scale.shard_replay_s.sum"] = sum(replays)
        values["scale.parent_s"] = _total(spans, "scale.run") - max(
            build + replay for build, replay in zip(builds, replays)
        )
        values["scale.imbalance"] = max(replays) * len(replays) / sum(replays)
        hits = sum(report["attr_pool"]["hits"] for report in shards)
        misses = sum(report["attr_pool"]["misses"] for report in shards)
        values["scale.attr_pool_miss_share"] = misses / (hits + misses) if hits + misses else 0.0
        batches = sum(report["batches"] for report in shards)
        values["scale.updates_per_batch"] = (
            sum(report["updates"] for report in shards) / batches if batches else 0.0
        )

    # A layer the contract takes on this workload but the run did not
    # produce is a KeyError here, not a silent 0.
    return {
        layer.name: values[layer.name] if layer_applies(layer, inputs.name) else 0.0
        for layer in PER_LAYER
    }
