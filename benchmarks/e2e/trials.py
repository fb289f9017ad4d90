"""Trial bodies and output oracles, child side.

A trial is a closed loop with one client: this process hands the
pre-encoded UPDATE bytes to the DUT's ``receive_raw`` and offers the
next message when the call returns; bytes cross no socket (in-process
hand-off, not loopback).  The timed region is first byte offered ->
last ``receive_raw`` returned; every check runs after it.

DUTs are built only through ``build_scale_daemon`` / ``ShardedReplay``
with the repo's defaults, so a change of default shows up as a measured
change and a deleted knob cannot break the benchmark.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.bgp.constants import AttrTypeCode
from repro.bgp.prefix import parse_ipv4
from repro.core.insertion_points import InsertionPoint
from repro.plugins import origin_validation
from repro.scale import ShardedReplay, build_scale_daemon, normalise_snapshot
from repro.workload import iter_routes_from_mrt

from ledger import Tracer
from workloads import UPSTREAM, Inputs

__all__ = ["run_trial", "crashed_trial"]

_DOWNSTREAM = "10.0.2.2"
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE


def _peak_rss_bytes() -> int:
    """High-water RSS of this process or of its largest reaped child."""
    return 1024 * max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _drop(data: bytes) -> None:
    """Send function of a neighbour nobody listens to."""


def _digest(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
    return digest.hexdigest()


class _Tally:
    """Routes a trial got wrong, and why."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{self.workload}: {message} ({count})")


def crashed_trial(inputs: Inputs, error: str) -> Dict[str, object]:
    """What a trial that never reported counts as: every route failed."""
    return {"failed": inputs.routes, "problems": [error], "crashed": True}


def run_trial(inputs: Inputs, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """One trial of ``inputs``; ``tracer`` makes it the traced one."""
    if inputs.mrt_path is not None:
        return _sharded_trial(inputs, tracer)
    return _sequential_trial(inputs, tracer)


# -- sequential workloads ---------------------------------------------------


def _sequential_trial(inputs: Inputs, tracer: Optional[Tracer]) -> Dict[str, object]:
    rss_start = _rss_bytes()
    started = perf_counter()
    config = dict(inputs.config)
    if tracer is not None:
        config["telemetry"] = True
    daemon, collector = build_scale_daemon(config)
    if inputs.second_upstream is not None:
        address, asn = inputs.second_upstream
        daemon.add_neighbor(address, asn, _drop)
        daemon.session_up(address)
    setup_s = perf_counter() - started
    if parse_ipv4(UPSTREAM) not in daemon.neighbors:
        raise RuntimeError(f"build_scale_daemon no longer wires upstream {UPSTREAM}")

    receive = daemon.receive_raw
    gc.collect()
    gc.disable()
    try:
        if tracer is None:
            cpu_start = _cpu_seconds()
            start = perf_counter()
            for phase in inputs.phases:
                upstream = phase.upstream
                for payload in phase.feed:
                    receive(upstream, payload)
            wall_s = perf_counter() - start
            cpu_s = _cpu_seconds() - cpu_start
            extras: Dict[str, object] = {}
        else:
            tracer.add("setup", started, started + setup_s)
            exported = _tap_downstream(daemon)
            rss_before = _rss_bytes()
            cpu_start = _cpu_seconds()
            start = perf_counter()
            with tracer.span("replay"):
                for phase in inputs.phases:
                    upstream = phase.upstream
                    with tracer.span("phase." + phase.name):
                        for payload in phase.feed:
                            call_start = perf_counter()
                            receive(upstream, payload)
                            tracer.add("host.receive_raw", call_start, perf_counter())
            wall_s = perf_counter() - start
            cpu_s = _cpu_seconds() - cpu_start
            extras = {"rss_replay_bytes": _rss_bytes() - rss_before}
            # The downstream's share of the replay, re-measured on the
            # very bytes the DUT exported: benchmark-side cost, so the
            # ledger can subtract it from the host's.
            sink = type(collector)()
            with tracer.span("sink.collect"):
                for data in exported:
                    sink.receive(data)
            extras["counters"] = {
                "extensions": _extension_rows(daemon.vmm.telemetry.snapshot()["metrics"]),
                "executions": {
                    name: row["executions"] for name, row in daemon.vmm.stats().items()
                },
                "fallbacks": daemon.vmm.fallbacks,
            }
    finally:
        gc.enable()
    peak_rss = _peak_rss_bytes() - rss_start

    tally = _check_sequential(inputs, daemon, collector)
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_bytes": peak_rss,
        "failed": tally.failed,
        "problems": tally.problems,
        "digest": None,
    }
    if inputs.config["feature"] == "route_reflection":
        snapshot = normalise_snapshot(daemon.loc_rib_snapshot())
        result["digest"] = _digest(sorted(snapshot.items())) + _digest(
            sorted(str(prefix) for prefix in collector.prefixes)
        )
    result.update(extras)
    return result


def _tap_downstream(daemon) -> List[bytes]:
    """Capture the bytes the DUT sends downstream (traced trial only).

    ``build_scale_daemon`` wires the downstream itself and hands out no
    seam, so this reaches into a private field; the only other such
    reach is the validity-counter check below.
    """
    exported: List[bytes] = []
    address = parse_ipv4(_DOWNSTREAM)
    deliver = daemon._send_fns[address]

    def tap(data: bytes) -> None:
        exported.append(data)
        deliver(data)

    daemon._send_fns[address] = tap
    return exported


def _extension_rows(metrics: Dict[str, object]) -> List[Dict[str, object]]:
    """Per (insertion point, extension) rows of the program's own public
    counters, from a registry's ``to_json()`` view."""
    rows: Dict[Tuple[str, str], Dict[str, object]] = {}
    families = (
        ("xbgp_extension_run_seconds", "sum", "busy_s"),
        ("xbgp_extension_run_seconds", "count", "runs"),
        ("xbgp_extension_instructions", "value", "instructions"),
        ("xbgp_extension_helper_calls", "value", "helper_calls"),
    )
    for family, field, key in families:
        for series in metrics.get(family, {}).get("series", ()):
            labels = series["labels"]
            row = rows.setdefault(
                (labels["point"], labels["extension"]),
                {"point": labels["point"], "extension": labels["extension"]},
            )
            row[key] = series[field]
    return [rows[key] for key in sorted(rows)]


def _check_sequential(inputs: Inputs, daemon, collector) -> _Tally:
    """Routes missing or wrong after the run, plus extension fallbacks."""
    tally = _Tally(inputs.name)
    fail = tally.fail
    expected = inputs.expect["prefixes"]
    held = collector.prefixes
    fail(len(expected - held), "prefixes missing downstream")
    fail(len(held - expected), "unexpected prefixes downstream")
    fail(abs(len(daemon.loc_rib) - len(expected)), "Loc-RIB size differs from the table")
    fail(daemon.vmm.fallbacks, "extension fallbacks to native")

    validity = inputs.expect.get("validity")
    if validity is not None:
        # No public accessor leads from a scale daemon to its program
        # state; tests/integration/test_origin_validation.py reads the
        # chain the same way.
        chain = daemon.vmm._chains[InsertionPoint.BGP_INBOUND_FILTER]
        counted = origin_validation.read_validity_counters(chain[0].state)
        fail(
            sum(abs(counted.get(name, 0) - want) for name, want in validity.items()),
            f"validity split {counted} differs from the benchmark's {validity}",
        )

    winners = inputs.expect.get("winners")
    if winners is not None:
        wrong = 0
        snapshot = daemon.loc_rib_snapshot()
        for prefix, upstream_asn in winners.items():
            first_asn = None
            for attribute in snapshot.get(prefix, ()):
                if attribute.type_code == AttrTypeCode.AS_PATH:
                    first_asn = next(attribute.as_path().asn_iter(), None)
            if first_asn != upstream_asn:
                wrong += 1
        fail(wrong, "best path is not the upstream the generator's model picks")
    return tally


# -- the sharded full-table workload ----------------------------------------


def _sharded_trial(inputs: Inputs, tracer: Optional[Tracer]) -> Dict[str, object]:
    rss_start = _rss_bytes()
    config = dict(inputs.config)
    if tracer is not None:
        config["telemetry"] = True
    gc.collect()
    gc.disable()
    try:
        cpu_start = _cpu_seconds()
        start = perf_counter()
        # Timed file -> merged result, so streaming the MRT decode into
        # the shards or overlapping build with replay shows as a gain
        # instead of moving time across a boundary.
        routes = list(iter_routes_from_mrt(inputs.mrt_path))
        parsed = perf_counter()
        replay = ShardedReplay("frr", routes, **config)
        constructed = perf_counter()
        outcome = replay.run()
        end = perf_counter()
        cpu_s = _cpu_seconds() - cpu_start
    finally:
        gc.enable()
    peak_rss = _peak_rss_bytes() - rss_start

    tally = _Tally(inputs.name)
    tally.fail(
        abs(outcome.prefix_count - inputs.prefixes),
        "downstream prefix count differs from the table",
    )
    tally.fail(
        abs(sum(report["loc_rib_count"] for report in outcome.per_shard) - inputs.prefixes),
        "summed Loc-RIB count differs from the table",
    )
    tally.fail(
        sum(report["fallbacks"] for report in outcome.per_shard),
        "extension fallbacks to native",
    )

    result: Dict[str, object] = {
        "wall_s": end - start,
        "cpu_s": cpu_s,
        "setup_s": constructed - start,
        "peak_rss_bytes": peak_rss,
        "failed": tally.failed,
        "problems": tally.problems,
        "digest": None,
    }
    if tracer is not None:
        tracer.add("mrt.parse", start, parsed)
        tracer.add("scale.construct", parsed, constructed)
        tracer.add("scale.run", constructed, end)
        result["rss_replay_bytes"] = _rss_bytes() - rss_start
        result["counters"] = {
            "extensions": _extension_rows(
                outcome.merged_registry(shard_labels=False).to_json()
            ),
            "executions": {},
            "fallbacks": sum(report["fallbacks"] for report in outcome.per_shard),
            "per_shard": [
                {
                    key: report[key]
                    for key in (
                        "shard", "routes", "updates", "batches",
                        "build_seconds", "replay_seconds", "attr_pool",
                    )
                }
                for report in outcome.per_shard
            ],
        }
    return result
