"""Integration: the cross-process telemetry plane end to end.

A sharded replay with worker telemetry on must produce a merged
registry whose counters are *exactly* the counters a sequential
(single-shard) replay of the same workload records — instrumentation
that changes under partitioning would be lying.  On top of that, the
lifecycle event log must tell a coherent story (routes announced ==
routes finished), and the HTTP exporter must serve live progress
mid-replay, then the merged registry afterwards.
"""

import json
import urllib.request

import pytest

from repro.cli import main
from repro.scale import ShardedReplay
from repro.sim.harness import ConvergenceHarness
from repro.telemetry import EventLog, ReplayProgress, TelemetryExporter
from repro.telemetry.events import validate_jsonl
from repro.telemetry.metrics import MetricsRegistry
from repro.workload import RibGenerator


def counter_values(registry, prefix="xbgp_extension"):
    out = {}
    for family in registry.families():
        if family.kind != "counter" or not family.name.startswith(prefix):
            continue
        for values, child in family.children.items():
            out[(family.name, values)] = child.value
    return out


def run_replay(implementation, routes, shards, **kwargs):
    return ShardedReplay(
        implementation,
        routes,
        feature="route_reflection",
        mode="extension",
        shards=shards,
        batch=16,
        backend="inline",
        telemetry=True,
        **kwargs,
    ).run()


@pytest.mark.parametrize("implementation", ["frr", "bird"])
def test_merged_worker_counters_match_sequential(implementation):
    routes = RibGenerator(n_routes=240, seed=17).generate()
    sequential = run_replay(implementation, routes, shards=1)
    sharded = run_replay(implementation, routes, shards=3)
    assert sharded.shards == 3

    seq_counts = counter_values(sequential.merged_registry(shard_labels=False))
    sharded_counts = counter_values(sharded.merged_registry(shard_labels=False))
    assert seq_counts  # the extension actually executed
    assert sharded_counts == seq_counts

    # The shard-labeled view carries the same totals, attributed.
    labeled = sharded.merged_registry(shard_labels=True)
    labeled_totals = {}
    for (name, values), value in counter_values(labeled).items():
        family = labeled._families[name]
        stripped = tuple(
            v
            for label_name, v in zip(family.label_names, values)
            if label_name != "shard"
        )
        labeled_totals[(name, stripped)] = (
            labeled_totals.get((name, stripped), 0) + value
        )
    assert labeled_totals == seq_counts


def test_event_log_tells_a_coherent_story():
    routes = RibGenerator(n_routes=200, seed=23).generate()
    log = EventLog()
    result = run_replay("frr", routes, shards=2, events=log, heartbeat_every=2)
    assert result.prefix_count == len(routes)

    starts = log.events("replay_start")
    finishes = log.events("replay_finish")
    assert len(starts) == len(finishes) == 1
    assert starts[0]["routes"] == len(routes)
    assert finishes[0]["wall_seconds"] > 0

    shard_finishes = log.events("shard_finish")
    assert len(shard_finishes) == 2
    assert sum(e["routes"] for e in shard_finishes) == len(routes)
    assert log.events("shard_progress")  # heartbeats actually streamed

    # seq is strictly increasing across the whole log.
    seqs = [e["seq"] for e in log.events()]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


#: The three ways a Fig. 3 DUT runs: in the harness's own process, in an
#: inline shard "worker", in forked shard workers.
def _single_daemon(implementation, routes, **run):
    ConvergenceHarness(
        implementation, "route_reflection", "extension", routes, **run
    ).run()
    return 1


def _inline_one_shard(implementation, routes, **run):
    return run_replay(implementation, routes, shards=1, **run).shards


def _process_two_shards(implementation, routes, **run):
    return ShardedReplay(
        implementation,
        routes,
        feature="route_reflection",
        mode="extension",
        shards=2,
        telemetry=True,
        **run,
    ).run().shards


@pytest.mark.parametrize(
    "drive", [_single_daemon, _inline_one_shard, _process_two_shards]
)
@pytest.mark.parametrize("implementation", ["frr", "bird"])
def test_breaker_trip_reaches_the_event_log(implementation, drive, tmp_path, capsys):
    """A breaker that opens puts exactly one ``quarantine`` event per
    DUT in the run's event log, wherever that DUT lives (it used to be
    wired for a parent-side DUT only)."""
    routes = RibGenerator(n_routes=120, seed=3).generate()
    path = str(tmp_path / "events.jsonl")
    log = EventLog(path)
    duts = drive(
        implementation, routes, events=log, quarantine_after=3, inject_crasher=True
    )
    log.close()

    trips = log.events("quarantine")
    assert len(trips) == duts
    for trip in trips:
        assert (trip["extension"], trip["from_state"], trip["to_state"]) == (
            "crash", "closed", "open",
        )
    if drive is not _single_daemon:
        assert sorted(trip["shard"] for trip in trips) == list(range(duts))
        # ... and inside its shard's lifecycle.
        for trip in trips:
            (start,) = [
                e for e in log.events("shard_start") if e["shard"] == trip["shard"]
            ]
            (finish,) = [
                e for e in log.events("shard_finish") if e["shard"] == trip["shard"]
            ]
            assert start["seq"] < trip["seq"] < finish["seq"]
    valid, errors = validate_jsonl(path)
    assert not errors and valid == len(log.events())

    assert main(["events", path, "--type", "quarantine", "--format", "jsonl"]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [event["seq"] for event in printed] == [trip["seq"] for trip in trips]


def test_exporter_serves_live_progress_then_merged_registry():
    routes = RibGenerator(n_routes=150, seed=29).generate()
    live_registry = MetricsRegistry()
    progress = ReplayProgress(live_registry)
    scraped_mid_replay = []

    with TelemetryExporter(registry=live_registry) as exporter:

        def on_heartbeat(event):
            with exporter.lock:
                progress.on_event(event)
            if event.get("event") == "shard_progress" and not scraped_mid_replay:
                with urllib.request.urlopen(
                    exporter.url("/metrics"), timeout=5
                ) as response:
                    scraped_mid_replay.append(response.read().decode())

        result = run_replay(
            "frr", routes, shards=2, progress=on_heartbeat, heartbeat_every=2
        )

        # The mid-replay scrape saw live progress gauges.
        assert scraped_mid_replay
        assert "xbgp_replay_progress_routes" in scraped_mid_replay[0]
        assert "xbgp_replay_done_ratio" in scraped_mid_replay[0]

        # Swap to the merged post-replay registry, as the bench does.
        exporter.replace_sources(
            registry=result.merged_registry(shard_labels=True),
            health=result.telemetry["health"],
        )
        with urllib.request.urlopen(exporter.url("/metrics"), timeout=5) as response:
            text = response.read().decode()
        assert 'shard="0"' in text and 'shard="1"' in text
        assert "xbgp_extension_executions_total" in text
        with urllib.request.urlopen(exporter.url("/health"), timeout=5) as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["extensions"] == len(result.telemetry["health"])

    assert progress.finished
    assert progress.ratio() == 1.0


def test_worker_telemetry_off_ships_nothing():
    routes = RibGenerator(n_routes=100, seed=31).generate()
    result = ShardedReplay(
        "frr", routes, shards=2, backend="inline"
    ).run()
    assert result.telemetry is None
    assert all(r["telemetry"] is None for r in result.per_shard)
    with pytest.raises(RuntimeError, match="telemetry off"):
        result.merged_registry()


@pytest.mark.parametrize("implementation", ["frr", "bird"])
def test_merged_timeseries_final_sample_matches_sequential(implementation):
    """The temporal extension of partition invariance: the *final*
    sample of the merged shard-labeled time-series carries exactly the
    counter totals a sequential replay's final sample records."""
    from repro.telemetry.timeseries import counter_total

    routes = RibGenerator(n_routes=240, seed=37).generate()
    sequential = run_replay(
        implementation, routes, shards=1, timeseries_every=40
    )
    sharded = run_replay(
        implementation, routes, shards=3, timeseries_every=40
    )
    assert sequential.shard_timeseries is not None
    assert sharded.shard_timeseries is not None
    assert len(sharded.shard_timeseries) == 3

    seq_final = sequential.merged_timeseries(shard_labels=False)[-1]
    merged = sharded.merged_timeseries()
    final = merged[-1]
    for family in (
        "xbgp_extension_executions",
        "xbgp_extension_instructions",
        "xbgp_extension_next",
    ):
        seq_total = counter_total(seq_final, family)
        assert seq_total is not None and seq_total > 0
        assert counter_total(final, family) == seq_total
        # The shard attribution partitions the total exactly.
        per_shard = [
            counter_total(final, family, {"shard": str(index)}) or 0.0
            for index in range(3)
        ]
        assert sum(per_shard) == seq_total
        assert all(value > 0 for value in per_shard)

    # Counters are monotone along the merged series.
    executions = [
        counter_total(sample, "xbgp_extension_executions") or 0.0
        for sample in merged
    ]
    assert executions == sorted(executions)
    # Samples exist beyond the final one: the workers really sampled
    # mid-replay instead of snapshotting once at the end.
    assert len(merged) > 3


def test_timeseries_off_ships_no_samples():
    routes = RibGenerator(n_routes=100, seed=41).generate()
    result = run_replay("frr", routes, shards=2)
    assert result.shard_timeseries is None
    with pytest.raises(RuntimeError, match="without time-series"):
        result.merged_timeseries()
