"""Byte-identity goldens for every telemetry JSONL writer.

Each producer below drives one writer with fixed clocks and returns the
exact bytes it put on disk; ``goldens/<name>.jsonl`` holds those bytes
as the writers produced them before the recorders shared one ring and
one JSONL codec (:mod:`repro.telemetry.records`).  A refactor of the
recorders must leave every file byte-for-byte unchanged.  The readers'
``"{path}:{n}: not JSON"`` errors are pinned here too, type included.

Regenerate (only for an intended format change) with::

    PYTHONPATH=src python tests/unit/test_jsonl_goldens.py
"""

import io
import json
import time
from pathlib import Path

import pytest

from repro.bgp import Prefix
from repro.cli import main
from repro.telemetry.events import (
    EventLog,
    EventSchemaError,
    read_events,
    validate_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.provenance import ProvenanceTracker
from repro.telemetry.spans import SpanRecorder
from repro.telemetry.timeseries import (
    TimeSeriesSampler,
    read_timeseries,
    write_timeseries,
)
from repro.telemetry.trace import TraceRing

from test_provenance_tracker import FakeRoute

GOLDENS = Path(__file__).parent / "goldens"

PREFIX = Prefix.parse("203.0.113.0/24")


class Ticks:
    """A clock that advances by a fixed step on every read."""

    def __init__(self, start=100.0, step=0.25):
        self.now = start - step
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _fill_trace(ring):
    ring.record("enter", "bgp_inbound_filter", "rr_import")
    ring.record("next", "bgp_inbound_filter", "rr_import")
    ring.record("exit", "bgp_inbound_filter", "rr_import", outcome="return", verdict=0)
    ring.record("fallback", "bgp_outbound_filter", "rr_export", error="boom")
    ring.record("quarantine", from_state="closed", to_state="open")


def produce_trace(tmp, monkeypatch):
    ring = TraceRing(capacity=4)
    _fill_trace(ring)
    path = tmp / "trace.jsonl"
    assert ring.export_jsonl(str(path)) == 4
    handle = io.StringIO()
    assert ring.export_jsonl(handle) == 4
    assert handle.getvalue() == path.read_text()
    return {"trace.jsonl": path.read_bytes()}


def produce_trace_timestamps(tmp, monkeypatch):
    monkeypatch.setattr(time, "monotonic", Ticks(5000.0, 0.125))
    ring = TraceRing(timestamps=True)
    _fill_trace(ring)
    path = tmp / "trace_ts.jsonl"
    assert ring.export_jsonl(str(path)) == 5
    return {"trace_timestamps.jsonl": path.read_bytes()}


def produce_spans(tmp, monkeypatch):
    recorder = SpanRecorder("10.0.0.1", capacity=5, clock=Ticks())
    root = recorder.start("update", peer="10.0.0.9")
    phase = recorder.start("inbound", root, prefix=str(PREFIX))
    recorder.point("extension", phase, extension="rr_import", outcome="return")
    recorder.finish(phase, verdict=1)
    recorder.start("update", ("10.0.0.2#1", "10.0.0.2#7"), peer="10.0.0.2")
    recorder.point("rib", root, prefix=str(PREFIX), action="install")
    recorder.finish(root)
    path = tmp / "spans.jsonl"
    assert recorder.export_jsonl(str(path)) == 5
    return {"spans.jsonl": path.read_bytes()}


def produce_events(tmp, monkeypatch):
    path = tmp / "events.jsonl"
    log = EventLog(str(path), clock=Ticks(1_700_000_000.0, 0.5), max_bytes=300)
    log.emit("replay_start", shards=2, routes=100)
    for shard in range(2):
        log.emit("shard_start", shard=shard, routes=50)
    log.append({"event": "shard_finish", "ts": 42.5, "shard": 1, "routes": 50,
                "replay_seconds": 0.75, "worker": "w1"})
    log.emit("quarantine", point="bgp_inbound_filter", extension="crasher",
             from_state="closed", to_state="open")
    log.close()
    assert log.rotations == 1
    return {
        "events.jsonl.1": (tmp / "events.jsonl.1").read_bytes(),
        "events.jsonl": path.read_bytes(),
    }


def _registry():
    registry = MetricsRegistry()
    registry.counter("updates_total", "updates", peer="a").inc(3)
    registry.gauge("queue_depth", "queue").set(2)
    histogram = registry.histogram("run_seconds", "latency")
    for value in (1e-5, 3e-4, 0.02):
        histogram.observe(value)
    return registry


def produce_timeseries(tmp, monkeypatch):
    registry = _registry()
    path = tmp / "sampler.jsonl"
    with TimeSeriesSampler(registry, path=str(path), clock=Ticks(10.0, 1.0),
                           labels={"host": "frr"}) as sampler:
        sampler.sample()
        registry.counter("updates_total", "updates", peer="a").inc(2)
        registry.histogram("run_seconds", "latency").observe(0.5)
        sampler.sample()
    written = tmp / "written.jsonl"
    samples = sampler.series.samples()
    assert write_timeseries(samples, str(written)) == 2
    return {
        "timeseries_sampler.jsonl": path.read_bytes(),
        "write_timeseries.jsonl": written.read_bytes(),
    }


def produce_provenance(tmp, monkeypatch):
    tracker = ProvenanceTracker("10.0.0.1", "frr", clock=Ticks(0.0, 0.001))

    class Ctx:
        prefix = PREFIX
        span = None

    tracker.begin_update(None)
    tracker.begin_route(PREFIX, None)
    tracker.vmm_fallback(Ctx(), "bgp_inbound_filter", "flaky", "boom")
    tracker.record_elimination(PREFIX, "local_pref", FakeRoute("a"), FakeRoute("b"))
    tracker.rib_changed("install", PREFIX, FakeRoute("b"), None)
    tracker.record_export(PREFIX, 0x0A000202, "advertise")
    tracker.end_update()
    path = tmp / "provenance.jsonl"
    count = tracker.export_jsonl(str(path))
    assert count == len(path.read_text().splitlines())
    return {"provenance.jsonl": path.read_bytes()}


def produce_cli(tmp, monkeypatch):
    spans, explain = tmp / "cli_spans.jsonl", tmp / "cli_explain.jsonl"
    assert main(["spans", "198.51.100.0/24", "--output", str(spans)]) == 0
    assert main(["explain", "198.51.100.0/24", "--output", str(explain)]) == 0
    return {
        "cli_spans.jsonl": spans.read_bytes(),
        "cli_explain.jsonl": explain.read_bytes(),
    }


PRODUCERS = [
    produce_trace,
    produce_trace_timestamps,
    produce_spans,
    produce_events,
    produce_timeseries,
    produce_provenance,
    produce_cli,
]


@pytest.mark.parametrize("producer", PRODUCERS, ids=lambda p: p.__name__[8:])
def test_writer_bytes_match_golden(producer, tmp_path, monkeypatch):
    for name, data in producer(tmp_path, monkeypatch).items():
        assert data == (GOLDENS / name).read_bytes(), name


def test_event_reader_errors(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        json.dumps({"event": "shard_start", "ts": 1.0, "shard": 0, "routes": 1})
        + "\n\nnot json\n"
        + json.dumps({"event": "bogus", "ts": 1.0})
        + "\n"
    )
    with pytest.raises(EventSchemaError) as info:
        read_events(str(path))
    assert type(info.value) is EventSchemaError
    assert str(info.value) == (
        f"{path}:3: not JSON (Expecting value: line 1 column 1 (char 0))"
    )
    assert validate_jsonl(str(path)) == (1, [
        "line 3: Expecting value: line 1 column 1 (char 0)",
        "line 4: unknown event type 'bogus'",
    ])
    path.write_text(json.dumps({"event": "bogus", "ts": 1.0}) + "\n")
    with pytest.raises(EventSchemaError) as info:
        read_events(str(path))
    assert str(info.value) == f"{path}:1: unknown event type 'bogus'"


def test_timeseries_reader_errors(tmp_path):
    path = tmp_path / "ts.jsonl"
    path.write_text("\n{broken\n")
    with pytest.raises(ValueError) as info:
        read_timeseries(str(path))
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"{path}:2: not JSON (Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1))"
    )
    path.write_text(json.dumps({"ts": 1.0}) + "\n")
    with pytest.raises(ValueError) as info:
        read_timeseries(str(path))
    assert type(info.value) is ValueError
    assert str(info.value) == f"{path}:1: timeseries_version None, expected 1"


if __name__ == "__main__":
    import tempfile

    GOLDENS.mkdir(exist_ok=True)
    for producer in PRODUCERS:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            for name, data in producer(Path(tmp), patch).items():
                (GOLDENS / name).write_bytes(data)
                print(f"wrote {GOLDENS / name} ({len(data)} bytes)")
