"""One contract for every recorder built on ``repro.telemetry.records.Ring``.

The trace ring, the span recorder, the event log and the time series
share one bounded ring and one JSONL codec, so each must reject a
non-positive capacity with its own message, keep the newest records
while counting what it evicts, report the same four ``stats()`` keys,
and come back unchanged from its writer through its reader.
"""

import pytest

from repro.telemetry.aggregate import snapshot_registry
from repro.telemetry.events import EventLog, read_events
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.records import read_jsonl
from repro.telemetry.spans import SpanRecorder
from repro.telemetry.timeseries import TimeSeries, read_timeseries, write_timeseries
from repro.telemetry.trace import TraceRing


def _exported(ring, tmp_path):
    path = tmp_path / "ring.jsonl"
    assert ring.export_jsonl(str(path)) == len(ring)
    return read_jsonl(str(path), lambda record: record)


def _streamed(log, tmp_path):
    log.close()
    return read_events(str(tmp_path / "events.jsonl"))


def _samples(series, tmp_path):
    path = str(tmp_path / "series.jsonl")
    assert write_timeseries(series.samples(), path) == len(series)
    return read_timeseries(path)


def _snapshot(index):
    registry = MetricsRegistry()
    registry.counter("updates_total", "updates").inc(index + 1)
    return snapshot_registry(registry)


#: name -> (noun in the capacity error, make(capacity, tmp_path),
#: add(ring, i) -> record, marker(record) -> i, write-then-read).
CASES = {
    "trace": (
        "trace",
        lambda capacity, tmp: TraceRing(capacity),
        lambda ring, i: ring.record("enter", "p", f"ext{i}", index=i),
        lambda record: record["index"],
        _exported,
    ),
    "span": (
        "span",
        lambda capacity, tmp: SpanRecorder("r1", capacity, clock=lambda: 1.5),
        lambda ring, i: ring.point("update", index=i),
        lambda record: record["index"],
        _exported,
    ),
    "event": (
        "event",
        lambda capacity, tmp: EventLog(
            str(tmp / "events.jsonl"), capacity=capacity, clock=lambda: 2.5
        ),
        lambda ring, i: ring.emit("shard_start", shard=i, routes=10),
        lambda record: record["shard"],
        _streamed,
    ),
    "timeseries": (
        "time-series",
        lambda capacity, tmp: TimeSeries(capacity, labels={"host": "frr"}),
        lambda ring, i: ring.append(_snapshot(i), float(i)),
        lambda record: int(record["ts"]),
        _samples,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_non_positive_capacity_rejected(case, tmp_path):
    noun, make = case[0], case[1]
    for capacity in (0, -1):
        with pytest.raises(ValueError, match=f"^{noun} capacity must be >= 1$"):
            make(capacity, tmp_path)


def test_eviction_keeps_newest_and_is_counted(case, tmp_path):
    _, make, add, marker, _ = case
    ring = make(3, tmp_path)
    records = [add(ring, i) for i in range(10)]
    assert len(ring) == 3
    assert (ring.recorded, ring.evicted) == (10, 7)
    assert [marker(record) for record in ring.records()] == [7, 8, 9]
    assert ring.records() == records[-3:]
    assert ring.last() is records[-1]
    assert ring.stats() == {
        "capacity": 3, "buffered": 3, "recorded": 10, "evicted": 7,
    }


def test_write_then_read_round_trips(case, tmp_path):
    _, make, add, _, write_then_read = case
    ring = make(8, tmp_path)
    for i in range(4):
        add(ring, i)
    assert write_then_read(ring, tmp_path) == ring.records()
