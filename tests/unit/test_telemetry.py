"""Unit tests for repro.telemetry: metrics, trace ring, quarantine."""

import io
import json

import pytest

from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    QuarantineEngine,
    QuarantinePolicy,
    Telemetry,
    TraceRing,
    log_buckets,
    render_prometheus,
)


class TestHistogram:
    def test_log_bucket_boundaries_are_geometric(self):
        bounds = log_buckets(start=1e-6, factor=2.0, count=5)
        assert bounds == [1e-6, 2e-6, 4e-6, 8e-6, 1.6e-5]

    def test_log_buckets_reject_bad_parameters(self):
        with pytest.raises(ValueError):
            log_buckets(start=0.0)
        with pytest.raises(ValueError):
            log_buckets(factor=1.0)
        with pytest.raises(ValueError):
            log_buckets(count=0)

    def test_observe_places_values_on_le_boundaries(self):
        hist = Histogram(boundaries=[1.0, 2.0, 4.0])
        for value in (0.5, 1.0, 1.5, 4.0, 100.0):
            hist.observe(value)
        # le semantics: 1.0 lands in the first bucket, 4.0 in the third.
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(107.0)

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=[1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            Histogram(boundaries=[2.0, 1.0])

    def test_quantiles_walk_cumulative_buckets(self):
        hist = Histogram(boundaries=[1.0, 2.0, 4.0])
        for _ in range(90):
            hist.observe(0.5)
        for _ in range(10):
            hist.observe(3.0)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.99) == 4.0
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["p50"] == 1.0

    def test_empty_histogram_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0 and summary["mean"] == 0.0


class TestRegistry:
    def test_counter_is_get_or_create_per_label_set(self):
        registry = MetricsRegistry()
        a1 = registry.counter("runs", "help", point="in")
        a2 = registry.counter("runs", point="in")
        b = registry.counter("runs", point="out")
        a1.inc(3)
        assert a2.value == 3 and b.value == 0

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric_x", point="in")
        with pytest.raises(ValueError):
            registry.gauge("metric_x", point="in")
        with pytest.raises(ValueError):
            registry.counter("metric_x", other="label")

    def test_gauge_set_inc_and_function(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.get() == 4
        gauge.set_function(lambda: 42)
        assert gauge.get() == 42

    def test_json_export_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits", "hit count", point="in").inc(7)
        registry.histogram("lat", buckets=[1.0], point="in").observe(0.5)
        data = registry.to_json()
        assert data["hits"]["type"] == "counter"
        assert data["hits"]["series"][0] == {"labels": {"point": "in"}, "value": 7}
        assert data["lat"]["series"][0]["count"] == 1


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("xbgp_runs", "total runs", point="in").inc(5)
        registry.gauge("xbgp_depth", "chain depth").set(3)
        text = render_prometheus(registry)
        assert "# TYPE xbgp_runs counter" in text
        assert '# HELP xbgp_runs total runs' in text
        assert 'xbgp_runs_total{point="in"} 5' in text
        assert "# TYPE xbgp_depth gauge" in text
        assert "xbgp_depth 3" in text

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "latency", buckets=[1.0, 2.0], ext="a")
        for value in (0.5, 0.7, 1.5, 9.0):
            hist.observe(value)
        text = render_prometheus(registry)
        assert 'lat_bucket{ext="a",le="1"} 2' in text
        assert 'lat_bucket{ext="a",le="2"} 3' in text
        assert 'lat_bucket{ext="a",le="+Inf"} 4' in text
        assert 'lat_count{ext="a"} 4' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("weird", ext='quo"te\nnl').inc()
        text = render_prometheus(registry)
        assert 'ext="quo\\"te\\nnl"' in text

    def test_help_text_escaped(self):
        # Exposition format: HELP escapes backslash and newline (but
        # not quotes, which are legal there unlike in label values).
        registry = MetricsRegistry()
        registry.counter("esc", 'line1\nline2 back\\slash "quoted"').inc()
        text = render_prometheus(registry)
        assert '# HELP esc line1\\nline2 back\\\\slash "quoted"' in text
        assert "\nline2" not in text  # no raw newline leaks into HELP

    def test_golden_exposition_output(self):
        # Pin the full rendering of a hostile registry: multi-line help,
        # label values with every escapable character, and a histogram.
        registry = MetricsRegistry()
        registry.counter("xbgp_runs", "runs\nby extension", ext='a"b\\c\nd').inc(2)
        registry.gauge("xbgp_depth", "chain depth").set(3)
        hist = registry.histogram("xbgp_lat", "latency", buckets=[1.0, 2.0], ext="x")
        hist.observe(0.5)
        hist.observe(9.0)
        assert render_prometheus(registry) == (
            "# HELP xbgp_depth chain depth\n"
            "# TYPE xbgp_depth gauge\n"
            "xbgp_depth 3\n"
            "# HELP xbgp_lat latency\n"
            "# TYPE xbgp_lat histogram\n"
            'xbgp_lat_bucket{ext="x",le="1"} 1\n'
            'xbgp_lat_bucket{ext="x",le="2"} 1\n'
            'xbgp_lat_bucket{ext="x",le="+Inf"} 2\n'
            'xbgp_lat_sum{ext="x"} 9.5\n'
            'xbgp_lat_count{ext="x"} 2\n'
            "# HELP xbgp_runs runs\\nby extension\n"
            "# TYPE xbgp_runs counter\n"
            'xbgp_runs_total{ext="a\\"b\\\\c\\nd"} 2\n'
        )


class TestTraceRing:
    def test_eviction_keeps_newest_and_counts_losses(self):
        ring = TraceRing(capacity=3)
        for index in range(10):
            ring.record("enter", "p", f"ext{index}")
        assert len(ring) == 3
        assert ring.recorded == 10
        assert ring.evicted == 7
        assert [event["extension"] for event in ring.events()] == [
            "ext7", "ext8", "ext9",
        ]
        assert ring.stats()["evicted"] == 7

    def test_record_filters_and_last(self):
        ring = TraceRing()
        ring.record("enter", "p", "a")
        ring.record("exit", "p", "a", outcome="return", verdict=0)
        ring.record("fallback", "p", "a", error="boom")
        assert len(ring.events("exit")) == 1
        assert ring.last("fallback")["error"] == "boom"
        assert ring.last()["kind"] == "fallback"
        assert ring.last("missing") is None

    def test_sequence_numbers_monotonic(self):
        ring = TraceRing(capacity=2)
        for _ in range(5):
            ring.record("enter")
        seqs = [event["seq"] for event in ring.events()]
        assert seqs == [4, 5]

    def test_jsonl_export_roundtrips(self, tmp_path):
        ring = TraceRing()
        ring.record("enter", "p", "a")
        ring.record("exit", "p", "a", outcome="next")
        path = tmp_path / "trace.jsonl"
        assert ring.export_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[1]["outcome"] == "next"
        buffer = io.StringIO()
        assert ring.export_jsonl(buffer) == 2
        assert buffer.getvalue().count("\n") == 2

    def test_timestamps_off_by_default(self):
        ring = TraceRing()
        ring.record("enter", "p", "a")
        ring.record("next", "p", "a")
        assert all("ts" not in event for event in ring.events())

    def test_timestamps_are_monotonic_on_both_record_paths(self):
        import time

        ring = TraceRing(timestamps=True)
        floor = time.monotonic()
        ring.record("enter", "p", "a")
        ring.record("next", "p", "a")  # field-free events stamp too
        ring.record("exit", "p", "a", outcome="next")
        ceiling = time.monotonic()
        stamps = [event["ts"] for event in ring.events()]
        assert len(stamps) == 3
        assert stamps == sorted(stamps)
        assert all(floor <= ts <= ceiling for ts in stamps)

    def test_timestamps_survive_jsonl_export(self, tmp_path):
        ring = TraceRing(timestamps=True)
        ring.record("enter", "p", "a")
        ring.record("exit", "p", "a")
        path = tmp_path / "trace.jsonl"
        ring.export_jsonl(str(path))
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(isinstance(event["ts"], float) for event in events)


class TestQuarantineEngine:
    def make(self, **kwargs):
        policy = QuarantinePolicy(**kwargs)
        return QuarantineEngine(policy)

    def test_disabled_policy_never_quarantines(self):
        engine = self.make()  # error_threshold=0
        health = engine.state_for("in", "crasher")
        for _ in range(100):
            assert engine.allow(health)
            engine.record_error(health)
        assert health.state == "closed"

    def test_opens_after_consecutive_errors(self):
        engine = self.make(error_threshold=3)
        health = engine.state_for("in", "crasher")
        for _ in range(3):
            engine.record_error(health)
        assert health.state == "open"
        assert engine.is_quarantined("in", "crasher")
        assert not engine.allow(health)
        assert health.quarantine_count == 1

    def test_success_resets_consecutive_errors(self):
        engine = self.make(error_threshold=3)
        health = engine.state_for("in", "flaky")
        engine.record_error(health)
        engine.record_error(health)
        engine.record_success(health)
        engine.record_error(health)
        engine.record_error(health)
        assert health.state == "closed"

    def test_probation_rearms_after_clean_trials(self):
        engine = self.make(error_threshold=2, probation_after=3, probation_successes=2)
        health = engine.state_for("in", "flaky")
        engine.record_error(health)
        engine.record_error(health)
        assert health.state == "open"
        # Three skipped invocations open the probation window.
        assert not engine.allow(health)
        assert not engine.allow(health)
        assert engine.allow(health)
        assert health.state == "half_open"
        engine.record_success(health)
        engine.allow(health)
        engine.record_success(health)
        assert health.state == "closed"
        assert health.consecutive_errors == 0

    def test_probation_failure_reopens(self):
        engine = self.make(error_threshold=2, probation_after=1)
        health = engine.state_for("in", "crasher")
        engine.record_error(health)
        engine.record_error(health)
        assert engine.allow(health)  # immediately on probation
        engine.record_error(health)
        assert health.state == "open"
        assert health.quarantine_count == 2

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            QuarantinePolicy(error_threshold=-1)
        with pytest.raises(ValueError):
            QuarantinePolicy(probation_successes=0)


class TestTelemetryFacade:
    def test_transitions_traced_and_counted(self):
        telemetry = Telemetry(policy=QuarantinePolicy(error_threshold=1))
        health = telemetry.health.state_for("bgp_inbound_filter", "crasher")
        telemetry.health.record_error(health)
        event = telemetry.trace.last("quarantine")
        assert event["to_state"] == "open" and event["extension"] == "crasher"
        snapshot = telemetry.snapshot()
        assert snapshot["health"][0]["state"] == "open"
        assert "xbgp_quarantine_transitions" in snapshot["metrics"]

    def test_snapshot_is_json_serializable(self):
        telemetry = Telemetry()
        telemetry.registry.histogram("lat", point="in").observe(1e-5)
        telemetry.trace.record("enter", "in", "a")
        json.dumps(telemetry.snapshot())

    def test_render_prometheus_delegates(self):
        telemetry = Telemetry()
        telemetry.registry.counter("xbgp_runs").inc()
        assert "xbgp_runs_total 1" in telemetry.render_prometheus()
