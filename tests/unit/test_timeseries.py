"""Unit tests for repro.telemetry.timeseries.

Covers the sample schema, the bounded ring, the sampler (cadence
gating, write-through JSONL), the derived series (counter rates,
cumulative histogram quantiles, gauge last-value), the shard merge path
and its partition-invariance law, and the run-diff helpers behind
``xbgp stats --diff``.
"""

import json

import pytest

from repro.telemetry.aggregate import snapshot_registry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import (
    TIMESERIES_VERSION,
    TimeSeries,
    TimeSeriesSampler,
    counter_rates,
    counter_total,
    diff_samples,
    histogram_quantiles,
    load_snapshot_source,
    make_sample,
    merge_timeseries,
    read_timeseries,
    render_diff,
    validate_sample,
    write_timeseries,
)


def _registry(updates=0.0, depth=None, latencies=()):
    registry = MetricsRegistry()
    counter = registry.counter("updates_total", "updates")
    if updates:
        counter.inc(updates)
    if depth is not None:
        registry.gauge("queue_depth", "queue").set(depth)
    histogram = registry.histogram("run_seconds", "latency")
    for value in latencies:
        histogram.observe(value)
    return registry


def _sample(ts, **kwargs):
    return make_sample(snapshot_registry(_registry(**kwargs)), ts)


class TestSampleSchema:
    def test_make_and_validate_round_trip(self):
        sample = _sample(12.5, updates=3)
        assert sample["timeseries_version"] == TIMESERIES_VERSION
        assert validate_sample(sample) is sample

    def test_labels_are_stringified(self):
        sample = make_sample(
            snapshot_registry(_registry()), 1.0, labels={"shard": 3}
        )
        assert sample["labels"] == {"shard": "3"}

    def test_bad_version_rejected(self):
        sample = _sample(1.0)
        sample["timeseries_version"] = 99
        with pytest.raises(ValueError, match="timeseries_version"):
            validate_sample(sample)

    def test_bad_ts_rejected(self):
        sample = _sample(1.0)
        sample["ts"] = "noon"
        with pytest.raises(ValueError, match="'ts'"):
            validate_sample(sample)

    def test_missing_registry_rejected(self):
        with pytest.raises(ValueError, match="registry"):
            validate_sample({"timeseries_version": 1, "ts": 1.0})


class TestTimeSeriesRing:
    def test_append_stamps_monotonic_seq(self):
        series = TimeSeries()
        first = series.append(snapshot_registry(_registry()), 1.0)
        second = series.append(snapshot_registry(_registry()), 2.0)
        assert (first["seq"], second["seq"]) == (1, 2)
        assert series.last() is series.samples()[-1]

    def test_ring_evicts_oldest(self):
        series = TimeSeries(capacity=2)
        for ts in (1.0, 2.0, 3.0):
            series.append(snapshot_registry(_registry()), ts)
        assert [s["ts"] for s in series.samples()] == [2.0, 3.0]
        assert series.recorded == 3
        assert series.evicted == 1
        assert series.stats()["buffered"] == 2

    def test_series_labels_stamped_on_every_sample(self):
        series = TimeSeries(labels={"host": "frr"})
        sample = series.append(
            snapshot_registry(_registry()), 1.0, labels={"shard": "0"}
        )
        assert sample["labels"] == {"host": "frr", "shard": "0"}


class TestSampler:
    def test_sample_snapshots_current_registry(self):
        registry = _registry()
        sampler = TimeSeriesSampler(registry, clock=lambda: 7.0)
        registry.counter("updates_total", "updates").inc(4)
        sample = sampler.sample()
        assert sample["ts"] == 7.0
        assert counter_total(sample, "updates_total") == 4.0

    def test_maybe_sample_respects_cadence(self):
        clock = iter([0.0, 0.4, 1.1, 1.1]).__next__
        sampler = TimeSeriesSampler(
            _registry(), every_seconds=1.0, clock=clock
        )
        assert sampler.maybe_sample() is not None  # first is free
        assert sampler.maybe_sample() is None      # 0.4s later: gated
        assert sampler.maybe_sample() is not None  # 1.1s later: due
        assert len(sampler.series) == 2

    def test_write_through_jsonl_round_trips(self, tmp_path):
        path = str(tmp_path / "ts.jsonl")
        registry = _registry()
        with TimeSeriesSampler(registry, path=path, clock=lambda: 1.0) as s:
            registry.counter("updates_total", "updates").inc()
            s.sample()
            s.sample()
        loaded = read_timeseries(path)
        assert [x["seq"] for x in loaded] == [1, 2]
        assert counter_total(loaded[-1], "updates_total") == 1.0

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_timeseries(str(path))
        path.write_text(json.dumps({"ts": 1.0}) + "\n")
        with pytest.raises(ValueError, match="timeseries_version"):
            read_timeseries(str(path))

    def test_write_timeseries_counts(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        samples = [_sample(1.0), _sample(2.0)]
        assert write_timeseries(samples, path) == 2
        assert len(read_timeseries(path)) == 2


class TestDerivedSeries:
    def test_counter_rates_between_samples(self):
        samples = [
            _sample(0.0, updates=0),
            _sample(2.0, updates=10),
            _sample(4.0, updates=30),
        ]
        rates = counter_rates(samples, "updates_total")
        assert rates == [(2.0, 5.0), (4.0, 10.0)]

    def test_counter_rates_clamp_resets_to_zero(self):
        samples = [_sample(0.0, updates=10), _sample(1.0, updates=2)]
        assert counter_rates(samples, "updates_total") == [(1.0, 0.0)]

    def test_counter_total_none_when_absent(self):
        sample = _sample(1.0)
        assert counter_total(sample, "updates_total") == 0.0
        assert counter_total(sample, "no_such_family") is None

    def test_gauge_last_value(self):
        sample = _sample(1.0, depth=17)
        assert counter_total(sample, "queue_depth") == 17.0
        assert counter_total(sample, "missing") is None

    def test_histogram_quantiles_cumulative(self):
        sample = _sample(1.0, latencies=[0.001] * 50 + [0.1] * 50)
        summary = histogram_quantiles(sample, "run_seconds", (0.5, 0.95))
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p95"]
        assert histogram_quantiles(sample, "missing") is None


class TestMergeTimeseries:
    def _shard_series(self, totals, base_ts=0.0):
        samples = []
        for offset, total in enumerate(totals):
            samples.append(_sample(base_ts + offset, updates=total))
        return samples

    def test_merged_final_totals_equal_sum_of_shards(self):
        shard0 = self._shard_series([5, 10], base_ts=0.0)
        shard1 = self._shard_series([7, 21], base_ts=0.5)
        merged = merge_timeseries([shard0, shard1])
        final = merged[-1]
        assert counter_total(final, "updates_total") == 31.0
        # Per-shard contributions stay distinguishable.
        assert counter_total(final, "updates_total", {"shard": "0"}) == 10.0
        assert counter_total(final, "updates_total", {"shard": "1"}) == 21.0

    def test_merge_uses_last_carried_forward(self):
        shard0 = self._shard_series([4], base_ts=0.0)
        shard1 = self._shard_series([1, 2, 3], base_ts=1.0)
        merged = merge_timeseries([shard0, shard1])
        # Union of instants: 0.0, 1.0, 2.0, 3.0.
        assert [s["ts"] for s in merged] == [0.0, 1.0, 2.0, 3.0]
        # shard0 contributes its only sample to every later instant.
        for sample in merged[1:]:
            assert counter_total(
                sample, "updates_total", {"shard": "0"}
            ) == 4.0

    def test_merge_without_shard_labels_sums(self):
        shard0 = self._shard_series([5])
        shard1 = self._shard_series([7])
        merged = merge_timeseries([shard0, shard1], shard_labels=False)
        final = merged[-1]
        assert counter_total(final, "updates_total") == 12.0

    def test_merge_skips_empty_shards(self):
        shard0 = self._shard_series([5])
        merged = merge_timeseries([shard0, []])
        assert counter_total(merged[-1], "updates_total") == 5.0

    def test_merge_of_nothing_is_empty(self):
        assert merge_timeseries([]) == []
        assert merge_timeseries([[], []]) == []


class TestDiff:
    def test_diff_reports_counter_and_gauge_changes(self):
        before = _sample(0.0, updates=5, depth=1)["registry"]
        after = _sample(1.0, updates=9, depth=4)["registry"]
        diff = diff_samples(before, after)
        kinds = {row["family"]: row for row in diff["changes"]}
        assert kinds["updates_total"]["delta"] == 4.0
        assert kinds["queue_depth"]["after"] == 4.0
        assert diff["added_families"] == []
        assert diff["removed_families"] == []

    def test_diff_reports_family_churn(self):
        before = _sample(0.0)["registry"]
        registry = MetricsRegistry()
        registry.counter("brand_new", "x").inc()
        after = snapshot_registry(registry)
        diff = diff_samples(before, after)
        assert "brand_new" in diff["added_families"]
        assert "run_seconds" in diff["removed_families"]

    def test_render_diff_no_differences(self):
        snapshot = _sample(1.0, updates=2)["registry"]
        text = render_diff(diff_samples(snapshot, snapshot))
        assert "no differences" in text

    def test_render_diff_mentions_changes(self):
        before = _sample(0.0, updates=5)["registry"]
        after = _sample(1.0, updates=9)["registry"]
        text = render_diff(diff_samples(before, after))
        assert "updates_total" in text
        assert "+4" in text

    def test_load_snapshot_source_accepts_all_shapes(self, tmp_path):
        sample = _sample(3.0, updates=2)
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(sample["registry"]))
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"registry": sample["registry"]}))
        one = tmp_path / "sample.json"
        one.write_text(json.dumps(sample))
        jsonl = tmp_path / "ts.jsonl"
        write_timeseries([_sample(1.0, updates=1), sample], str(jsonl))
        for path in (raw, stats, one, jsonl):
            snapshot = load_snapshot_source(str(path))
            probe = make_sample(snapshot, 0.0)
            assert counter_total(probe, "updates_total") == 2.0

    def test_load_snapshot_source_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_snapshot_source(str(path))
