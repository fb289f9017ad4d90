"""Unit tests for mergeable registry snapshots (repro.telemetry.aggregate).

The merge must be algebraically well-behaved — associative and
commutative with the empty snapshot as identity — because the sharded
replay merges worker snapshots in whatever order the pool returns them,
and ``xbgp stats --merge`` folds files in argv order.  These laws are
pinned on randomized registries, alongside the refusal cases (bucket
boundary mismatches, label-set collisions, counter regressions).
"""

import random

import pytest

from repro.telemetry.aggregate import (
    SNAPSHOT_VERSION,
    merge_into,
    merge_snapshots,
    registry_from_snapshot,
    snapshot_registry,
)
from repro.telemetry.metrics import MetricsRegistry, render_prometheus


def random_registry(seed: int) -> MetricsRegistry:
    """A registry with random counters/gauges/histograms, from ``seed``."""
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for index in range(rng.randint(1, 4)):
        counter = registry.counter(
            f"ctr_{index}", "random counter", kind=str(rng.randint(0, 2))
        )
        counter.inc(rng.randint(0, 1000))
    for index in range(rng.randint(1, 3)):
        registry.gauge(f"gau_{index}", "random gauge").set(
            rng.uniform(-50.0, 50.0)
        )
    histogram = registry.histogram(
        "hist_lat", "random latencies", buckets=[0.001, 0.01, 0.1, 1.0]
    )
    for _ in range(rng.randint(0, 40)):
        histogram.observe(rng.uniform(0.0, 2.0))
    return registry


def canonical(snapshot):
    """Order-insensitive comparable form of a snapshot.

    Floats are rounded: merge order legitimately changes summation
    order, and IEEE addition is not associative in the last ulps.
    """

    def norm(value):
        return round(value, 6) if isinstance(value, float) else value

    out = {}
    for name, family in snapshot["families"].items():
        series = {
            tuple(row["labels"]): {
                k: [norm(x) for x in v] if isinstance(v, list) else norm(v)
                for k, v in row.items()
                if k != "labels"
            }
            for row in family["series"]
        }
        out[name] = (
            family["kind"],
            tuple(family["label_names"]),
            tuple(family["buckets"]) if family["buckets"] else None,
            series,
        )
    return out


class TestRoundTrip:
    def test_snapshot_restore_is_lossless(self):
        registry = random_registry(7)
        snapshot = snapshot_registry(registry)
        assert snapshot["snapshot_version"] == SNAPSHOT_VERSION
        restored = registry_from_snapshot(snapshot)
        assert canonical(snapshot_registry(restored)) == canonical(snapshot)
        # The restored registry renders identically too.
        assert render_prometheus(restored) == render_prometheus(registry)

    def test_snapshot_survives_json(self):
        import json

        snapshot = snapshot_registry(random_registry(3))
        rehydrated = json.loads(json.dumps(snapshot))
        assert canonical(rehydrated) == canonical(snapshot)

    def test_function_gauges_collapse_to_value(self):
        registry = MetricsRegistry()
        registry.gauge("live", "function-backed").set_function(lambda: 42.5)
        restored = registry_from_snapshot(snapshot_registry(registry))
        assert restored.gauge("live", "function-backed").get() == 42.5


class TestMergeLaws:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_commutative(self, seed):
        a = snapshot_registry(random_registry(seed))
        b = snapshot_registry(random_registry(seed + 100))
        assert canonical(merge_snapshots([a, b])) == canonical(
            merge_snapshots([b, a])
        )

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_associative(self, seed):
        a = snapshot_registry(random_registry(seed))
        b = snapshot_registry(random_registry(seed + 100))
        c = snapshot_registry(random_registry(seed + 200))
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert canonical(left) == canonical(right)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_empty_snapshot_is_identity(self, seed):
        empty = snapshot_registry(MetricsRegistry())
        a = snapshot_registry(random_registry(seed))
        assert canonical(merge_snapshots([a, empty])) == canonical(a)
        assert canonical(merge_snapshots([empty, a])) == canonical(a)

    def test_counters_add(self):
        registry = MetricsRegistry()
        registry.counter("c", "").inc(3)
        snapshot = snapshot_registry(registry)
        merged = registry_from_snapshot(merge_snapshots([snapshot, snapshot]))
        assert merged.counter("c", "").value == 6

    def test_histograms_merge_bucket_wise(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "", buckets=[1.0, 10.0])
        histogram.observe(0.5)
        histogram.observe(5.0)
        snapshot = snapshot_registry(registry)
        merged = registry_from_snapshot(merge_snapshots([snapshot, snapshot]))
        out = merged.histogram("h", "", buckets=[1.0, 10.0])
        assert out.counts == [2, 2, 0]
        assert out.count == 4
        assert out.sum == pytest.approx(11.0)

    def test_negative_gauges_merge_by_max(self):
        # A deliberately-zero gauge must not be mistaken for "fresh"
        # when a negative value merges into it.
        registry = MetricsRegistry()
        registry.gauge("g", "").set(0.0)
        incoming = MetricsRegistry()
        incoming.gauge("g", "").set(-3.0)
        merge_into(registry, snapshot_registry(incoming))
        assert registry.gauge("g", "").get() == 0.0

    def test_gauges_merge_by_max(self):
        low, high = MetricsRegistry(), MetricsRegistry()
        low.gauge("g", "").set(1.0)
        high.gauge("g", "").set(9.0)
        snaps = [snapshot_registry(low), snapshot_registry(high)]
        for order in (snaps, snaps[::-1]):
            merged = registry_from_snapshot(merge_snapshots(order))
            assert merged.gauge("g", "").get() == 9.0


class TestShardLabels:
    def test_origin_stamp(self):
        registry = MetricsRegistry()
        worker = MetricsRegistry()
        worker.counter("c", "", point="imp").inc(5)
        merge_into(registry, snapshot_registry(worker), labels={"shard": "0"})
        merge_into(registry, snapshot_registry(worker), labels={"shard": "1"})
        assert registry.counter("c", "", point="imp", shard="0").value == 5
        assert registry.counter("c", "", point="imp", shard="1").value == 5
        text = render_prometheus(registry)
        assert 'shard="0"' in text and 'shard="1"' in text

    def test_extra_label_collision_rejected(self):
        worker = MetricsRegistry()
        worker.counter("c", "", shard="9").inc(1)
        with pytest.raises(ValueError, match="collide"):
            merge_into(
                MetricsRegistry(),
                snapshot_registry(worker),
                labels={"shard": "0"},
            )


class TestRefusals:
    def test_bucket_boundary_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", "", buckets=[1.0, 2.0]).observe(0.5)
        b.histogram("h", "", buckets=[1.0, 4.0]).observe(0.5)
        with pytest.raises(ValueError, match="boundaries differ"):
            merge_snapshots([snapshot_registry(a), snapshot_registry(b)])

    def test_kind_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m", "").inc()
        b.gauge("m", "").set(1.0)
        with pytest.raises(ValueError):
            merge_snapshots([snapshot_registry(a), snapshot_registry(b)])

    def test_label_name_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m", "", peer="x").inc()
        b.counter("m", "", point="x").inc()
        with pytest.raises(ValueError, match="label"):
            merge_snapshots([snapshot_registry(a), snapshot_registry(b)])

    def test_negative_counter_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c", "").inc(2)
        snapshot = snapshot_registry(registry)
        snapshot["families"]["c"]["series"][0]["value"] = -1
        with pytest.raises(ValueError, match="negative"):
            merge_into(MetricsRegistry(), snapshot)

    def test_version_mismatch_rejected(self):
        snapshot = snapshot_registry(MetricsRegistry())
        snapshot["snapshot_version"] = 999
        with pytest.raises(ValueError, match="snapshot_version"):
            merge_into(MetricsRegistry(), snapshot)

    def test_not_a_snapshot_rejected(self):
        with pytest.raises(ValueError, match="families"):
            merge_into(MetricsRegistry(), {"metrics": {}})
