"""Unit tests for the scale package: partitioning and collect modes.

Parity of the batched/sharded pipelines against sequential replay
lives in tests/integration/test_batch_parity.py; these tests pin the
parts that are cheap to check in isolation — the partition map's
bisect lookup against its own trie, and the summary collect mode
against full collection.
"""

import random

import pytest

from repro.bgp.prefix import Prefix
from repro.scale import PartitionMap, ShardedReplay
from repro.workload import RibGenerator


class TestPartitionMap:
    def _routes(self, n=400, seed=11):
        return RibGenerator(n_routes=n, seed=seed).generate()

    def test_bisect_matches_trie_lookup(self):
        """shard_of's sorted-cut bisect must agree with longest-prefix
        match over the map's own CIDR blocks — including on prefixes
        never seen at build time."""
        routes = self._routes()
        pmap = PartitionMap((spec.prefix for spec in routes), 4)
        rng = random.Random(3)
        probes = [spec.prefix for spec in routes]
        probes += [
            Prefix(rng.randrange(0, 1 << 32) & ~0xFF, 24) for _ in range(500)
        ]
        for prefix in probes:
            hit = pmap._trie.lookup_address(prefix.network)
            assert hit is not None
            assert pmap.shard_of(prefix) == hit[1]

    def test_blocks_cover_space_disjointly(self):
        routes = self._routes()
        pmap = PartitionMap((spec.prefix for spec in routes), 3)
        covered = sum(1 << (32 - block.length) for block, _ in pmap.blocks)
        assert covered == 1 << 32

    def test_balanced_buckets(self):
        routes = self._routes(n=1000)
        pmap = PartitionMap((spec.prefix for spec in routes), 4)
        counts = [0] * pmap.shards
        for spec in routes:
            counts[pmap.shard_of(spec.prefix)] += 1
        assert min(counts) > 0.5 * (len(routes) / pmap.shards)

    def test_empty_workload_degenerates_to_one_shard(self):
        pmap = PartitionMap((), 4)
        assert pmap.shards == 1
        assert pmap.shard_of(Prefix.parse("10.0.0.0/8")) == 0


class TestCollectModes:
    def _run(self, collect):
        routes = RibGenerator(n_routes=150, seed=5).generate()
        return ShardedReplay(
            "frr",
            routes,
            feature="plain",
            mode="native",
            shards=2,
            batch=16,
            backend="inline",
            collect=collect,
        ).run()

    def test_summary_counts_match_full_sets(self):
        full = self._run("full")
        summary = self._run("summary")
        assert full.snapshot is not None and len(full.snapshot) == 150
        assert summary.snapshot is None
        assert summary.prefixes is None and summary.withdrawn is None
        assert summary.prefix_count == len(full.prefixes) == 150
        assert summary.withdrawn_count == len(full.withdrawn)
        assert summary.stats == full.stats
        assert [r["routes"] for r in summary.per_shard] == [
            r["routes"] for r in full.per_shard
        ]
        assert all(r["loc_rib_count"] > 0 for r in summary.per_shard)

    def test_unknown_collect_mode_rejected(self):
        with pytest.raises(ValueError):
            self._run("everything")
