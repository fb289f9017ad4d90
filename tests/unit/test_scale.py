"""Unit tests for the scale package: bucketing, workers, collect modes.

Parity of the batched/sharded pipelines against sequential replay
lives in tests/integration/test_batch_parity.py; these tests pin the
parts that are cheap to check in isolation — the live-feed partition
map's bisect lookup against its own trie, the replay's attribute-group
buckets, the forked workers' failure and process-count contract, and
the summary collect mode against full collection.
"""

import os
import random
import re
import signal
import time
from collections import Counter

import pytest

from repro.bgp.prefix import Prefix
from repro.scale import PartitionMap, ShardedReplay
from repro.scale import shard as shard_module
from repro.sim.testbed import build_feed
from repro.workload import RibGenerator


def group_key(route):
    return (route.as_path, route.origin, route.med, route.communities)


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


class TestAttributeBuckets:
    def _replay(self, routes, shards, **fields):
        return ShardedReplay(
            "frr", routes, feature="plain", mode="native", backend="inline",
            shards=shards, **fields,
        )

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_groups_are_whole_balanced_and_in_input_order(self, shards):
        routes = RibGenerator(n_routes=1000, seed=11).generate()
        buckets = self._replay(routes, shards).buckets
        assert len(buckets) == shards
        owner = {}
        for index, bucket in enumerate(buckets):
            for route in bucket:
                assert owner.setdefault(group_key(route), index) == index
        position = {route.prefix: index for index, route in enumerate(routes)}
        for bucket in buckets:
            assert [position[route.prefix] for route in bucket] == sorted(
                position[route.prefix] for route in bucket
            )
        sizes = [len(bucket) for bucket in buckets]
        assert sum(sizes) == len(routes)
        largest = Counter(map(group_key, routes)).most_common(1)[0][1]
        assert max(sizes) - min(sizes) <= largest

    def test_sharded_feeds_carry_the_sequential_updates(self):
        """Unique prefixes: the shard feeds hold exactly the single
        feed's UPDATEs, plus one End-of-RIB per shard."""
        routes = RibGenerator(n_routes=1000, seed=11).generate()
        replay = self._replay(routes, 3)
        single = len(build_feed(replay.spec, routes)[0])
        shard_feeds = [len(build_feed(replay.spec, b)[0]) for b in replay.buckets]
        assert sum(shard_feeds) == single - 1 + len(shard_feeds)

    def test_largest_group_first_ties_by_shard_index(self):
        def route(prefix, asn):
            return RibGenerator(n_routes=1, seed=1).generate()[0]._replace(
                prefix=Prefix.parse(prefix), as_path=(asn,)
            )

        routes = [route("10.0.0.0/24", 1), route("10.0.1.0/24", 2),
                  route("10.0.2.0/24", 2), route("10.0.3.0/24", 3)]
        buckets = self._replay(routes, 2).buckets
        # Group 2 (two routes) goes first, to shard 0 (both empty: the
        # lower index wins); groups 1 and 3 then go to shard 1.
        assert [[r.as_path[0] for r in b] for b in buckets] == [[2, 2], [1, 3]]
        assert self._replay(routes, 2).buckets == buckets  # deterministic
        # Equal groups in first-appearance order; every tie to shard 0.
        singles = [route(f"10.0.{i}.0/24", 10 + i) for i in range(4)]
        buckets = self._replay(singles, 2).buckets
        assert [[r.as_path[0] for r in b] for b in buckets] == [[10, 12], [11, 13]]

    def test_duplicate_prefix_stays_on_its_first_shard(self):
        routes = RibGenerator(n_routes=200, seed=5).generate()
        buckets = self._replay(routes, 2).buckets
        # A later route for shard 1's first prefix, in a group shard 0 owns.
        again = buckets[0][0]._replace(prefix=buckets[1][0].prefix)
        rebuilt = self._replay(routes + [again], 2).buckets
        assert rebuilt[1][-1] is again
        result = self._replay(routes + [again], 2, collect="full").run()
        assert len(result.snapshot) == len(routes)

    def test_never_more_shards_than_groups(self):
        routes = RibGenerator(n_routes=50, seed=5).generate()
        one_group = [
            r._replace(as_path=(65001,), origin=0, med=None, communities=()) for r in routes
        ]
        assert len(self._replay(one_group, 4).buckets) == 1
        assert len(self._replay([], 4).buckets) == 1


class TestForkedWorkers:
    def _replay(self, shards):
        routes = RibGenerator(n_routes=300, seed=7).generate()
        return ShardedReplay(
            "frr", routes, feature="plain", mode="native", shards=shards, batch=16
        )

    def test_dead_worker_is_an_error_not_a_hang(self, monkeypatch):
        real = shard_module._replay_shard

        def dying(spec, shard, routes, put):
            if shard == 1:
                os._exit(3)
            return real(spec, shard, routes, put)

        def hung(signum, frame):
            raise AssertionError("replay hung on a dead worker")

        monkeypatch.setattr(shard_module, "_replay_shard", dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="shard 1 worker exited with status 3"):
                self._replay(2).run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10

    @pytest.mark.parametrize("backend", ["process", "inline"])
    def test_worker_exception_keeps_its_type(self, monkeypatch, backend):
        real = shard_module._replay_shard

        def failing(spec, shard, routes, put):
            if shard == 0:
                raise ValueError("boom")
            return real(spec, shard, routes, put)

        monkeypatch.setattr(shard_module, "_replay_shard", failing)
        replay = self._replay(2)
        replay.backend = backend
        with pytest.raises(ValueError, match="boom") as caught:
            replay.run()
        if backend == "process":
            cause = caught.value.__cause__
            assert isinstance(cause, RuntimeError)
            assert re.search("(?s)shard 0 worker failed.*ValueError: boom", str(cause))

    def test_unpicklable_worker_exception_names_its_shard(self, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        def failing(spec, shard, routes, put):
            raise Local("boom")

        monkeypatch.setattr(shard_module, "_replay_shard", failing)
        with pytest.raises(RuntimeError, match="(?s)shard [01] worker failed.*Local: boom"):
            self._replay(2).run()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_one_process_per_shard(self, monkeypatch, shards):
        real_fork = os.fork
        children = []

        def counting_fork():
            pid = real_fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        result = self._replay(shards).run()
        assert result.shards == shards
        assert len(children) == shards
        assert sum(report["routes"] for report in result.per_shard) == 300


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
