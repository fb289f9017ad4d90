"""repro.scale — full-table scale machinery.

Two cooperating pieces bring the paper's 724k-route RIPE RIS replay in
scope:

* :class:`BatchProcessor` — feeds raw UPDATE bytes through a daemon in
  decode→import→decision batches, amortizing per-message costs (one
  attribute parse per distinct wire block, one VMM runner lookup per
  batch, one decision run per dirty prefix, bulk encode-cache hits on
  the export side).
* :class:`ShardedReplay` — buckets a route workload by attribute group
  (each attribute set lands in one shard's feed), replays each bucket
  in its own forked worker and merges per-shard Loc-RIB snapshots
  deterministically.  Live feeds split by prefix range instead (a
  :class:`~repro.bgp.trie.PrefixTrie`-backed :class:`PartitionMap`).

Every DUT is built by :func:`build_scale_daemon` from one
:class:`~repro.sim.testbed.RunSpec` and fed by :func:`replay_feed`, the
one replay loop — the single-daemon harness included.

Both paths are locked to the sequential pipeline by the batch-parity
integration tests and the fuzz host oracle's batched/sharded arms.
"""

from .batch import BatchProcessor
from .shard import (
    PartitionMap,
    ShardedReplay,
    ShardedResult,
    build_scale_daemon,
    normalise_snapshot,
    replay_feed,
    split_update,
)

__all__ = [
    "BatchProcessor",
    "PartitionMap",
    "ShardedReplay",
    "ShardedResult",
    "build_scale_daemon",
    "normalise_snapshot",
    "replay_feed",
    "split_update",
]
