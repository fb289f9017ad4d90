"""Metric time-series: periodic registry snapshots, derived series, merge.

The cross-process plane (:mod:`repro.telemetry.aggregate`) made one
registry portable at one instant; this module adds the *temporal* axis.
A :class:`TimeSeries` is a bounded ring of **samples**, each a full-
fidelity registry snapshot (the same versioned format ``aggregate``
merges) stamped with a wall-clock ``ts`` and a per-series ``seq``:

``{"timeseries_version": 1, "ts": ..., "seq": ..., "labels": {...},
"registry": <registry snapshot>}``

:class:`TimeSeriesSampler` drives one: point it at any
:class:`~repro.telemetry.metrics.MetricsRegistry` and call
:meth:`~TimeSeriesSampler.sample` (or the time-gated
:meth:`~TimeSeriesSampler.maybe_sample`) at whatever cadence the host
loop has — per heartbeat, per N routes, per scrape.  Optional
write-through JSONL mirrors every sample to disk as it is taken, so a
crash loses nothing already written (the same
:class:`~repro.telemetry.records.JsonlSink` the event log streams to).

Derived series are computed *from* samples, never stored: counter and
gauge totals, counter rates between consecutive samples, cumulative
histogram quantiles.  They read a sample's rows through
:func:`~repro.telemetry.aggregate.select`, the one reader of the
snapshot format.  That keeps a sample a pure snapshot — mergeable,
diffable, replayable.

:func:`merge_timeseries` folds per-shard series into one shard-labeled
series the same way ``aggregate`` merges registries: at the union of
sample timestamps, each shard contributes its latest sample at-or-
before that instant (last-carried-forward), stamped ``shard=<i>``.
The final merged sample therefore merges every shard's final sample,
so merged counter totals equal a sequential replay's — the same
partition-invariance law the registry merge obeys.

:func:`diff_samples` / :func:`render_diff` power ``xbgp stats --diff``:
new/removed families, counter deltas, gauge shifts and histogram
p50/p95 shifts between any two registry snapshots, stats documents or
recorded time-series files.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .aggregate import _check_snapshot, family_names, merge_into, select, snapshot_registry
from .metrics import MetricsRegistry, bucket_quantile
from .records import JsonlSink, Ring, read_jsonl, write_jsonl

__all__ = [
    "DEFAULT_TIMESERIES_CAPACITY",
    "TIMESERIES_VERSION",
    "TimeSeries",
    "TimeSeriesSampler",
    "counter_rates",
    "counter_total",
    "diff_samples",
    "histogram_quantiles",
    "load_snapshot_source",
    "make_sample",
    "merge_timeseries",
    "read_timeseries",
    "render_diff",
    "validate_sample",
]

TIMESERIES_VERSION = 1

DEFAULT_TIMESERIES_CAPACITY = 512


def make_sample(
    registry_snapshot: Dict[str, object],
    ts: float,
    seq: int = 0,
    labels: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Build one schema'd sample around a registry snapshot."""
    sample: Dict[str, object] = {
        "timeseries_version": TIMESERIES_VERSION,
        "ts": float(ts),
        "seq": int(seq),
        "registry": registry_snapshot,
    }
    if labels:
        sample["labels"] = {str(k): str(v) for k, v in labels.items()}
    return sample


def validate_sample(sample: object) -> Dict[str, object]:
    """Check one sample's schema; returns it on success."""
    if not isinstance(sample, dict):
        raise ValueError(f"sample must be an object, got {type(sample).__name__}")
    version = sample.get("timeseries_version")
    if version != TIMESERIES_VERSION:
        raise ValueError(
            f"timeseries_version {version!r}, expected {TIMESERIES_VERSION}"
        )
    ts = sample.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        raise ValueError(f"'ts' must be a number, got {ts!r}")
    registry = sample.get("registry")
    if not isinstance(registry, dict) or "families" not in registry:
        raise ValueError("'registry' must be a registry snapshot")
    return sample


class TimeSeries(Ring):
    """Bounded ring of registry samples (see module docstring)."""

    def __init__(
        self,
        capacity: int = DEFAULT_TIMESERIES_CAPACITY,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(capacity, "time-series")
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}

    def append(
        self,
        registry_snapshot: Dict[str, object],
        ts: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        """Record one snapshot; stamps ``seq`` and the series labels."""
        self._seq += 1
        merged_labels = {**self.labels, **(labels or {})}
        sample = make_sample(
            registry_snapshot, ts, self._seq, merged_labels or None
        )
        self._ring.append(sample)
        return sample

    samples = Ring.records


class TimeSeriesSampler:
    """Snapshot a registry into a :class:`TimeSeries` on demand.

    ``every_seconds`` makes :meth:`maybe_sample` a cheap no-op between
    cadence boundaries, so the caller can invoke it from a hot loop
    (every heartbeat, every batch) without thinking about timing.
    ``path`` mirrors every sample to a JSONL file as it is taken.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        series: Optional[TimeSeries] = None,
        *,
        every_seconds: float = 0.0,
        path: Optional[str] = None,
        capacity: int = DEFAULT_TIMESERIES_CAPACITY,
        labels: Optional[Dict[str, str]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.registry = registry
        self.series = series if series is not None else TimeSeries(
            capacity=capacity, labels=labels
        )
        self.every_seconds = float(every_seconds)
        self._clock = clock
        self._last_sample_at: Optional[float] = None
        self._sink = JsonlSink(path) if path else None

    def sample(self) -> Dict[str, object]:
        """Take one sample now, unconditionally."""
        now = self._clock()
        self._last_sample_at = now
        sample = self.series.append(snapshot_registry(self.registry), now)
        if self._sink is not None:
            self._sink.write(sample)
        return sample

    def maybe_sample(self) -> Optional[Dict[str, object]]:
        """Take a sample if ``every_seconds`` has elapsed since the last."""
        if self._last_sample_at is not None:
            if self._clock() - self._last_sample_at < self.every_seconds:
                return None
        return self.sample()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()

    def __enter__(self) -> "TimeSeriesSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- file I/O --------------------------------------------------------------


def read_timeseries(path: str) -> List[Dict[str, object]]:
    """Load and validate a JSONL time-series file."""
    return read_jsonl(path, validate_sample)


def write_timeseries(samples: Iterable[Dict[str, object]], path: str) -> int:
    """Write samples as JSONL; returns the count written."""
    return write_jsonl(samples, path)


# -- derived series --------------------------------------------------------


def counter_total(
    sample: Dict[str, object],
    family: str,
    selector: Optional[Dict[str, str]] = None,
) -> Optional[float]:
    """Sum of matching counter (or gauge) series at one sample.

    ``None`` when the family is absent or no series matches — the
    caller distinguishes "zero" from "not there" (absence alerts).
    """
    _, rows = select(sample["registry"], family, selector)
    if not rows:
        return None
    return float(sum(row.get("value", 0) for _, row in rows))


def counter_rates(
    samples: Sequence[Dict[str, object]],
    family: str,
    selector: Optional[Dict[str, str]] = None,
) -> List[Tuple[float, float]]:
    """Per-second rate between consecutive samples: ``[(ts, rate), ...]``.

    Negative deltas (a counter reset — e.g. the exporter swapped from
    the live progress registry to the merged result) clamp to 0.0
    rather than reporting a nonsensical negative rate.
    """
    points: List[Tuple[float, float]] = []
    prev_ts: Optional[float] = None
    prev_value: Optional[float] = None
    for sample in samples:
        value = counter_total(sample, family, selector)
        ts = float(sample["ts"])
        if value is not None and prev_value is not None and prev_ts is not None:
            dt = ts - prev_ts
            if dt > 0:
                points.append((ts, max(0.0, (value - prev_value) / dt)))
        if value is not None:
            prev_ts, prev_value = ts, value
    return points


def histogram_quantiles(
    sample: Dict[str, object],
    family: str,
    quantiles: Sequence[float] = (0.5, 0.95),
    selector: Optional[Dict[str, str]] = None,
) -> Optional[Dict[str, float]]:
    """Cumulative distribution summary at one sample, matching series
    summed bucket-wise.

    Returns ``{"count", "sum", "p50", "p95", ...}`` or ``None`` when
    the family is absent / has no matching series.
    """
    info, rows = select(sample["registry"], family, selector)
    if info is None or info.get("kind") != "histogram" or not rows:
        return None
    boundaries = [float(b) for b in (info.get("buckets") or [])]
    counts = [0.0] * (len(boundaries) + 1)
    out: Dict[str, float] = {"count": 0.0, "sum": 0.0}
    for _, row in rows:
        row_counts = row.get("counts", [])
        if len(row_counts) != len(counts):
            # Bucket layouts differ between series; refuse a lossy sum.
            raise ValueError(
                f"metric {family!r}: histogram series disagree on buckets"
            )
        for index, count in enumerate(row_counts):
            counts[index] += count
        out["sum"] += float(row.get("sum", 0.0))
        out["count"] += float(row.get("count", 0))
    for q in quantiles:
        out[f"p{int(round(q * 100))}"] = bucket_quantile(boundaries, counts, q)
    return out


# -- the shard merge path --------------------------------------------------


def merge_timeseries(
    shard_series: Sequence[Sequence[Dict[str, object]]],
    shard_labels: bool = True,
) -> List[Dict[str, object]]:
    """Fold per-shard sample lists into one merged, shard-labeled series.

    At the union of all shard sample timestamps, each shard contributes
    its latest sample at-or-before that instant (last-carried-forward)
    stamped ``shard=<index>``, merged under the same per-kind semantics
    as :func:`~repro.telemetry.aggregate.merge_into`.  The final merged
    sample merges every shard's final sample, so its counter totals
    equal a sequential replay's — partition invariance, extended to the
    temporal axis.
    """
    per_shard: List[List[Dict[str, object]]] = []
    for samples in shard_series:
        ordered = sorted(
            (validate_sample(sample) for sample in samples),
            key=lambda sample: (float(sample["ts"]), int(sample.get("seq", 0))),
        )
        per_shard.append(ordered)
    instants = sorted(
        {
            float(sample["ts"])
            for samples in per_shard
            for sample in samples
        }
    )
    merged: List[Dict[str, object]] = []
    cursors = [0] * len(per_shard)
    latest: List[Optional[Dict[str, object]]] = [None] * len(per_shard)
    for seq, ts in enumerate(instants, 1):
        for index, samples in enumerate(per_shard):
            cursor = cursors[index]
            while cursor < len(samples) and float(samples[cursor]["ts"]) <= ts:
                latest[index] = samples[cursor]
                cursor += 1
            cursors[index] = cursor
        registry = MetricsRegistry()
        for index, sample in enumerate(latest):
            if sample is None:
                continue
            labels = {"shard": str(index)} if shard_labels else None
            merge_into(registry, sample["registry"], labels=labels)
        merged.append(make_sample(snapshot_registry(registry), ts, seq))
    return merged


# -- run diffing (``xbgp stats --diff``) -----------------------------------


def load_snapshot_source(path: str) -> Dict[str, object]:
    """Load a registry snapshot from any of the formats the CLI writes.

    Accepts: a raw registry snapshot (``xbgp stats --merge`` output), a
    stats document carrying a ``registry`` key (``xbgp stats --format
    json``), a single time-series sample, or a time-series JSONL file
    (the *final* sample's registry is used).
    """
    with open(path) as handle:
        text = handle.read()
    if not text.strip():
        raise ValueError(f"{path}: empty file")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        # Not one JSON document: a time-series JSONL file, every line
        # checked as read_timeseries checks it; the final sample is the
        # most recent.
        return read_timeseries(path)[-1]["registry"]  # type: ignore[return-value]
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "timeseries_version" in document:
        return validate_sample(document)["registry"]  # type: ignore[return-value]
    registry = document if "families" in document else document.get("registry")
    if not isinstance(registry, dict) or "families" not in registry:
        raise ValueError(f"{path}: not a registry snapshot, stats document or time-series")
    try:
        _check_snapshot(registry)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return registry


def _keyed_rows(
    snapshot: Dict[str, object], family: str
) -> Tuple[Optional[Dict[str, object]], Dict[str, Dict[str, object]]]:
    """``family``'s info and its rows keyed ``"name=value,..."``."""
    info, rows = select(snapshot, family)
    keyed = {
        ",".join(f"{k}={labels[k]}" for k in sorted(labels)): row
        for labels, row in rows
    }
    return info, keyed


def _histogram_summary(
    boundaries: Sequence[float], row: Optional[Dict[str, object]]
) -> Optional[Dict[str, float]]:
    if row is None:
        return None
    counts = row.get("counts", [])
    return {
        "count": float(row.get("count", 0)),
        "p50": bucket_quantile(boundaries, counts, 0.5),
        "p95": bucket_quantile(boundaries, counts, 0.95),
    }


def diff_samples(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """Structural + numeric diff of two registry snapshots.

    Returns ``{"added_families", "removed_families", "changes"}`` where
    each change row is ``{"family", "labels", "kind", ...}`` with
    before/after/delta for counters and gauges, and count/p50/p95
    shifts for histograms.  Unchanged series are omitted.
    """
    names_a = set(family_names(before))
    names_b = set(family_names(after))
    changes: List[Dict[str, object]] = []
    for family in sorted(names_a | names_b):
        info_a, series_a = _keyed_rows(before, family)
        info_b, series_b = _keyed_rows(after, family)
        info = info_b or info_a
        kind = info.get("kind")
        boundaries = [float(b) for b in info.get("buckets") or []]
        for key in sorted(set(series_a) | set(series_b)):
            row_a = series_a.get(key)
            row_b = series_b.get(key)
            if kind in ("counter", "gauge"):
                value_a = float(row_a["value"]) if row_a else None
                value_b = float(row_b["value"]) if row_b else None
                if value_a == value_b:
                    continue
                changes.append(
                    {
                        "family": family,
                        "labels": key,
                        "kind": kind,
                        "before": value_a,
                        "after": value_b,
                        "delta": (value_b or 0.0) - (value_a or 0.0),
                    }
                )
            else:
                summary_a = _histogram_summary(boundaries, row_a)
                summary_b = _histogram_summary(boundaries, row_b)
                if summary_a == summary_b:
                    continue
                changes.append(
                    {
                        "family": family,
                        "labels": key,
                        "kind": kind,
                        "before": summary_a,
                        "after": summary_b,
                    }
                )
    return {
        "added_families": sorted(names_b - names_a),
        "removed_families": sorted(names_a - names_b),
        "changes": changes,
    }


def render_diff(diff: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`diff_samples` output."""
    lines: List[str] = []
    for family in diff["added_families"]:
        lines.append(f"+ family {family} (new)")
    for family in diff["removed_families"]:
        lines.append(f"- family {family} (removed)")
    for change in diff["changes"]:
        where = change["family"]
        if change["labels"]:
            where += "{" + change["labels"] + "}"
        if change["kind"] in ("counter", "gauge"):
            before = change["before"]
            after = change["after"]
            delta = change["delta"]
            sign = "+" if delta >= 0 else ""
            lines.append(
                f"  {where}: {before if before is not None else '∅'}"
                f" -> {after if after is not None else '∅'}"
                f" ({sign}{delta:g})"
            )
        else:
            before = change["before"] or {"count": 0, "p50": 0.0, "p95": 0.0}
            after = change["after"] or {"count": 0, "p50": 0.0, "p95": 0.0}
            lines.append(
                f"  {where}: count {before['count']:g} -> {after['count']:g}"
                f" · p50 {before['p50']:.6g} -> {after['p50']:.6g}"
                f" · p95 {before['p95']:.6g} -> {after['p95']:.6g}"
            )
    if not lines:
        lines.append("no differences")
    return "\n".join(lines)
