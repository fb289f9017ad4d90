"""Serializable, mergeable metrics snapshots (the cross-process plane).

:class:`~repro.telemetry.metrics.MetricsRegistry` lives in one process;
the sharded full-table replay runs many.  This module owns the snapshot
format that makes registries *portable*: :func:`snapshot_registry`
writes one with full fidelity (exact histogram buckets, not quantile
summaries), :func:`merge_into` folds any number of snapshots back into
a single registry, and :func:`select` / :func:`family_names` are the
only readers of its rows — time-series rates, quantiles, diffs, alerts
and the dashboard all go through them.  A snapshot is plain JSON-able
data that survives pickling through a ``multiprocessing`` pipe or a
file on disk.  The merge has well-defined per-kind semantics:

* **counters** add — each process counted disjoint events;
* **histograms** merge bucket-wise (boundaries must be identical,
  mismatches raise);
* **gauges** keep the maximum, which keeps the merge commutative and
  associative;
* **label sets** union; a family whose label *names* disagree between
  snapshots is a schema collision and raises.

``labels={"shard": "3"}`` stamps every merged series with its origin,
which is how the parent of a sharded replay keeps per-shard
attribution while still exposing one registry on ``/metrics``.

The merge is a commutative monoid with the empty snapshot as identity
— pinned by the merge-law tests, and the reason offline aggregation
(``xbgp stats --merge``) needs no ordering discipline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "SNAPSHOT_VERSION",
    "family_names",
    "merge_into",
    "merge_snapshots",
    "registry_from_snapshot",
    "select",
    "snapshot_registry",
]

SNAPSHOT_VERSION = 1


def snapshot_registry(registry: MetricsRegistry) -> Dict[str, object]:
    """Full-fidelity, JSON-able capture of ``registry``.

    Unlike :meth:`MetricsRegistry.to_json` (a human-facing view with
    quantile summaries), this keeps raw histogram bucket counts so a
    snapshot can be merged or restored without information loss.
    Function-backed gauges are collapsed to their current value — a
    callable cannot cross a process boundary.
    """
    families: Dict[str, object] = {}
    for family in registry.families():
        series: List[Dict[str, object]] = []
        boundaries: Optional[List[float]] = None
        for values in sorted(family.children):
            child = family.children[values]
            row: Dict[str, object] = {"labels": list(values)}
            if family.kind == "counter":
                row["value"] = child.value
            elif family.kind == "gauge":
                row["value"] = child.get()
            else:
                boundaries = list(child.boundaries)
                row["counts"] = list(child.counts)
                row["sum"] = child.sum
                row["count"] = child.count
            series.append(row)
        if family.kind == "histogram" and boundaries is None:
            # No children yet: fall back to the family's configured
            # boundaries (None = the module default, resolved by the
            # first child on restore).
            boundaries = list(family.buckets) if family.buckets is not None else None
        families[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "label_names": list(family.label_names),
            "buckets": boundaries,
            "series": series,
        }
    return {"snapshot_version": SNAPSHOT_VERSION, "families": families}


def family_names(
    snapshot: Dict[str, object], kind: Optional[str] = None
) -> List[str]:
    """Sorted names of the snapshot's families (of one ``kind`` if given)."""
    return sorted(
        name
        for name, info in snapshot.get("families", {}).items()
        if kind is None or info.get("kind") == kind
    )


def select(
    snapshot: Dict[str, object],
    family: str,
    selector: Optional[Dict[str, str]] = None,
) -> Tuple[Optional[Dict[str, object]], List[Tuple[Dict[str, str], Dict[str, object]]]]:
    """The rows of ``family`` whose labels match ``selector``.

    Returns ``(family info, [(labels, row), ...])``: the info carries
    ``kind``, ``help`` and ``buckets``; each row its ``value`` (counters,
    gauges) or ``counts``/``sum``/``count`` (histograms), and ``labels``
    maps label name to value.  ``(None, [])`` when the family is absent.
    """
    info = snapshot.get("families", {}).get(family)
    if info is None:
        return None, []
    label_names = info.get("label_names", [])
    rows = []
    for row in info.get("series", []):
        labels = dict(zip(label_names, [str(v) for v in row.get("labels", [])]))
        if selector and any(
            labels.get(key) != str(value) for key, value in selector.items()
        ):
            continue
        rows.append((labels, row))
    return info, rows


def _check_snapshot(snapshot: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    if not isinstance(snapshot, dict) or "families" not in snapshot:
        raise ValueError("not a registry snapshot (missing 'families')")
    version = snapshot.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot_version {version!r}, expected {SNAPSHOT_VERSION}"
        )
    return snapshot["families"]  # type: ignore[return-value]


def registry_from_snapshot(snapshot: Dict[str, object]) -> MetricsRegistry:
    """Rebuild a live :class:`MetricsRegistry` from a snapshot."""
    registry = MetricsRegistry()
    merge_into(registry, snapshot)
    return registry


def merge_into(
    registry: MetricsRegistry,
    snapshot: Dict[str, object],
    labels: Optional[Dict[str, str]] = None,
) -> MetricsRegistry:
    """Fold ``snapshot`` into ``registry`` (see module docstring).

    ``labels`` adds constant labels to every merged series (e.g.
    ``{"shard": "2"}``); a name already used by a family is a collision
    and raises.
    """
    extra = dict(labels or {})
    incoming_families = _check_snapshot(snapshot)
    for name in sorted(incoming_families):
        family = incoming_families[name]
        kind = family["kind"]
        help_text = family.get("help", "")
        label_names: List[str] = list(family["label_names"])
        collisions = set(label_names) & set(extra)
        if collisions:
            raise ValueError(
                f"metric {name!r}: extra label(s) {sorted(collisions)} "
                "collide with the family's own label names"
            )
        buckets: Optional[Sequence[float]] = family.get("buckets")
        existing = registry._families.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {existing.kind} here, "
                    f"a {kind} in the snapshot"
                )
            merged_names = tuple(sorted(set(label_names) | set(extra)))
            if existing.label_names != merged_names:
                raise ValueError(
                    f"metric {name!r} labels {existing.label_names} != "
                    f"{merged_names} (label-set collision)"
                )
        for row in family["series"]:
            values = [str(v) for v in row["labels"]]
            if len(values) != len(label_names):
                raise ValueError(
                    f"metric {name!r}: series carries {len(values)} label "
                    f"values for {len(label_names)} label names"
                )
            all_labels = dict(zip(label_names, values))
            all_labels.update(extra)
            if kind == "counter":
                child: Counter = registry.counter(name, help_text, **all_labels)
                amount = row["value"]
                if amount < 0:
                    raise ValueError(f"metric {name!r}: negative counter value")
                child.value += amount
            elif kind == "gauge":
                family_obj = registry._families.get(name)
                child_key = tuple(
                    str(all_labels[key]) for key in sorted(all_labels)
                )
                fresh = (
                    family_obj is None or child_key not in family_obj.children
                )
                gauge: Gauge = registry.gauge(name, help_text, **all_labels)
                incoming = float(row["value"])
                gauge.set(incoming if fresh else max(gauge.get(), incoming))
            else:
                hist: Histogram = registry.histogram(
                    name, help_text, buckets=buckets, **all_labels
                )
                counts = row["counts"]
                incoming_bounds = list(buckets) if buckets is not None else None
                if (
                    incoming_bounds is not None
                    and hist.boundaries != incoming_bounds
                ) or len(hist.counts) != len(counts):
                    raise ValueError(
                        f"metric {name!r}: histogram bucket boundaries differ "
                        "between snapshots; refusing a lossy merge"
                    )
                for index, count in enumerate(counts):
                    hist.counts[index] += count
                hist.sum += row["sum"]
                hist.count += row["count"]
    return registry


def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Merge many snapshots into one (fresh-registry fold)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        merge_into(registry, snapshot)
    return snapshot_registry(registry)
