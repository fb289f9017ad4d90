"""Metric primitives: counters, gauges, log-bucketed histograms.

The registry follows the Prometheus data model — a *family* (name,
type, help text) owns one child per label set — but stays dependency
free: children are plain ``__slots__`` objects cheap enough to update
on the VMM hot path.  Callers cache the child returned by
:meth:`MetricsRegistry.counter` / ``gauge`` / ``histogram`` once and
call ``inc``/``set``/``observe`` on it directly, so steady-state cost
is one attribute update per event.

Latency histograms are log-bucketed (geometric boundaries, default
1 µs · 2^i), the conventional shape for values spanning several orders
of magnitude; quantiles are estimated from the cumulative bucket walk.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "log_buckets",
]

LabelKey = Tuple[Tuple[str, str], ...]


def log_buckets(start: float = 1e-6, factor: float = 2.0, count: int = 24) -> List[float]:
    """Geometric bucket boundaries ``start * factor**i`` (i < count)."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets needs start > 0, factor > 1, count >= 1")
    boundaries = []
    value = start
    for _ in range(count):
        boundaries.append(value)
        value *= factor
    return boundaries


def bucket_quantile(
    boundaries: Sequence[float], counts: Sequence[float], q: float
) -> float:
    """Upper bound of the bucket holding the q-quantile (0 if empty).

    ``counts`` has one entry per boundary plus the +Inf overflow bucket.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= rank and bucket_count:
            if index < len(boundaries):
                return boundaries[index]
            return float("inf")
    return float("inf")


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down, or track a live callable."""

    __slots__ = ("value", "_fn")

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self._fn = None
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Collect the gauge from ``fn`` at read time (live gauges)."""
        self._fn = fn

    def get(self) -> float:
        return float(self._fn()) if self._fn is not None else self.value


class Histogram:
    """Log-bucketed distribution (Prometheus cumulative ``le`` shape).

    ``counts[i]`` holds observations ``<= boundaries[i]``  (non-
    cumulative storage; rendering accumulates); ``counts[-1]`` is the
    +Inf overflow bucket.
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, boundaries: Optional[Sequence[float]] = None) -> None:
        bounds = list(boundaries) if boundaries is not None else log_buckets()
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile (0 if empty)."""
        return bucket_quantile(self.boundaries, self.counts, q)

    def summary(self) -> Dict[str, float]:
        mean = self.sum / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _Family:
    """One named metric plus its children keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "children", "buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = list(buckets) if buckets is not None else None
        self.children: Dict[Tuple[str, ...], object] = {}

    def child(self, label_values: Tuple[str, ...]):
        existing = self.children.get(label_values)
        if existing is not None:
            return existing
        if self.kind == "counter":
            made: object = Counter()
        elif self.kind == "gauge":
            made = Gauge()
        else:
            made = Histogram(self.buckets)
        self.children[label_values] = made
        return made


class MetricsRegistry:
    """Named families of counters/gauges/histograms.

    The first registration of a name pins its type, help text and label
    names; later lookups must agree (mismatches raise ``ValueError``,
    mirroring Prometheus client semantics).
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- registration / lookup ------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Dict[str, str],
        buckets: Optional[Sequence[float]] = None,
    ) -> Tuple[_Family, Tuple[str, ...]]:
        label_names = tuple(sorted(labels))
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, label_names, buckets)
            self._families[name] = family
        else:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            if family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} labels {family.label_names} != {label_names}"
                )
        return family, tuple(str(labels[key]) for key in label_names)

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        family, values = self._family(name, "counter", help_text, labels)
        return family.child(values)  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        family, values = self._family(name, "gauge", help_text, labels)
        return family.child(values)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        family, values = self._family(name, "histogram", help_text, labels, buckets)
        return family.child(values)  # type: ignore[return-value]

    # -- export ----------------------------------------------------------

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, object]:
        """Full-fidelity serializable capture (see
        :mod:`repro.telemetry.aggregate` for the merge semantics)."""
        from .aggregate import snapshot_registry

        return snapshot_registry(self)

    def to_json(self) -> Dict[str, object]:
        """JSON-able view: one entry per family, one row per label set."""
        out: Dict[str, object] = {}
        for family in self.families():
            series = []
            for values in sorted(family.children):
                child = family.children[values]
                labels = dict(zip(family.label_names, values))
                if family.kind == "counter":
                    series.append({"labels": labels, "value": child.value})
                elif family.kind == "gauge":
                    series.append({"labels": labels, "value": child.get()})
                else:
                    series.append({"labels": labels, **child.summary()})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    # Exposition format: HELP text escapes backslash and newline only
    # (double quotes are legal there, unlike in label values).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [f'{name}="{_escape(value)}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (v0.0.4) for every family."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values in sorted(family.children):
            child = family.children[values]
            labels = _labels_text(family.label_names, values)
            if family.kind == "counter":
                lines.append(f"{family.name}_total{labels} {child.value}")
            elif family.kind == "gauge":
                lines.append(f"{family.name}{labels} {child.get()}")
            else:
                cumulative = 0
                for boundary, count in zip(child.boundaries, child.counts):
                    cumulative += count
                    le = _labels_text(
                        family.label_names, values, f'le="{boundary:.9g}"'
                    )
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                le = _labels_text(family.label_names, values, 'le="+Inf"')
                lines.append(f"{family.name}_bucket{le} {child.count}")
                lines.append(f"{family.name}_sum{labels} {child.sum:.9g}")
                lines.append(f"{family.name}_count{labels} {child.count}")
    return "\n".join(lines) + "\n"
