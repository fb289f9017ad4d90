"""repro.telemetry — runtime observability for libxbgp.

The paper's future work says the VMM "needs to monitor the execution
of the bytecodes and their impact on the router"; this package is that
monitor, three layers sharing one facade:

* :mod:`repro.telemetry.metrics` — a registry of counters, gauges and
  log-bucketed latency histograms with Prometheus text + JSON export;
* :mod:`repro.telemetry.trace`   — a ring buffer of structured events
  (extension enter/exit, ``next()`` delegation, fallback, verdicts,
  quarantine transitions) with JSONL export;
* :mod:`repro.telemetry.health`  — a per-extension circuit breaker
  that quarantines crash-looping extension codes and optionally
  re-arms them after probation.

On top of the facade live the temporal layers:
:mod:`~repro.telemetry.timeseries` (periodic registry samples, derived
rates/quantiles, the shard merge path), :mod:`~repro.telemetry.alerts`
(declarative rules evaluated against those samples),
:mod:`~repro.telemetry.events` (the structured lifecycle log the alert
engine writes ``alert_fire``/``alert_resolve`` into),
:mod:`~repro.telemetry.exporter` (the HTTP surface) and
:mod:`~repro.telemetry.dashboard` (the ``xbgp top`` renderer).

One :class:`Telemetry` instance belongs to one
:class:`~repro.core.vmm.VirtualMachineManager`; the daemons, the
experiment harness and the ``xbgp stats`` CLI all read the same object,
so benchmarks and live runs share a single observability path.
"""

from __future__ import annotations

from typing import Dict, Optional

from .aggregate import (
    SNAPSHOT_VERSION,
    merge_into,
    merge_snapshots,
    registry_from_snapshot,
    snapshot_registry,
)
from .alerts import AlertEngine, AlertRule, AlertRuleError, load_rules, parse_rule
from .dashboard import render_dashboard, sparkline
from .events import (
    EVENT_TYPES,
    EventLog,
    EventSchemaError,
    emit_convergence_events,
    validate_event,
)
from .exporter import TelemetryExporter
from .health import ExtensionHealth, QuarantineEngine, QuarantinePolicy
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    render_prometheus,
)
from .profiler import PHASES, Profiler, VmProfile
from .progress import ReplayProgress
from .provenance import DEFAULT_STORIES_PER_PREFIX, ProvenanceTracker
from .spans import DEFAULT_SPAN_CAPACITY, SpanRecorder
from .timeseries import (
    TIMESERIES_VERSION,
    TimeSeries,
    TimeSeriesSampler,
    diff_samples,
    merge_timeseries,
    read_timeseries,
    render_diff,
)
from .trace import DEFAULT_TRACE_CAPACITY, TraceRing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "render_prometheus",
    "SNAPSHOT_VERSION",
    "snapshot_registry",
    "registry_from_snapshot",
    "merge_into",
    "merge_snapshots",
    "EVENT_TYPES",
    "EventLog",
    "EventSchemaError",
    "emit_convergence_events",
    "validate_event",
    "TelemetryExporter",
    "ReplayProgress",
    "TIMESERIES_VERSION",
    "TimeSeries",
    "TimeSeriesSampler",
    "diff_samples",
    "merge_timeseries",
    "read_timeseries",
    "render_diff",
    "AlertEngine",
    "AlertRule",
    "AlertRuleError",
    "load_rules",
    "parse_rule",
    "render_dashboard",
    "sparkline",
    "TraceRing",
    "DEFAULT_TRACE_CAPACITY",
    "SpanRecorder",
    "DEFAULT_SPAN_CAPACITY",
    "ProvenanceTracker",
    "DEFAULT_STORIES_PER_PREFIX",
    "Profiler",
    "VmProfile",
    "PHASES",
    "ExtensionHealth",
    "QuarantineEngine",
    "QuarantinePolicy",
    "Telemetry",
]


class Telemetry:
    """Registry + trace + quarantine engine wired together."""

    def __init__(self, policy: Optional[QuarantinePolicy] = None):
        self.registry = MetricsRegistry()
        self.trace = TraceRing()
        self.health = QuarantineEngine(policy, on_transition=self._on_transition)
        #: Optional structured event log; when set, breaker transitions
        #: also become schema'd ``quarantine`` events.
        self.events: Optional[EventLog] = None

    # -- quarantine plumbing ----------------------------------------------

    def _on_transition(self, health: ExtensionHealth, previous: str) -> None:
        self.trace.record(
            "quarantine",
            health.point,
            health.name,
            from_state=previous,
            to_state=health.state,
        )
        self.registry.counter(
            "xbgp_quarantine_transitions",
            "circuit-breaker state changes",
            point=health.point,
            extension=health.name,
            to_state=health.state,
        ).inc()
        if self.events is not None:
            self.events.emit(
                "quarantine",
                point=health.point,
                extension=health.name,
                from_state=previous,
                to_state=health.state,
            )

    # -- export ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Metrics in Prometheus text exposition format."""
        return render_prometheus(self.registry)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able view of everything: metrics, health, trace.

        ``registry`` is the full-fidelity mergeable form (exact
        histogram buckets) — what ``xbgp stats --merge`` and the shard
        merge path consume; ``metrics`` stays the human-facing summary
        view.
        """
        return {
            "metrics": self.registry.to_json(),
            "registry": snapshot_registry(self.registry),
            "health": self.health.snapshot(),
            "trace": self.trace.stats(),
        }
