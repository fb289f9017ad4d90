"""Structured lifecycle event log (JSON Lines).

The metrics registry answers "how much"; this log answers "what
happened, when".  Every event is one flat JSON object with a pinned
schema: an ``event`` type from :data:`EVENT_TYPES`, a wall-clock ``ts``,
a monotonically increasing ``seq``, the type's required fields, and any
extra context the emitter wants to attach.  Event types cover the
lifecycle moments the tentpole subsystems emit:

* ``replay_start`` / ``replay_finish`` — a (sharded) replay run;
* ``shard_start`` / ``shard_progress`` / ``shard_finish`` — worker
  heartbeats, the data behind live progress/ETA;
* ``batch_flush``     — a :class:`~repro.scale.BatchProcessor` flush;
* ``quarantine``      — a circuit-breaker transition;
* ``convergence`` / ``oscillation`` — signals from the provenance
  tracker's convergence detector.

:class:`EventLog` is a bounded :class:`~repro.telemetry.records.Ring`
that optionally streams every event to a JSONL file as it is emitted,
so a crash loses nothing already written.  ``xbgp events`` tails,
filters, validates and re-renders these files.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

from .records import JsonlSink, Ring, numbered_lines, read_jsonl

__all__ = [
    "DEFAULT_EVENT_CAPACITY",
    "EVENT_TYPES",
    "EventLog",
    "EventSchemaError",
    "emit_convergence_events",
    "filter_events",
    "read_events",
    "render_event",
    "rotated_paths",
    "validate_event",
    "validate_jsonl",
]

DEFAULT_EVENT_CAPACITY = 4096

#: Event type -> required fields (beyond ``event``/``ts``/``seq``).
EVENT_TYPES: Dict[str, Tuple[str, ...]] = {
    "replay_start": ("shards", "routes"),
    "replay_finish": ("shards", "routes", "wall_seconds"),
    "shard_start": ("shard", "routes"),
    "shard_progress": ("shard", "routes_done", "routes"),
    "shard_finish": ("shard", "routes", "replay_seconds"),
    "batch_flush": ("peer", "updates"),
    "quarantine": ("point", "extension", "from_state", "to_state"),
    "convergence": ("router", "prefixes", "time_to_quiescence"),
    "oscillation": ("router", "prefix", "flaps"),
    "alert_fire": ("rule", "severity", "value"),
    "alert_resolve": ("rule",),
}


class EventSchemaError(ValueError):
    """An event does not match the pinned schema."""


def validate_event(event: object) -> Dict[str, object]:
    """Check one event against the schema; returns it on success."""
    if not isinstance(event, dict):
        raise EventSchemaError(f"event must be an object, got {type(event).__name__}")
    kind = event.get("event")
    if kind not in EVENT_TYPES:
        raise EventSchemaError(f"unknown event type {kind!r}")
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        raise EventSchemaError(f"{kind}: 'ts' must be a number, got {ts!r}")
    missing = [field for field in EVENT_TYPES[kind] if field not in event]
    if missing:
        raise EventSchemaError(f"{kind}: missing required field(s) {missing}")
    return event


class EventLog(Ring):
    """Bounded event ring with optional write-through JSONL file.

    ``path=None`` keeps events in memory only (the ``/events`` endpoint
    ring); with a path, every event goes through a
    :class:`~repro.telemetry.records.JsonlSink` as emitted.
    ``max_bytes`` caps that file for long-running serves; ``0`` (the
    default — short bench runs keep one file) disables rotation.
    """

    kind_field = "event"

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        clock=time.time,
        max_bytes: int = 0,
    ) -> None:
        super().__init__(capacity, "event")
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self._clock = clock
        self._sink = JsonlSink(path, max_bytes) if path else None

    def emit(self, event: str, **fields: object) -> Dict[str, object]:
        """Build, validate, buffer (and stream) one event."""
        return self.append({"event": event, "ts": self._clock(), **fields})

    def append(self, event: Dict[str, object]) -> Dict[str, object]:
        """Record a pre-built event (e.g. one shipped from a worker).

        Stamps ``seq`` here — sequence numbers are a property of this
        log, not of the emitting process — and ``ts`` if absent.
        """
        if "ts" not in event:
            event = {**event, "ts": self._clock()}
        validate_event(event)
        self._seq += 1
        event["seq"] = self._seq
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(event)
        return event

    events = Ring.records

    @property
    def rotations(self) -> int:
        """How many times the write-through file rolled to ``<path>.1``."""
        return self._sink.rotations if self._sink is not None else 0

    def tail(self, count: int) -> List[Dict[str, object]]:
        return self.records()[-count:] if count > 0 else []

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()


# -- file-side tooling (the ``xbgp events`` surface) ----------------------


def rotated_paths(path: str) -> List[str]:
    """The on-disk file set for a (possibly rotated) event log.

    Returns ``[path.1, path]`` when a rotation sibling exists (oldest
    first, so concatenating preserves event order), else ``[path]``.
    """
    sibling = path + ".1"
    if os.path.exists(sibling):
        return [sibling, path]
    return [path]


def read_events(path: str) -> List[Dict[str, object]]:
    """Load and validate a JSONL event log; raises on the first bad line."""
    return read_jsonl(path, validate_event, EventSchemaError)


def validate_jsonl(path: str) -> Tuple[int, List[str]]:
    """Validate every line; returns ``(valid_count, error_messages)``."""
    valid = 0
    errors: List[str] = []
    with open(path) as handle:
        for line_number, line in numbered_lines(handle):
            try:
                validate_event(json.loads(line))
                valid += 1
            except (json.JSONDecodeError, EventSchemaError) as exc:
                errors.append(f"line {line_number}: {exc}")
    return valid, errors


def filter_events(
    events: Iterable[Dict[str, object]],
    kinds: Optional[Iterable[str]] = None,
    shard: Optional[int] = None,
) -> List[Dict[str, object]]:
    wanted = set(kinds) if kinds is not None else None
    out = []
    for event in events:
        if wanted is not None and event.get("event") not in wanted:
            continue
        if shard is not None and event.get("shard") != shard:
            continue
        out.append(event)
    return out


def render_event(event: Dict[str, object]) -> str:
    """One human-readable line per event (``xbgp events`` text mode)."""
    ts = event.get("ts", 0.0)
    clock = time.strftime("%H:%M:%S", time.localtime(float(ts)))
    kind = str(event.get("event", "?"))
    skip = {"event", "ts", "seq"}
    detail = " ".join(
        f"{key}={event[key]}" for key in event if key not in skip
    )
    return f"{clock} {kind:<14} {detail}".rstrip()


def emit_convergence_events(log: EventLog, report: Dict[str, object]) -> int:
    """Convert a provenance convergence report into schema'd events.

    Accepts a per-router report (:meth:`ProvenanceTracker
    .convergence_report`) and emits one ``convergence`` summary plus one
    ``oscillation`` event per flagged prefix.  Returns the event count.
    """
    router = str(report.get("router", "?"))
    flaps: Dict[str, int] = dict(report.get("flaps", {}))
    emitted = 1
    log.emit(
        "convergence",
        router=router,
        prefixes=len(flaps),
        time_to_quiescence=report.get(
            "time_to_quiescence", report.get("time_of_last_change", 0.0)
        ),
        total_flaps=sum(flaps.values()),
    )
    for prefix in report.get("oscillating", ()):
        log.emit(
            "oscillation",
            router=router,
            prefix=str(prefix),
            flaps=flaps.get(str(prefix), 0),
        )
        emitted += 1
    return emitted
