"""Structured execution traces: a bounded ring of VMM events.

Every interesting moment of an insertion-point invocation becomes one
event dict: extension ``enter``/``exit``, ``next()`` delegation,
``fallback`` to the native function, filter ``verdict``s and
quarantine/probation transitions.  The ring is bounded (old events are
evicted, eviction is counted) so a long-lived daemon can keep tracing
without growing; ``export_jsonl`` dumps the surviving window for
offline analysis.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .records import Ring

__all__ = ["TraceRing", "DEFAULT_TRACE_CAPACITY"]

DEFAULT_TRACE_CAPACITY = 4096


class TraceRing(Ring):
    """Fixed-capacity ring buffer of event dicts."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY, timestamps: bool = False):
        """``timestamps=True`` stamps every event with
        ``time.monotonic()`` — monotonic so inter-event deltas survive
        wall-clock adjustments; the stamps ride along into
        :meth:`export_jsonl`."""
        super().__init__(capacity, "trace")
        self.timestamps = timestamps

    def record(
        self,
        kind: str,
        point: Optional[str] = None,
        extension: Optional[str] = None,
        **fields: object,
    ) -> Dict[str, object]:
        """Append one event; returns it (callers may enrich in place)."""
        self._seq += 1
        event: Dict[str, object] = {"seq": self._seq, "kind": kind}
        if point is not None:
            event["point"] = point
        if extension is not None:
            event["extension"] = extension
        if self.timestamps:
            event["ts"] = time.monotonic()
        if fields:
            event.update(fields)
        self._ring.append(event)
        return event

    events = Ring.records
