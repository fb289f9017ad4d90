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

import io
import json
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Union

__all__ = ["TraceRing", "DEFAULT_TRACE_CAPACITY"]

DEFAULT_TRACE_CAPACITY = 4096


class TraceRing:
    """Fixed-capacity ring buffer of event dicts."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY, timestamps: bool = False):
        """``timestamps=True`` stamps every event with
        ``time.monotonic()`` — monotonic so inter-event deltas survive
        wall-clock adjustments; the stamps ride along into
        :meth:`export_jsonl`."""
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self.timestamps = timestamps
        self._events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._seq = 0

    # -- recording -------------------------------------------------------

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
        self._events.append(event)
        return event

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        return self._seq

    @property
    def evicted(self) -> int:
        return self._seq - len(self._events)

    def events(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event["kind"] == kind]

    def last(self, kind: Optional[str] = None) -> Optional[Dict[str, object]]:
        if kind is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event["kind"] == kind:
                return event
        return None

    def clear(self) -> None:
        self._events.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "buffered": len(self._events),
            "recorded": self._seq,
            "evicted": self.evicted,
        }

    # -- export -----------------------------------------------------------

    def export_jsonl(self, destination: Union[str, io.TextIOBase]) -> int:
        """Write buffered events as JSON Lines; returns the event count."""
        events = list(self._events)
        if isinstance(destination, str):
            with open(destination, "w") as handle:
                for event in events:
                    handle.write(json.dumps(event) + "\n")
        else:
            for event in events:
                destination.write(json.dumps(event) + "\n")
        return len(events)
