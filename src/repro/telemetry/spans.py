"""Causal spans across the update path.

A *span* is one timed step of a route's life — the processing of an
UPDATE, one extension code's run, the decision process for a prefix,
the export pass — linked to its parent step by ``(trace, span)`` ids.
A *trace* groups every span caused by one original event; when a
router advertises a route over a simulated link, the receiving
router's UPDATE span adopts the sender's trace id, so one trace spans
routers and the full causal chain of a route can be reconstructed
end-to-end.

The recorder is a bounded :class:`~repro.telemetry.records.Ring`:
long-lived daemons keep recording, old spans are evicted and the
eviction is counted.  Timestamps come from an injectable
``clock`` — wall-clock monotonic by default, the simulator's virtual
clock when a :class:`~repro.sim.network.Network` wires it up.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple, Union

from .records import Ring

__all__ = ["SpanRecorder", "DEFAULT_SPAN_CAPACITY"]

DEFAULT_SPAN_CAPACITY = 8192

#: A portable reference to a span: (trace id, span id).  Refs cross
#: router boundaries (scheduled with the bytes on a simulated link) and
#: deserialise trivially from JSONL.
SpanRef = Tuple[str, str]


class SpanRecorder(Ring):
    """Fixed-capacity ring of span dicts for one router."""

    def __init__(
        self,
        router: str,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        clock: Optional[Callable[[], float]] = None,
    ):
        super().__init__(capacity, "span")
        self.router = router
        self.clock: Callable[[], float] = clock or time.monotonic

    def start(
        self,
        kind: str,
        parent: Optional[Union[Dict[str, object], SpanRef]] = None,
        **fields: object,
    ) -> Dict[str, object]:
        """Open a span; returns the (mutable, in-ring) span dict.

        ``parent`` is either a span dict previously returned by this
        recorder or a ``(trace, span)`` ref from *another* recorder —
        the new span joins the parent's trace either way.  With no
        parent the span roots a fresh trace.
        """
        self._seq += 1
        span_id = f"{self.router}#{self._seq}"
        if parent is None:
            trace_id = span_id
            parent_id: Optional[str] = None
        elif isinstance(parent, dict):
            trace_id, parent_id = self.ref(parent)
        else:
            trace_id, parent_id = parent
        span: Dict[str, object] = {
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "router": self.router,
            "kind": kind,
            "start": self.clock(),
        }
        if fields:
            span.update(fields)
        self._ring.append(span)
        return span

    def finish(self, span: Dict[str, object], **fields: object) -> Dict[str, object]:
        """Close a span (records ``end``); extra fields are merged in."""
        span["end"] = self.clock()
        if fields:
            span.update(fields)
        return span

    def point(
        self,
        kind: str,
        parent: Optional[Union[Dict[str, object], SpanRef]] = None,
        **fields: object,
    ) -> Dict[str, object]:
        """An instantaneous span (start == end)."""
        span = self.start(kind, parent, **fields)
        span["end"] = span["start"]
        return span

    @staticmethod
    def ref(span: Dict[str, object]) -> SpanRef:
        """The portable (trace, span) reference of ``span``."""
        return (span["trace"], span["span"])  # type: ignore[return-value]

    spans = Ring.records

    def for_trace(self, trace_id: str) -> List[Dict[str, object]]:
        """Every buffered span belonging to ``trace_id``, in start order."""
        return [span for span in self._ring if span["trace"] == trace_id]
