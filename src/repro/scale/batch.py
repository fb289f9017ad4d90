"""Batched UPDATE ingestion.

:class:`BatchProcessor` sits between a transport and a daemon: it
reassembles the TCP byte stream exactly like
``daemon.receive_raw`` would, but accumulates decoded UPDATE messages
per peer and hands them to ``daemon.process_update_batch`` in vectors.
Non-UPDATE control traffic (route refresh, keepalive) flushes the
pending batch first so relative ordering on a session is preserved.

``receive_raw`` hands each UPDATE to the same method as a vector of
one, so there is one pipeline and the final Adj-RIB-In/Loc-RIB/
Adj-RIB-Out state does not depend on the batch size; only transient
downstream traffic collapses (an announce superseded within one batch
is never advertised).  Anything that changes daemon
configuration mid-stream must call :meth:`BatchProcessor.flush` first —
the fuzz host oracle's batched arm does exactly that before replaying
peer-config writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bgp.messages import UpdateMessage, split_stream
from ..bgp.prefix import parse_ipv4
from ..telemetry.events import EventLog

__all__ = ["BatchProcessor"]


class BatchProcessor:
    """Feed raw BGP bytes to ``daemon`` in UPDATE batches of
    ``batch_size`` messages per peer.

    With the daemon's telemetry on, every flush increments the
    ``xbgp_batches_flushed`` counter and feeds the ``xbgp_batch_size``
    histogram; an attached :class:`EventLog` additionally gets one
    schema'd ``batch_flush`` event per flush.
    """

    def __init__(
        self,
        daemon,
        batch_size: int = 64,
        events: Optional[EventLog] = None,
    ) -> None:
        self.daemon = daemon
        self.batch_size = max(1, int(batch_size))
        self.events = events
        self._buffers: Dict[str, bytearray] = {}
        self._pending: Dict[str, List[UpdateMessage]] = {}
        #: Counters the sharded replay reports per worker.
        self.batches_flushed = 0
        self.updates_batched = 0
        telemetry = getattr(getattr(daemon, "vmm", None), "telemetry", None)
        if telemetry is not None:
            registry = telemetry.registry
            self._flush_counter = registry.counter(
                "xbgp_batches_flushed", "UPDATE batches handed to the daemon"
            )
            self._size_histogram = registry.histogram(
                "xbgp_batch_size",
                "UPDATE messages per flushed batch",
                buckets=[1, 2, 4, 8, 16, 32, 64, 128, 256],
            )
        else:
            self._flush_counter = None
            self._size_histogram = None

    def receive_raw(self, peer_address: str, data: bytes) -> None:
        """Buffer ``data`` from ``peer_address``; flush full batches."""
        buffer = self._buffers.get(peer_address)
        if buffer is None:
            buffer = self._buffers[peer_address] = bytearray()
        buffer.extend(data)
        for message in split_stream(buffer):
            if isinstance(message, UpdateMessage):
                pending = self._pending.setdefault(peer_address, [])
                pending.append(message)
                if len(pending) >= self.batch_size:
                    self._flush_peer(peer_address)
            else:
                # Control traffic keeps its position in the stream.
                self._flush_peer(peer_address)
                self.daemon.receive_message(peer_address, message)

    def flush(self) -> None:
        """Process every pending UPDATE immediately."""
        for peer_address in list(self._pending):
            self._flush_peer(peer_address)

    def _flush_peer(self, peer_address: str) -> None:
        pending = self._pending.get(peer_address)
        if not pending:
            return
        self._pending[peer_address] = []
        neighbor = self.daemon.neighbors.get(parse_ipv4(peer_address))
        if neighbor is None:
            # Mirror receive_message's per-message accounting.
            self.daemon.stats["unknown_peer"] += len(pending)
            return
        self.batches_flushed += 1
        self.updates_batched += len(pending)
        if self._flush_counter is not None:
            self._flush_counter.inc()
            self._size_histogram.observe(len(pending))
        if self.events is not None:
            self.events.emit("batch_flush", peer=peer_address, updates=len(pending))
        self.daemon.process_update_batch(neighbor, pending)
