"""One bounded record ring and one JSON Lines codec for every recorder.

The trace ring, the span recorder, the event log and the time series
each keep the newest ``capacity`` records and count what falls off
(:class:`Ring`).  Their files are JSON Lines, one ``json.dumps`` object
per line: written whole (:func:`write_jsonl`), written through with a
flush per line (:class:`JsonlSink`) and read back validated
(:func:`read_jsonl`).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

__all__ = ["JsonlSink", "Ring", "numbered_lines", "read_jsonl", "write_jsonl"]

Record = Dict[str, object]


class Ring:
    """Fixed-capacity ring of record dicts; eviction is counted.

    A subclass stamps each record with ``self._seq += 1`` and appends it
    to ``self._ring``; ``kind_field`` is the key :meth:`records` and
    :meth:`last` filter on.
    """

    kind_field = "kind"

    def __init__(self, capacity: int, noun: str) -> None:
        if capacity < 1:
            raise ValueError(f"{noun} capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[Record] = deque(maxlen=capacity)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded(self) -> int:
        """Total records ever recorded (including evicted ones)."""
        return self._seq

    @property
    def evicted(self) -> int:
        return self._seq - len(self._ring)

    def records(self, kind: Optional[str] = None) -> List[Record]:
        if kind is None:
            return list(self._ring)
        return [record for record in self._ring if record[self.kind_field] == kind]

    def last(self, kind: Optional[str] = None) -> Optional[Record]:
        for record in reversed(self._ring):
            if kind is None or record[self.kind_field] == kind:
                return record
        return None

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "buffered": len(self._ring),
            "recorded": self._seq,
            "evicted": self.evicted,
        }

    def export_jsonl(self, destination) -> int:
        """Write the buffered records as JSON Lines (see
        :func:`write_jsonl`); returns the record count."""
        return write_jsonl(self.records(), destination)


def write_jsonl(records: Iterable[Record], destination) -> int:
    """Write ``records`` as JSON Lines to a path (truncated first) or an
    open text handle; returns the record count."""
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w") as handle:
            return write_jsonl(records, handle)
    count = 0
    for record in records:
        destination.write(json.dumps(record) + "\n")
        count += 1
    return count


class JsonlSink:
    """Write-through JSONL file: each record is written and flushed as it
    arrives, so a crash loses nothing already written and tailers see
    every line at once.  Records written after :meth:`close` are dropped.

    ``max_bytes`` caps the file: before a write would push it past the
    cap, the file rotates to ``<path>.1`` (replacing any previous
    rotation) and a fresh one starts, so disk use stays under
    ~2×``max_bytes``.  ``0`` disables rotation.
    """

    def __init__(self, path: str, max_bytes: int = 0) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.rotations = 0
        self._written_bytes = 0
        self._handle: Optional[TextIO] = open(path, "w")

    def write(self, record: Record) -> None:
        if self._handle is None:
            return
        line = json.dumps(record) + "\n"
        if (
            self.max_bytes
            and self._written_bytes
            and self._written_bytes + len(line) > self.max_bytes
        ):
            self._handle.close()
            os.replace(self.path, self.path + ".1")
            self._handle = open(self.path, "w")
            self._written_bytes = 0
            self.rotations += 1
        self._handle.write(line)
        self._handle.flush()
        self._written_bytes += len(line)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def numbered_lines(handle: TextIO) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped text)`` of every non-blank line."""
    for line_number, line in enumerate(handle, 1):
        line = line.strip()
        if line:
            yield line_number, line


def read_jsonl(
    path: str, validate: Callable[[object], Record], error=ValueError
) -> List[Record]:
    """Load a JSONL file through ``validate``; raises ``error`` naming
    ``path:line`` at the first line that is not JSON or that ``validate``
    rejects with ``error``."""
    records = []
    with open(path) as handle:
        for line_number, line in numbered_lines(handle):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{line_number}: not JSON ({exc})")
            try:
                records.append(validate(record))
            except error as exc:
                raise error(f"{path}:{line_number}: {exc}")
    return records
