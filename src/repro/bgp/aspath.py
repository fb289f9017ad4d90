"""AS_PATH representation and wire codec.

The neutral xBGP representation always uses 4-octet AS numbers
(RFC 6793); the 2-octet legacy encoding is supported for interop with
old speakers.  Paths are sequences of segments; the common case is one
``AS_SEQUENCE``.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Sequence, Tuple

from .constants import AsPathSegmentType

__all__ = ["AsPathSegment", "AsPath", "AsPathDecodeError"]


class AsPathDecodeError(ValueError):
    """Raised for malformed AS_PATH wire bytes."""


#: Segment type byte → enum member, built from the enum once at import:
#: the per-segment loops look a type up instead of calling the enum.
_SEGMENT_TYPES = {int(kind): kind for kind in AsPathSegmentType}


class AsPathSegment:
    """One AS_PATH segment: a type plus an ordered tuple of AS numbers."""

    __slots__ = ("kind", "asns")

    def __init__(self, kind: AsPathSegmentType, asns: Iterable[int]):
        segment_type = _SEGMENT_TYPES.get(kind)
        if segment_type is None:
            raise ValueError(f"{kind!r} is not a valid AsPathSegmentType")
        self.kind = segment_type
        self.asns: Tuple[int, ...] = tuple(int(a) for a in asns)
        for asn in self.asns:
            if not 0 <= asn <= 0xFFFFFFFF:
                raise ValueError(f"AS number out of range: {asn}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AsPathSegment):
            return NotImplemented
        return self.kind == other.kind and self.asns == other.asns

    def __hash__(self) -> int:
        return hash((self.kind, self.asns))

    def __repr__(self) -> str:
        return f"AsPathSegment({self.kind.name}, {list(self.asns)})"

    def path_length(self) -> int:
        """RFC 4271 §9.1.2.2: an AS_SET counts as one hop."""
        if self.kind in (AsPathSegmentType.AS_SET, AsPathSegmentType.AS_CONFED_SET):
            return 1
        return len(self.asns)


class AsPath:
    """An ordered list of :class:`AsPathSegment`.

    Immutable by convention; mutating operations return new paths.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[AsPathSegment] = ()):
        self.segments: Tuple[AsPathSegment, ...] = tuple(segments)

    @classmethod
    def from_sequence(cls, asns: Sequence[int]) -> "AsPath":
        """Build a path holding a single AS_SEQUENCE (the common case)."""
        if not asns:
            return cls()
        return cls([AsPathSegment(AsPathSegmentType.AS_SEQUENCE, asns)])

    # -- semantics ---------------------------------------------------

    def length(self) -> int:
        """Decision-process path length (AS_SET counts once)."""
        return sum(segment.path_length() for segment in self.segments)

    def asn_iter(self) -> Iterator[int]:
        """Iterate every AS number in order of appearance."""
        for segment in self.segments:
            yield from segment.asns

    def contains(self, asn: int) -> bool:
        """Loop detection: does ``asn`` appear anywhere in the path?"""
        return any(a == asn for a in self.asn_iter())

    def first_asn(self) -> int:
        """Neighbouring (leftmost) AS, or 0 for an empty path."""
        for asn in self.asn_iter():
            return asn
        return 0

    def origin_asn(self) -> int:
        """Originating (rightmost) AS, or 0 for an empty path.

        Per RFC 6811, when the path ends with an AS_SET the origin is
        considered ambiguous; we return 0 so validation yields INVALID
        unless a covering ROA matches AS 0 (it never does).
        """
        if not self.segments:
            return 0
        last = self.segments[-1]
        if last.kind != AsPathSegmentType.AS_SEQUENCE or not last.asns:
            return 0
        return last.asns[-1]

    def prepend(self, asn: int, count: int = 1) -> "AsPath":
        """Return a new path with ``asn`` prepended ``count`` times."""
        if count < 1:
            raise ValueError("count must be >= 1")
        head = (asn,) * count
        if self.segments and self.segments[0].kind == AsPathSegmentType.AS_SEQUENCE:
            first = AsPathSegment(
                AsPathSegmentType.AS_SEQUENCE, head + self.segments[0].asns
            )
            return AsPath((first,) + self.segments[1:])
        return AsPath(
            (AsPathSegment(AsPathSegmentType.AS_SEQUENCE, head),) + self.segments
        )

    def consecutive_pairs(self) -> Iterator[Tuple[int, int]]:
        """Yield each consecutive (left, right) AS pair of the flat path.

        This is the walk the valley-free data-center filter (§3.3) does:
        a route is rejected when any pair matches the level manifest.
        """
        previous = None
        for asn in self.asn_iter():
            if previous is not None:
                yield previous, asn
            previous = asn

    # -- wire codec --------------------------------------------------

    def encode(self, four_octet: bool = True) -> bytes:
        """Encode the attribute value field."""
        fmt = "!I" if four_octet else "!H"
        out = bytearray()
        for segment in self.segments:
            if len(segment.asns) > 255:
                raise ValueError("segment longer than 255 ASes")
            out.append(segment.kind)
            out.append(len(segment.asns))
            for asn in segment.asns:
                if not four_octet and asn > 0xFFFF:
                    raise ValueError(f"AS {asn} needs 4-octet encoding")
                out += struct.pack(fmt, asn)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes, four_octet: bool = True) -> "AsPath":
        """Decode an attribute value field."""
        size = 4 if four_octet else 2
        fmt = "!I" if four_octet else "!H"
        segments: List[AsPathSegment] = []
        offset = 0
        while offset < len(data):
            if offset + 2 > len(data):
                raise AsPathDecodeError("truncated segment header")
            kind = _SEGMENT_TYPES.get(data[offset])
            if kind is None:
                raise AsPathDecodeError(f"bad segment type {data[offset]}")
            count = data[offset + 1]
            offset += 2
            end = offset + count * size
            if end > len(data):
                raise AsPathDecodeError("truncated segment body")
            asns = [
                struct.unpack_from(fmt, data, offset + i * size)[0]
                for i in range(count)
            ]
            segments.append(AsPathSegment(kind, asns))
            offset = end
        return cls(segments)

    # -- dunder ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AsPath):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __len__(self) -> int:
        return self.length()

    def __repr__(self) -> str:
        return f"AsPath({list(self.asn_iter())})"

    def __str__(self) -> str:
        parts = []
        for segment in self.segments:
            rendered = " ".join(str(a) for a in segment.asns)
            if segment.kind == AsPathSegmentType.AS_SET:
                parts.append("{" + rendered + "}")
            else:
                parts.append(rendered)
        return " ".join(parts)
