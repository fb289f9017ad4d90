"""FRRouting-style interned attribute sets.

Real FRRouting parses path attributes into ``struct attr`` — host
byte order, fixed fields — and hash-conses them (``attrhash``).  The
paper's FRR glue was the bigger one precisely because of this: every
xBGP call crossing the API needs conversion between this parsed form
and the neutral network-byte-order representation.  It lives here: one
field parser (:meth:`FrrAttrs.parse_field`) and one field encoder
(:meth:`FrrAttrs.encode_field`), which an UPDATE's block goes through
straight from and to the wire, and the glue one attribute at a time.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..bgp.aspath import decode_segments, encode_segments
from ..bgp.attributes import PathAttribute, _flags_for
from ..bgp.communities import encode_communities
from ..bgp.constants import AttrTypeCode, Origin

__all__ = ["FrrAttrs", "AttrPool"]

#: Parsed AS path in host form: tuple of (segment kind, tuple of ASNs).
HostPath = Tuple[Tuple[int, Tuple[int, ...]], ...]

#: Attribute code -> the field it is parsed into, in code order; every
#: other code is carried raw in ``extra``.
_FIELDS: Dict[int, str] = {
    int(AttrTypeCode.ORIGIN): "origin",
    int(AttrTypeCode.AS_PATH): "as_path",
    int(AttrTypeCode.NEXT_HOP): "next_hop",
    int(AttrTypeCode.MULTI_EXIT_DISC): "med",
    int(AttrTypeCode.LOCAL_PREF): "local_pref",
    int(AttrTypeCode.ATOMIC_AGGREGATE): "atomic_aggregate",
    int(AttrTypeCode.AGGREGATOR): "aggregator",
    int(AttrTypeCode.COMMUNITIES): "communities",
    int(AttrTypeCode.ORIGINATOR_ID): "originator_id",
    int(AttrTypeCode.CLUSTER_LIST): "cluster_list",
}
#: What ``FrrAttrs._key`` lists, in order.
_KEY_FIELDS = (*_FIELDS.values(), "extra")
#: (code, the flags FRR writes for it) of each field, in ``_key`` order.
_FIELD_FLAGS = tuple((code, _flags_for(code)) for code in _FIELDS)
#: Value of a field whose attribute is absent, where it is not None.
_ABSENT = {"as_path": (), "atomic_aggregate": False}
_U32 = struct.Struct("!I")
_U32_PAIR = struct.Struct("!II")
_code = itemgetter(1)


class FrrAttrs:
    """Immutable parsed attribute set (host byte order), hash-consable.

    Unknown attribute codes are carried in ``extra`` as raw
    ``(code, flags, bytes)`` triples — the equivalent of FRR's
    ``transit`` blob (and the part the paper had to extend so plugins
    can attach non-standard attributes like ORIGINATOR_ID or GeoLoc).
    """

    __slots__ = (
        "origin",
        "as_path",
        "next_hop",
        "med",
        "local_pref",
        "atomic_aggregate",
        "aggregator",
        "communities",
        "originator_id",
        "cluster_list",
        "extra",
        "_key",
        "_hash",
        "_attr_cache",
        "_packed_cache",
        "_write_cache",
    )

    def __init__(
        self,
        origin: Optional[int] = None,
        as_path: HostPath = (),
        next_hop: Optional[int] = None,
        med: Optional[int] = None,
        local_pref: Optional[int] = None,
        atomic_aggregate: bool = False,
        aggregator: Optional[Tuple[int, int]] = None,
        communities: Optional[FrozenSet[int]] = None,
        originator_id: Optional[int] = None,
        cluster_list: Optional[Tuple[int, ...]] = None,
        extra: Tuple[Tuple[int, int, bytes], ...] = (),
    ):
        self.origin = origin
        self.as_path = as_path
        self.next_hop = next_hop
        self.med = med
        self.local_pref = local_pref
        self.atomic_aggregate = atomic_aggregate
        self.aggregator = aggregator
        self.communities = communities
        self.originator_id = originator_id
        self.cluster_list = cluster_list
        self.extra = tuple(sorted(extra))
        self._key = (
            origin,
            as_path,
            next_hop,
            med,
            local_pref,
            atomic_aggregate,
            aggregator,
            communities,
            originator_id,
            cluster_list,
            self.extra,
        )
        self._hash = hash(self._key)
        # Per-attribute neutral-form cache: FrrAttrs are immutable and
        # interned, so each host->wire conversion happens once (FRR
        # itself caches encoded attribute blobs the same way).
        self._attr_cache: Dict[int, Optional[PathAttribute]] = {}
        # Per-attribute ``get_attr`` helper-struct cache (pack_attr
        # header + payload), filled by the glue's get_attr_packed.
        self._packed_cache: Dict[int, Optional[bytes]] = {}
        # ``set_attr`` write cache: (code, flags, value) -> the interned
        # result of applying that write to this set.  Extensions stamp
        # the same value onto many routes sharing an attribute set (RR
        # stamps one ORIGINATOR_ID per peer), so the parse + rebuild +
        # intern happens once per (set, write) pair.
        self._write_cache: Dict[Tuple[int, int, bytes], "FrrAttrs"] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrrAttrs):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    # -- conversion: wire -> host ---------------------------------------

    @staticmethod
    def parse_field(code: int, value: bytes):
        """The one wire -> host parser: the value of attribute ``code``
        (a key of ``_FIELDS``) in host form, or None when a fixed-size
        value has the wrong size.  A malformed AS_PATH raises
        :class:`~repro.bgp.aspath.AsPathDecodeError`."""
        length = len(value)
        if code == 2:  # AS_PATH
            return decode_segments(value)
        if code == 1:  # ORIGIN
            return value[0] if length == 1 else None
        if code == 6:  # ATOMIC_AGGREGATE
            return True
        if code == 7:  # AGGREGATOR
            return _U32_PAIR.unpack(value) if length == 8 else None
        if code == 8 or code == 10:  # COMMUNITIES, CLUSTER_LIST
            if length % 4:
                return None
            values = struct.unpack(f"!{length // 4}I", value)
            return frozenset(values) if code == 8 else values
        # NEXT_HOP, MED, LOCAL_PREF, ORIGINATOR_ID
        return _U32.unpack(value)[0] if length == 4 else None

    @classmethod
    def from_tlvs(cls, tlvs: Iterable[Tuple[int, int, bytes]]) -> "FrrAttrs":
        """Parse an attribute block's ``(flags, code, value)`` triples; a
        wrong-size fixed field is kept raw in ``extra``, like any code
        without a field."""
        fields: Dict[str, object] = {}
        extra: List[Tuple[int, int, bytes]] = []
        for flags, code, value in tlvs:
            field = _FIELDS.get(code)
            parsed = None if field is None else cls.parse_field(code, value)
            if parsed is None:
                extra.append((code, flags, value))
            else:
                fields[field] = parsed
        return cls(extra=extra, **fields)  # type: ignore[arg-type]

    @classmethod
    def from_wire(cls, attributes: Iterable[PathAttribute]) -> "FrrAttrs":
        """Parse neutral attributes into the host representation."""
        return cls.from_tlvs((a.flags, a.type_code, a.value) for a in attributes)

    # -- conversion: host -> wire ---------------------------------------

    def encode_field(self, code: int, value) -> Optional[bytes]:
        """The one host -> wire encoder: the value bytes of field
        ``code`` (a key of ``_FIELDS``) holding ``value``, None when the
        attribute is absent.  An ORIGIN outside 0-2 raises ValueError."""
        if value is None or value is False:
            return None
        if code == 2:  # AS_PATH: written empty beside an ORIGIN
            return encode_segments(value) if value or self.origin is not None else None
        if code == 1:  # ORIGIN
            return bytes((Origin(value),))
        if code == 6:  # ATOMIC_AGGREGATE
            return b""
        if code == 7:  # AGGREGATOR
            return _U32_PAIR.pack(*value)
        if code == 8:  # COMMUNITIES
            return encode_communities(value)
        if code == 10:  # CLUSTER_LIST
            return struct.pack(f"!{len(value)}I", *value)
        return _U32.pack(value)  # NEXT_HOP, MED, LOCAL_PREF, ORIGINATOR_ID

    def wire_tlvs(self) -> List[Tuple[int, int, bytes]]:
        """Every attribute as ``(flags, code, value)``, by type code;
        FRR writes its own canonical flags for the fields."""
        tlvs = []
        for (code, flags), value in zip(_FIELD_FLAGS, self._key):
            if value is not None:
                value = self.encode_field(code, value)
                if value is not None:
                    tlvs.append((flags, code, value))
        if self.extra:
            tlvs += [(flags & 0xFF, code & 0xFF, value) for code, flags, value in self.extra]
            tlvs.sort(key=_code)
        return tlvs

    def to_wire(self) -> List[PathAttribute]:
        """Serialize the parsed set back to neutral attributes."""
        return [PathAttribute(*tlv) for tlv in self.wire_tlvs()]

    def attr_to_wire(self, code: int) -> Optional[PathAttribute]:
        """Convert one attribute to neutral form (glue hot path, memoised)."""
        cache = self._attr_cache
        if code in cache:
            return cache[code]
        if code in _FIELDS:
            value = self.encode_field(code, getattr(self, _FIELDS[code]))
            tlv = None if value is None else (_flags_for(code), code, value)
        else:
            tlv = next(((f, code, v) for c, f, v in self.extra if c == code), None)
        result = cache[code] = None if tlv is None else PathAttribute(*tlv)
        return result

    # -- functional updates (new interned instance per change) -----------------

    def replaced(self, **changes) -> "FrrAttrs":
        fields = dict(zip(_KEY_FIELDS, self._key))
        fields.update(changes)
        return FrrAttrs(**fields)  # type: ignore[arg-type]

    def with_attr_wire(self, code: int, flags: int, value: bytes) -> "FrrAttrs":
        """Set one attribute from its neutral form (conversion in).

        The glue hot path: the RR extension calls it for every reflected
        route.  A value :meth:`parse_field` cannot parse raises
        ValueError, so the write is refused.
        """
        field = _FIELDS.get(code)
        if field is None:
            extra = [entry for entry in self.extra if entry[0] != code]
            return self.replaced(extra=extra + [(code, flags, bytes(value))])
        parsed = self.parse_field(code, value)
        if parsed is None:
            raise ValueError(f"attribute {code} cannot be {len(value)} bytes")
        return self.replaced(**{field: parsed})

    def without_attr(self, code: int) -> Tuple["FrrAttrs", bool]:
        """Remove one attribute; returns (new set, removed?)."""
        field = _FIELDS.get(code)
        if field is not None:
            if getattr(self, field) in (None, (), False):
                return self, False
            return self.replaced(**{field: _ABSENT.get(field)}), True
        extra = tuple(item for item in self.extra if item[0] != code)
        if len(extra) == len(self.extra):
            return self, False
        return self.replaced(extra=extra), True

    def has_attr(self, code: int) -> bool:
        return self.attr_to_wire(code) is not None

    def __repr__(self) -> str:
        return f"FrrAttrs(path={self.as_path}, nh={self.next_hop})"


class AttrPool:
    """FRR's ``attrhash``: hash-consing pool for attribute sets."""

    def __init__(self) -> None:
        self._pool: Dict[FrrAttrs, FrrAttrs] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, attrs: FrrAttrs) -> FrrAttrs:
        existing = self._pool.setdefault(attrs, attrs)
        if existing is attrs:
            self.misses += 1
        else:
            self.hits += 1
        return existing

    def __len__(self) -> int:
        return len(self._pool)
