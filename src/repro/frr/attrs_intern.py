"""FRRouting-style interned attribute sets.

Real FRRouting parses path attributes into ``struct attr`` — host
byte order, fixed fields — and hash-conses them (``attrhash``).  The
paper's FRR glue was the bigger one precisely because of this: every
xBGP call crossing the API needs conversion between this parsed form
and the neutral network-byte-order representation.  The conversion
functions live here (:meth:`FrrAttrs.from_wire`, :meth:`FrrAttrs.to_wire`,
:meth:`FrrAttrs.attr_to_wire`) and are exercised by the glue on every
``get_attr``/``set_attr``.
"""

from __future__ import annotations

import struct
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..bgp.aspath import AsPath, AsPathSegment
from ..bgp.attributes import (
    PathAttribute,
    make_as_path,
    make_atomic_aggregate,
    make_aggregator,
    make_cluster_list,
    make_communities,
    make_local_pref,
    make_med,
    make_next_hop,
    make_origin,
    make_originator_id,
)
from ..bgp.constants import AttrTypeCode, Origin

__all__ = ["FrrAttrs", "AttrPool"]

#: Parsed AS path in host form: tuple of (segment kind, tuple of ASNs).
HostPath = Tuple[Tuple[int, Tuple[int, ...]], ...]


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
        "_wire_cache",
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
        self._wire_cache: Optional[List[PathAttribute]] = None
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

    def key(self):
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrrAttrs):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    # -- conversion: wire (neutral) -> host ------------------------------

    @classmethod
    def from_wire(cls, attributes: Iterable[PathAttribute]) -> "FrrAttrs":
        """Parse neutral attributes into the host representation."""
        fields: Dict[str, object] = {}
        extra: List[Tuple[int, int, bytes]] = []
        for attribute in attributes:
            code = attribute.type_code
            if code == AttrTypeCode.ORIGIN and len(attribute.value) == 1:
                fields["origin"] = attribute.value[0]
            elif code == AttrTypeCode.AS_PATH:
                path = AsPath.decode(attribute.value)
                fields["as_path"] = tuple(
                    (int(segment.kind), segment.asns) for segment in path.segments
                )
            elif code == AttrTypeCode.NEXT_HOP and len(attribute.value) == 4:
                fields["next_hop"] = struct.unpack("!I", attribute.value)[0]
            elif code == AttrTypeCode.MULTI_EXIT_DISC and len(attribute.value) == 4:
                fields["med"] = struct.unpack("!I", attribute.value)[0]
            elif code == AttrTypeCode.LOCAL_PREF and len(attribute.value) == 4:
                fields["local_pref"] = struct.unpack("!I", attribute.value)[0]
            elif code == AttrTypeCode.ATOMIC_AGGREGATE:
                fields["atomic_aggregate"] = True
            elif code == AttrTypeCode.AGGREGATOR and len(attribute.value) == 8:
                fields["aggregator"] = struct.unpack("!II", attribute.value)
            elif code == AttrTypeCode.COMMUNITIES and len(attribute.value) % 4 == 0:
                fields["communities"] = frozenset(
                    struct.unpack_from("!I", attribute.value, i)[0]
                    for i in range(0, len(attribute.value), 4)
                )
            elif code == AttrTypeCode.ORIGINATOR_ID and len(attribute.value) == 4:
                fields["originator_id"] = struct.unpack("!I", attribute.value)[0]
            elif code == AttrTypeCode.CLUSTER_LIST and len(attribute.value) % 4 == 0:
                fields["cluster_list"] = tuple(
                    struct.unpack_from("!I", attribute.value, i)[0]
                    for i in range(0, len(attribute.value), 4)
                )
            else:
                extra.append((code, attribute.flags, attribute.value))
        return cls(extra=tuple(extra), **fields)  # type: ignore[arg-type]

    # -- conversion: host -> wire (neutral) ----------------------------------

    def to_wire(self) -> List[PathAttribute]:
        """Serialize the parsed set back to neutral attributes."""
        if self._wire_cache is not None:
            return list(self._wire_cache)
        out: List[PathAttribute] = []
        if self.origin is not None:
            out.append(make_origin(Origin(self.origin)))
        if self.as_path or self.origin is not None:
            segments = [AsPathSegment(kind, asns) for kind, asns in self.as_path]
            out.append(make_as_path(AsPath(segments)))
        if self.next_hop is not None:
            out.append(make_next_hop(self.next_hop))
        if self.med is not None:
            out.append(make_med(self.med))
        if self.local_pref is not None:
            out.append(make_local_pref(self.local_pref))
        if self.atomic_aggregate:
            out.append(make_atomic_aggregate())
        if self.aggregator is not None:
            out.append(make_aggregator(*self.aggregator))
        if self.communities is not None:
            out.append(make_communities(self.communities))
        if self.originator_id is not None:
            out.append(make_originator_id(self.originator_id))
        if self.cluster_list is not None:
            out.append(make_cluster_list(self.cluster_list))
        for code, flags, value in self.extra:
            out.append(PathAttribute(flags, code, value))
        out.sort(key=lambda a: a.type_code)
        self._wire_cache = out
        return list(out)

    def attr_to_wire(self, code: int) -> Optional[PathAttribute]:
        """Convert one attribute to neutral form (glue hot path, memoised)."""
        cache = self._attr_cache
        if code in cache:
            return cache[code]
        result = self._attr_to_wire_uncached(code)
        cache[code] = result
        return result

    def _attr_to_wire_uncached(self, code: int) -> Optional[PathAttribute]:
        if code == AttrTypeCode.ORIGIN:
            return make_origin(Origin(self.origin)) if self.origin is not None else None
        if code == AttrTypeCode.AS_PATH:
            if not self.as_path and self.origin is None:
                return None
            segments = [AsPathSegment(kind, asns) for kind, asns in self.as_path]
            return make_as_path(AsPath(segments))
        if code == AttrTypeCode.NEXT_HOP:
            return make_next_hop(self.next_hop) if self.next_hop is not None else None
        if code == AttrTypeCode.MULTI_EXIT_DISC:
            return make_med(self.med) if self.med is not None else None
        if code == AttrTypeCode.LOCAL_PREF:
            return (
                make_local_pref(self.local_pref)
                if self.local_pref is not None
                else None
            )
        if code == AttrTypeCode.ATOMIC_AGGREGATE:
            return make_atomic_aggregate() if self.atomic_aggregate else None
        if code == AttrTypeCode.AGGREGATOR:
            return make_aggregator(*self.aggregator) if self.aggregator else None
        if code == AttrTypeCode.COMMUNITIES:
            return (
                make_communities(self.communities)
                if self.communities is not None
                else None
            )
        if code == AttrTypeCode.ORIGINATOR_ID:
            return (
                make_originator_id(self.originator_id)
                if self.originator_id is not None
                else None
            )
        if code == AttrTypeCode.CLUSTER_LIST:
            return (
                make_cluster_list(self.cluster_list)
                if self.cluster_list is not None
                else None
            )
        for extra_code, flags, value in self.extra:
            if extra_code == code:
                return PathAttribute(flags, code, value)
        return None

    # -- functional updates (new interned instance per change) -----------------

    def replaced(self, **changes) -> "FrrAttrs":
        fields = {
            "origin": self.origin,
            "as_path": self.as_path,
            "next_hop": self.next_hop,
            "med": self.med,
            "local_pref": self.local_pref,
            "atomic_aggregate": self.atomic_aggregate,
            "aggregator": self.aggregator,
            "communities": self.communities,
            "originator_id": self.originator_id,
            "cluster_list": self.cluster_list,
            "extra": self.extra,
        }
        fields.update(changes)
        return FrrAttrs(**fields)  # type: ignore[arg-type]

    def with_attr_wire(self, code: int, flags: int, value: bytes) -> "FrrAttrs":
        """Set one attribute from its neutral form (conversion in).

        Parses the single attribute's wire bytes straight into the host
        field (this is the glue hot path: the RR extension calls it for
        every reflected route).
        """
        changes: Dict[str, object] = {}
        if code == AttrTypeCode.ORIGIN:
            if len(value) != 1:
                raise ValueError("ORIGIN must be one byte")
            changes["origin"] = value[0]
        elif code == AttrTypeCode.AS_PATH:
            path = AsPath.decode(value)
            changes["as_path"] = tuple(
                (int(segment.kind), segment.asns) for segment in path.segments
            )
        elif code == AttrTypeCode.NEXT_HOP:
            changes["next_hop"] = struct.unpack("!I", value)[0]
        elif code == AttrTypeCode.MULTI_EXIT_DISC:
            changes["med"] = struct.unpack("!I", value)[0]
        elif code == AttrTypeCode.LOCAL_PREF:
            changes["local_pref"] = struct.unpack("!I", value)[0]
        elif code == AttrTypeCode.ATOMIC_AGGREGATE:
            changes["atomic_aggregate"] = True
        elif code == AttrTypeCode.AGGREGATOR:
            changes["aggregator"] = struct.unpack("!II", value)
        elif code == AttrTypeCode.COMMUNITIES:
            if len(value) % 4 != 0:
                raise ValueError("COMMUNITIES not a multiple of 4")
            changes["communities"] = frozenset(
                struct.unpack_from("!I", value, i)[0] for i in range(0, len(value), 4)
            )
        elif code == AttrTypeCode.ORIGINATOR_ID:
            changes["originator_id"] = struct.unpack("!I", value)[0]
        elif code == AttrTypeCode.CLUSTER_LIST:
            if len(value) % 4 != 0:
                raise ValueError("CLUSTER_LIST not a multiple of 4")
            changes["cluster_list"] = tuple(
                struct.unpack_from("!I", value, i)[0] for i in range(0, len(value), 4)
            )
        else:
            extra = tuple(
                entry for entry in self.extra if entry[0] != code
            ) + ((code, flags, bytes(value)),)
            changes["extra"] = extra
        return self.replaced(**changes)

    def without_attr(self, code: int) -> Tuple["FrrAttrs", bool]:
        """Remove one attribute; returns (new set, removed?)."""
        mapping = {
            AttrTypeCode.ORIGIN: ("origin", None),
            AttrTypeCode.AS_PATH: ("as_path", ()),
            AttrTypeCode.NEXT_HOP: ("next_hop", None),
            AttrTypeCode.MULTI_EXIT_DISC: ("med", None),
            AttrTypeCode.LOCAL_PREF: ("local_pref", None),
            AttrTypeCode.ATOMIC_AGGREGATE: ("atomic_aggregate", False),
            AttrTypeCode.AGGREGATOR: ("aggregator", None),
            AttrTypeCode.COMMUNITIES: ("communities", None),
            AttrTypeCode.ORIGINATOR_ID: ("originator_id", None),
            AttrTypeCode.CLUSTER_LIST: ("cluster_list", None),
        }
        entry = mapping.get(code)
        if entry is not None:
            field, empty = entry
            if getattr(self, field) in (None, (), False):
                return self, False
            return self.replaced(**{field: empty}), True
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
        self._pool: Dict[tuple, FrrAttrs] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, attrs: FrrAttrs) -> FrrAttrs:
        existing = self._pool.get(attrs.key())
        if existing is not None:
            self.hits += 1
            return existing
        self.misses += 1
        self._pool[attrs.key()] = attrs
        return attrs

    def __len__(self) -> int:
        return len(self._pool)
