"""PyFRR route objects: direct views over parsed attribute sets."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..bgp.aspath import AsPath, AsPathSegment
from ..bgp.attributes import PathAttribute
from ..bgp.constants import AsPathSegmentType, AttrTypeCode, Origin, RouteOriginValidity
from ..bgp.peer import Neighbor
from ..bgp.prefix import Prefix
from ..bgp.rib import RouteView
from .attrs_intern import FrrAttrs

__all__ = ["FrrRoute"]


class FrrRoute(RouteView):
    """One route: prefix + source + interned parsed attribute set.

    Unlike :class:`repro.bird.rib.BirdRoute`, decision accessors read
    the parsed host-order fields directly — no byte parsing, no caching
    needed.  That asymmetry is the point: the two hosts really do store
    routes differently, and the same xBGP bytecode works on both.
    """

    __slots__ = ("prefix", "source", "attrs", "validity")

    def __init__(self, prefix: Prefix, source: Optional[Neighbor], attrs: FrrAttrs):
        self.prefix = prefix
        self.source = source
        self.attrs = attrs
        self.validity: Optional[RouteOriginValidity] = None

    # -- RouteView contract ---------------------------------------------

    def attribute(self, type_code: int) -> Optional[PathAttribute]:
        return self.attrs.attr_to_wire(type_code)

    def attribute_list(self) -> List[PathAttribute]:
        return self.attrs.to_wire()

    def with_attributes(self, attributes: List[PathAttribute]) -> "FrrRoute":
        return self.with_frr_attrs(FrrAttrs.from_wire(attributes))

    def with_frr_attrs(self, attrs: FrrAttrs) -> "FrrRoute":
        clone = FrrRoute(self.prefix, self.source, attrs)
        clone.validity = self.validity
        return clone

    # -- fast decision accessors (parsed fields, host order) ----------------

    def local_pref(self) -> int:
        value = self.attrs.local_pref
        return value if value is not None else 100

    def as_path(self) -> AsPath:
        return AsPath(AsPathSegment(kind, asns) for kind, asns in self.attrs.as_path)

    def as_path_length(self) -> int:
        length = 0
        for kind, asns in self.attrs.as_path:
            if kind in (AsPathSegmentType.AS_SET, AsPathSegmentType.AS_CONFED_SET):
                length += 1
            else:
                length += len(asns)
        return length

    def origin(self) -> int:
        value = self.attrs.origin
        return value if value is not None else Origin.INCOMPLETE

    def med(self) -> int:
        value = self.attrs.med
        return value if value is not None else 0

    def next_hop(self) -> int:
        value = self.attrs.next_hop
        return value if value is not None else 0

    def originator_or_router_id(self) -> int:
        if self.attrs.originator_id is not None:
            return self.attrs.originator_id
        return self.source.peer_router_id if self.source is not None else 0

    def cluster_list_length(self) -> int:
        return len(self.attrs.cluster_list or ())

    def origin_asn(self) -> int:
        path = self.attrs.as_path
        if not path:
            return 0
        kind, asns = path[-1]
        if kind != AsPathSegmentType.AS_SEQUENCE or not asns:
            return 0
        return asns[-1]

    def path_contains(self, asn: int) -> bool:
        return any(asn in asns for _, asns in self.attrs.as_path)

    def originator_id(self) -> Optional[int]:
        return self.attrs.originator_id

    def cluster_list(self) -> Tuple[int, ...]:
        return self.attrs.cluster_list or ()

    def communities(self):
        return self.attrs.communities or ()

    def attrs_key(self):
        # FrrAttrs is interned and hashable; no need to re-serialize
        # the attribute set the way the generic RouteView key does.
        return self.attrs

    def __repr__(self) -> str:
        return f"FrrRoute({self.prefix}, from={self.source!r})"
