"""PyBIRD route objects: lazily-parsed views over eattr lists."""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..bgp.aspath import AsPath
from ..bgp.attributes import PathAttribute
from ..bgp.communities import decode_communities
from ..bgp.constants import AttrTypeCode, Origin, RouteOriginValidity
from ..bgp.peer import Neighbor
from ..bgp.prefix import Prefix
from ..bgp.rib import RouteView

__all__ = ["BirdRoute"]

_NO_PATH = AsPath()
_U32 = struct.Struct("!I")


def _u32_or(default: int):
    """Decoder of a 4-byte attribute; ``default`` when malformed."""
    return lambda data: _U32.unpack(data)[0] if len(data) == 4 else default


_u32_or_0 = _u32_or(0)
_u32_or_100 = _u32_or(100)


def _origin(data: bytes) -> int:
    return data[0] if data else Origin.INCOMPLETE


def _cluster_list(data: bytes) -> Tuple[int, ...]:
    return PathAttribute(0, AttrTypeCode.CLUSTER_LIST, data).as_cluster_list()


class BirdRoute(RouteView):
    """One route: prefix + source neighbor + shared eattr list.

    The eattr list is shared between the routes of one UPDATE (BIRD
    interns ``rta`` the same way); mutation therefore always goes
    through :meth:`with_eattrs`, which takes a fresh list.  Accessors
    parse an attribute's raw bytes on first use and memoise the value
    on the (immutable) eattr, so it is decoded once per attribute block
    however many routes and list copies share the block.
    """

    __slots__ = ("prefix", "source", "eattrs", "validity")

    def __init__(self, prefix: Prefix, source: Optional[Neighbor], eattrs):
        self.prefix = prefix
        self.source = source
        self.eattrs = eattrs
        self.validity: Optional[RouteOriginValidity] = None

    # -- RouteView contract ------------------------------------------------

    def attribute(self, type_code: int) -> Optional[PathAttribute]:
        eattr = self.eattrs.ea_find(type_code)
        return eattr.to_path_attribute() if eattr is not None else None

    def attribute_list(self) -> List[PathAttribute]:
        return self.eattrs.to_path_attributes()

    def with_attributes(self, attributes: List[PathAttribute]) -> "BirdRoute":
        from .eattrs import EattrList

        return self.with_eattrs(EattrList.from_wire(attributes))

    def with_eattrs(self, eattrs) -> "BirdRoute":
        clone = BirdRoute(self.prefix, self.source, eattrs)
        clone.validity = self.validity
        return clone

    # -- memoised accessors ------------------------------------------------

    def _parsed(self, code: int, decode, absent):
        """``decode(data)`` of attribute ``code``, run once per eattr."""
        eattr = self.eattrs.ea_find(code)
        if eattr is None:
            return absent
        parsed = eattr._parsed
        if parsed is None:
            parsed = eattr._parsed = decode(eattr.data)
        return parsed

    def local_pref(self) -> int:
        return self._parsed(AttrTypeCode.LOCAL_PREF, _u32_or_100, 100)

    def as_path(self) -> AsPath:
        return self._parsed(AttrTypeCode.AS_PATH, AsPath.decode, _NO_PATH)

    def as_path_length(self) -> int:
        return self.as_path().length()

    def origin(self) -> int:
        return self._parsed(AttrTypeCode.ORIGIN, _origin, Origin.INCOMPLETE)

    def med(self) -> int:
        return self._parsed(AttrTypeCode.MULTI_EXIT_DISC, _u32_or_0, 0)

    def next_hop(self) -> int:
        return self._parsed(AttrTypeCode.NEXT_HOP, _u32_or_0, 0)

    def communities(self):
        return self._parsed(AttrTypeCode.COMMUNITIES, decode_communities, ())

    def cluster_list(self) -> Tuple[int, ...]:
        return self._parsed(AttrTypeCode.CLUSTER_LIST, _cluster_list, ())

    def origin_asn(self) -> int:
        return self.as_path().origin_asn()

    def attrs_key(self):
        # The eattr list already memoises a hashable identity; reuse it
        # instead of converting to wire form.
        return self.eattrs.cache_key()

    def __repr__(self) -> str:
        return f"BirdRoute({self.prefix}, from={self.source!r})"
