"""PyBIRD route objects: lazily-parsed views over eattr lists."""

from __future__ import annotations

import struct
from typing import List, Optional

from ..bgp.aspath import AsPath
from ..bgp.attributes import PathAttribute
from ..bgp.constants import AttrTypeCode, Origin, RouteOriginValidity
from ..bgp.peer import Neighbor
from ..bgp.prefix import Prefix
from ..bgp.rib import RouteView

__all__ = ["BirdRoute"]

_UNSET = object()


class BirdRoute(RouteView):
    """One route: prefix + source neighbor + shared eattr list.

    The eattr list is shared between the routes of one UPDATE (BIRD
    interns ``rta`` the same way); mutation therefore always goes
    through :meth:`with_eattrs`, which takes a fresh list.  Decision-
    process accessors parse the raw bytes on first use and memoise.
    """

    __slots__ = (
        "prefix",
        "source",
        "eattrs",
        "validity",
        "_local_pref",
        "_path_len",
        "_origin",
        "_med",
        "_next_hop",
    )

    def __init__(self, prefix: Prefix, source: Optional[Neighbor], eattrs):
        self.prefix = prefix
        self.source = source
        self.eattrs = eattrs
        self.validity: Optional[RouteOriginValidity] = None
        self._local_pref = _UNSET
        self._path_len = _UNSET
        self._origin = _UNSET
        self._med = _UNSET
        self._next_hop = _UNSET

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

    # -- memoised decision accessors ------------------------------------------

    def local_pref(self) -> int:
        if self._local_pref is _UNSET:
            eattr = self.eattrs.ea_find(AttrTypeCode.LOCAL_PREF)
            self._local_pref = (
                struct.unpack("!I", eattr.data)[0]
                if eattr is not None and len(eattr.data) == 4
                else 100
            )
        return self._local_pref

    def as_path(self) -> AsPath:
        eattr = self.eattrs.ea_find(AttrTypeCode.AS_PATH)
        return AsPath.decode(eattr.data) if eattr is not None else AsPath()

    def as_path_length(self) -> int:
        if self._path_len is _UNSET:
            self._path_len = self.as_path().length()
        return self._path_len

    def origin(self) -> int:
        if self._origin is _UNSET:
            eattr = self.eattrs.ea_find(AttrTypeCode.ORIGIN)
            self._origin = (
                eattr.data[0] if eattr is not None and eattr.data else Origin.INCOMPLETE
            )
        return self._origin

    def med(self) -> int:
        if self._med is _UNSET:
            eattr = self.eattrs.ea_find(AttrTypeCode.MULTI_EXIT_DISC)
            self._med = (
                struct.unpack("!I", eattr.data)[0]
                if eattr is not None and len(eattr.data) == 4
                else 0
            )
        return self._med

    def next_hop(self) -> int:
        if self._next_hop is _UNSET:
            eattr = self.eattrs.ea_find(AttrTypeCode.NEXT_HOP)
            self._next_hop = (
                struct.unpack("!I", eattr.data)[0]
                if eattr is not None and len(eattr.data) == 4
                else 0
            )
        return self._next_hop

    def origin_asn(self) -> int:
        return self.as_path().origin_asn()

    def attrs_key(self):
        # The eattr list already memoises a hashable identity; reuse it
        # instead of converting to wire form.
        return self.eattrs.cache_key()

    def __repr__(self) -> str:
        return f"BirdRoute({self.prefix}, from={self.source!r})"
