"""PyBIRD: a BIRD-flavoured BGP daemon.

The RFC 4271 machine is :class:`repro.bgp.speaker.BgpSpeaker`; this
module supplies the BIRD *representation* behind its host contract
(mirroring what the paper leaned on in BIRD):

* attributes live in flexible, wire-shaped :class:`EattrList`s, which
  extensions and the export path mutate in place — hence copy-on-hit
  in the mechanics cache and no decoded-object sharing across a batch
  while a BGP_RECEIVE_MESSAGE extension is attached;
* validated ROAs sit in a **hash table**
  (:class:`~repro.bgp.roa.HashRoaTable`) — one probe per candidate
  length, which is the speaker's default ``_validate_origin``;
* route objects parse attribute bytes lazily.
"""

from __future__ import annotations

import struct
from typing import Sequence

from ..bgp.attributes import (
    PathAttribute,
    make_as_path,
    make_cluster_list,
    make_next_hop,
    make_originator_id,
)
from ..bgp.constants import AttrTypeCode
from ..bgp.peer import Neighbor
from ..bgp.speaker import BgpSpeaker
from .eattrs import EattrList
from .rib import BirdRoute
from .xbgp_glue import BirdHost

__all__ = ["BirdDaemon"]


class BirdDaemon(BgpSpeaker):
    """One PyBIRD router instance."""

    implementation = "bird"
    route_class = BirdRoute
    host_class = BirdHost

    def _decode_attrs(self, attributes: Sequence[PathAttribute]) -> EattrList:
        return EattrList.from_wire(attributes)

    def _stamp_reflection(self, route: BirdRoute) -> BirdRoute:
        eattrs = route.eattrs.copy()
        if AttrTypeCode.ORIGINATOR_ID not in eattrs:
            originator = route.source.peer_router_id if route.source else self.router_id
            attr = make_originator_id(originator)
            eattrs.ea_set(attr.type_code, attr.flags, attr.value)
        attr = make_cluster_list((self.cluster_id,) + route.cluster_list())
        eattrs.ea_set(attr.type_code, attr.flags, attr.value)
        return route.with_eattrs(eattrs)

    def _export_rewrite(
        self, route: BirdRoute, neighbor: Neighbor, source_ebgp: bool
    ) -> EattrList:
        eattrs = route.eattrs.copy()
        if neighbor.is_ebgp():
            path = route.as_path().prepend(self.asn)
            attr = make_as_path(path)
            eattrs.ea_set(attr.type_code, attr.flags, attr.value)
            next_hop = make_next_hop(self.local_address)
            eattrs.ea_set(next_hop.type_code, next_hop.flags, next_hop.value)
            eattrs.ea_unset(AttrTypeCode.LOCAL_PREF)
            eattrs.ea_unset(AttrTypeCode.MULTI_EXIT_DISC)
        else:
            if AttrTypeCode.LOCAL_PREF not in eattrs:
                local_pref = PathAttribute(0x40, AttrTypeCode.LOCAL_PREF, struct.pack("!I", 100))
                eattrs.ea_set(local_pref.type_code, local_pref.flags, local_pref.value)
            if self.nexthop_self and source_ebgp:
                next_hop = make_next_hop(self.local_address)
                eattrs.ea_set(next_hop.type_code, next_hop.flags, next_hop.value)
        return eattrs

    def _with_export_attrs(
        self, route: BirdRoute, eattrs: EattrList, cached: bool
    ) -> BirdRoute:
        # Eattr lists are mutable, so the cached master is never handed
        # out directly: each route gets its own copy.
        return route.with_eattrs(eattrs.copy() if cached else eattrs)
