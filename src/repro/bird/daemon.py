"""PyBIRD: a BIRD-flavoured BGP daemon.

The RFC 4271 machine is :class:`repro.bgp.speaker.BgpSpeaker`; this
module supplies the BIRD *representation* behind its host contract
(mirroring what the paper leaned on in BIRD):

* attributes live in flexible, wire-shaped :class:`EattrList`s, copied
  before a write — a list a memo shares is sealed, so every route
  rebuilt from it shares it — except at BGP_RECEIVE_MESSAGE, hence no
  decoded-object sharing across a batch while that point is attached;
* validated ROAs sit in a **hash table**
  (:class:`~repro.bgp.roa.HashRoaTable`) — one probe per candidate
  length, which is the speaker's default ``_validate_origin``;
* route objects parse attribute bytes lazily.
"""

from __future__ import annotations

import struct
from typing import Sequence, Tuple

from ..bgp.attributes import _flags_for, encode_attribute
from ..bgp.constants import AttrTypeCode
from ..bgp.peer import Neighbor
from ..bgp.speaker import NATIVE_ENCODABLE, BgpSpeaker
from .eattrs import EattrList
from .rib import BirdRoute
from .xbgp_glue import BirdHost

__all__ = ["BirdDaemon"]


class BirdDaemon(BgpSpeaker):
    """One PyBIRD router instance."""

    implementation = "bird"
    route_class = BirdRoute
    host_class = BirdHost

    def _decode_attrs(self, tlvs: Sequence[Tuple[int, int, bytes]]) -> EattrList:
        return EattrList.from_tlvs(tlvs)

    def _encode_attrs(self, route: BirdRoute) -> bytes:
        # The eattrs already hold wire values: only headers are written.
        return b"".join(
            encode_attribute(eattr.flags, eattr.code, eattr.data)
            for eattr in route.eattrs
            if eattr.code & 0xFF in NATIVE_ENCODABLE
        )

    def _stamp_reflection(self, route: BirdRoute) -> BirdRoute:
        eattrs = route.eattrs.copy()
        if AttrTypeCode.ORIGINATOR_ID not in eattrs:
            originator = route.source.peer_router_id if route.source else self.router_id
            _set_u32s(eattrs, AttrTypeCode.ORIGINATOR_ID, originator)
        _set_u32s(eattrs, AttrTypeCode.CLUSTER_LIST, self.cluster_id, *route.cluster_list())
        return route.with_eattrs(eattrs)

    def _export_rewrite(
        self, route: BirdRoute, neighbor: Neighbor, source_ebgp: bool
    ) -> EattrList:
        eattrs = route.eattrs.copy()
        if neighbor.is_ebgp():
            path = route.as_path().prepend(self.asn)
            eattrs.ea_set(AttrTypeCode.AS_PATH, _flags_for(AttrTypeCode.AS_PATH), path.encode())
            _set_u32s(eattrs, AttrTypeCode.NEXT_HOP, self.local_address)
            eattrs.ea_unset(AttrTypeCode.LOCAL_PREF)
            eattrs.ea_unset(AttrTypeCode.MULTI_EXIT_DISC)
        else:
            if AttrTypeCode.LOCAL_PREF not in eattrs:
                _set_u32s(eattrs, AttrTypeCode.LOCAL_PREF, 100)
            if self.nexthop_self and source_ebgp:
                _set_u32s(eattrs, AttrTypeCode.NEXT_HOP, self.local_address)
        return eattrs.seal()

    def _share_attrs(self, route: BirdRoute, eattrs: EattrList) -> BirdRoute:
        # Sealed once shared, as BIRD shares an interned rta.  A list
        # still in the receive point's hands is never shared: that point
        # has run on every list before its routes reach a memo.
        return route if eattrs is route.eattrs else route.with_eattrs(eattrs.seal())


def _set_u32s(eattrs: EattrList, code: int, *values: int) -> None:
    """Write attribute ``code`` as raw 32-bit words, with its usual flags."""
    eattrs.ea_set(code, _flags_for(code), struct.pack(f"!{len(values)}I", *values))
