"""PyFRR: an FRRouting-flavoured BGP daemon.

The RFC 4271 machine is :class:`repro.bgp.speaker.BgpSpeaker`; this
module supplies the FRRouting *representation* behind its host
contract (mirroring what the paper ran into in FRRouting):

* attributes parsed into host-byte-order :class:`FrrAttrs` structs,
  hash-consed through an :class:`AttrPool` (FRR's ``attrhash``);
* validated ROAs stored in a **prefix trie** that native origin
  validation *browses* on every check — the behaviour §3.4 found
  slower than the extension's hash table;
* no flexible attribute API: the xBGP glue supplies one, converting
  to/from the neutral representation on every call.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..bgp.attributes import PathAttribute
from ..bgp.constants import RouteOriginValidity
from ..bgp.peer import Neighbor
from ..bgp.prefix import Prefix
from ..bgp.roa import TrieRoaTable
from ..bgp.speaker import BgpSpeaker
from .attrs_intern import AttrPool, FrrAttrs
from .rib import FrrRoute
from .xbgp_glue import FrrHost, _AttrsBox

__all__ = ["FrrDaemon"]


class FrrDaemon(BgpSpeaker):
    """One PyFRR router instance."""

    implementation = "frr"
    route_class = FrrRoute
    host_class = FrrHost
    #: Receive-point extensions write to an :class:`_AttrsBox`, never to
    #: the interned (immutable) :class:`FrrAttrs` it holds.
    receive_isolates_writes = True

    def _init_representation(self) -> None:
        self.attr_pool = AttrPool()

    def _decode_attrs(self, attributes: Sequence[PathAttribute]) -> FrrAttrs:
        # FRR parses the whole attribute block into struct attr first.
        return self.attr_pool.intern(FrrAttrs.from_wire(attributes))

    def _receive_container(self, attrs: FrrAttrs) -> _AttrsBox:
        return _AttrsBox(attrs)

    def _received_attrs(self, container: _AttrsBox) -> FrrAttrs:
        return container.attrs

    def _validate_origin(self, prefix: Prefix, origin_asn: int) -> RouteOriginValidity:
        """FRRouting's historical pattern: walk the validated-ROA trie
        collecting every covering record, then test each (no early
        exit, no hashing) — the code path §3.4's extension beat."""
        table = self.roa_table
        if not isinstance(table, TrieRoaTable):
            return table.validate(prefix, origin_asn)
        covering = table.covering(prefix)  # full browse, allocates
        if not covering:
            return RouteOriginValidity.NOT_FOUND
        valid = False
        for roa in covering:
            if roa.authorizes(prefix, origin_asn):
                valid = True  # keep browsing: FRR checks all records
        return RouteOriginValidity.VALID if valid else RouteOriginValidity.INVALID

    def _stamp_reflection(self, route: FrrRoute) -> FrrRoute:
        attrs = route.attrs
        changes: Dict[str, object] = {}
        if attrs.originator_id is None:
            originator = (
                route.source.peer_router_id if route.source else self.router_id
            )
            changes["originator_id"] = originator
        changes["cluster_list"] = (self.cluster_id,) + (attrs.cluster_list or ())
        return route.with_frr_attrs(self.attr_pool.intern(attrs.replaced(**changes)))

    def _export_rewrite(
        self, route: FrrRoute, neighbor: Neighbor, source_ebgp: bool
    ) -> FrrAttrs:
        attrs = route.attrs
        changes: Dict[str, object] = {}
        if neighbor.is_ebgp():
            path = attrs.as_path
            if path and path[0][0] == 2:  # AS_SEQUENCE
                head = (path[0][0], (self.asn,) + path[0][1])
                changes["as_path"] = (head,) + path[1:]
            else:
                changes["as_path"] = ((2, (self.asn,)),) + path
            changes["next_hop"] = self.local_address
            changes["local_pref"] = None
            changes["med"] = None
        else:
            if attrs.local_pref is None:
                changes["local_pref"] = 100
            if self.nexthop_self and source_ebgp:
                changes["next_hop"] = self.local_address
        if not changes:
            return attrs
        return self.attr_pool.intern(attrs.replaced(**changes))

    def _with_export_attrs(
        self, route: FrrRoute, attrs: FrrAttrs, cached: bool
    ) -> FrrRoute:
        # Interned FrrAttrs are immutable, so the cached object is
        # shared as is.
        if attrs is route.attrs:
            return route
        return route.with_frr_attrs(attrs)
