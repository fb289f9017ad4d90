"""PyBIRD's xBGP glue: thin, because eattrs are already wire-shaped.

The paper reports 400 lines for BIRD versus 589 for FRRouting; the
asymmetry survives here.  BIRD stores attribute values as the raw
network-byte-order bytes, so the neutral representation maps 1:1 onto
``ea_find``/``ea_set``/``ea_unset`` and no byte-order translation is
needed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..bgp.attributes import PathAttribute
from ..bgp.constants import AttrTypeCode
from ..bgp.prefix import Prefix
from ..core.abi import pack_attr
from ..core.context import ExecutionContext
from ..core.host_interface import HostImplementation
from ..igp.spf import UNREACHABLE
from .eattrs import EattrList
from .rib import BirdRoute

__all__ = ["BirdHost"]


class BirdHost(HostImplementation):
    """Glue between libxbgp helpers and PyBIRD internals."""

    name = "bird"

    def __init__(self, daemon):
        self.daemon = daemon

    # -- attribute container resolution ---------------------------------

    def _eattrs(self, ctx: ExecutionContext, for_write: bool = False):
        """The eattr list in scope.

        At BGP_RECEIVE_MESSAGE ``ctx.route`` is the UPDATE's shared
        eattr list (mutations apply to every NLRI of the message); at
        filter/encode points it is a :class:`BirdRoute` and writes go
        copy-on-write so sibling routes sharing the list are untouched.
        """
        container = ctx.route
        if isinstance(container, EattrList):
            return container
        if isinstance(container, BirdRoute):
            if for_write and not ctx.hidden.get("cow"):
                container = container.with_eattrs(container.eattrs.copy())
                ctx.route = container
                ctx.hidden["cow"] = True
            return container.eattrs
        return None

    # -- HostImplementation ------------------------------------------------

    def get_attr(self, ctx: ExecutionContext, code: int) -> Optional[PathAttribute]:
        eattrs = self._eattrs(ctx)
        if eattrs is None:
            return None
        eattr = eattrs.ea_find(code)
        return eattr.to_path_attribute() if eattr is not None else None

    def get_attr_packed(self, ctx: ExecutionContext, code: int) -> Optional[bytes]:
        eattrs = self._eattrs(ctx)
        if eattrs is None:
            return None
        eattr = eattrs.ea_find(code)
        if eattr is None:
            return None
        # Eattr objects are replaced (not mutated) by ea_set, so the
        # helper struct can live on the attribute itself.
        packed = eattr._packed
        if packed is None:
            packed = pack_attr(eattr.code, eattr.flags, eattr.data)
            eattr._packed = packed
        return packed

    def set_attr(self, ctx: ExecutionContext, code: int, flags: int, value: bytes) -> bool:
        container = ctx.route
        if isinstance(container, BirdRoute):
            # Template cache: the same write applied to the same content
            # (an RR stamps one ORIGINATOR_ID onto every route of an
            # UPDATE) builds the resulting list once; each route then
            # takes a cheap copy that inherits the memoised cache key.
            base = container.eattrs
            key = (code, flags, value)
            stamped = base._write_cache.get(key)
            if stamped is None:
                stamped = base.copy()
                stamped.ea_set(code, flags, value)
                stamped.cache_key()  # pre-memoise for the encode probe
                base._write_cache[key] = stamped
            ctx.route = container.with_eattrs(stamped.copy())
            ctx.hidden["cow"] = True
            return True
        eattrs = self._eattrs(ctx, for_write=True)
        if eattrs is None:
            return False
        eattrs.ea_set(code, flags, value)
        return True

    def add_attr(self, ctx: ExecutionContext, code: int, flags: int, value: bytes) -> bool:
        eattrs = self._eattrs(ctx, for_write=True)
        if eattrs is None or code in eattrs:
            return False
        eattrs.ea_set(code, flags, value)
        return True

    def remove_attr(self, ctx: ExecutionContext, code: int) -> bool:
        eattrs = self._eattrs(ctx, for_write=True)
        if eattrs is None:
            return False
        return eattrs.ea_unset(code)

    def get_nexthop(self, ctx: ExecutionContext) -> Tuple[int, int, bool]:
        eattrs = self._eattrs(ctx)
        address = 0
        if eattrs is not None:
            eattr = eattrs.ea_find(AttrTypeCode.NEXT_HOP)
            if eattr is not None and len(eattr.data) == 4:
                address = int.from_bytes(eattr.data, "big")
        if address == 0:
            return 0, UNREACHABLE, False
        metric = self.daemon.igp_metric(address)
        return address, metric, metric != UNREACHABLE

    def get_xtra(self, ctx: ExecutionContext, key: str) -> Optional[bytes]:
        return self.daemon.xtra.get(key)

    def rib_announce(self, ctx: ExecutionContext, prefix: Prefix, next_hop: int) -> bool:
        self.daemon.originate(prefix, next_hop=next_hop or None)
        return True

    def encode_route_attributes(self, ctx: ExecutionContext, route) -> bytes:
        from ..bgp.attributes import encode_attributes

        return encode_attributes(route.attribute_list())

    def log(self, message: str) -> None:
        self.daemon.log(message)
