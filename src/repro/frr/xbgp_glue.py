"""PyFRR's xBGP glue: the thick one.

FRR-style internals store attributes parsed into host byte order, so
every helper call crossing the API converts between that form and the
neutral network-byte-order representation (``FrrAttrs.attr_to_wire`` /
``FrrAttrs.with_attr_wire``).  This file plus those conversion paths is
why the paper counted 589 added lines for FRRouting against 400 for
BIRD — and why ``add_attr`` needed host surgery: stock FRR had nowhere
to put attributes no standard defines (here: ``FrrAttrs.extra``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..bgp.attributes import PathAttribute
from ..bgp.prefix import Prefix
from ..core.abi import pack_attr
from ..core.context import ExecutionContext
from ..core.host_interface import HostImplementation
from ..igp.spf import UNREACHABLE
from .attrs_intern import FrrAttrs
from .rib import FrrRoute

__all__ = ["FrrHost"]

_MISSING = object()


class _AttrsBox:
    """Mutable holder for the UPDATE-wide attribute set at the
    BGP_RECEIVE_MESSAGE point (FRR parses first, filters later)."""

    __slots__ = ("attrs",)

    def __init__(self, attrs: FrrAttrs):
        self.attrs = attrs


class FrrHost(HostImplementation):
    """Glue between libxbgp helpers and PyFRR internals."""

    name = "frr"

    def __init__(self, daemon):
        self.daemon = daemon

    # -- container plumbing ------------------------------------------------

    def _attrs_of(self, ctx: ExecutionContext) -> Optional[FrrAttrs]:
        container = ctx.route
        if isinstance(container, _AttrsBox):
            return container.attrs
        if isinstance(container, FrrRoute):
            return container.attrs
        return None

    def _replace_attrs(self, ctx: ExecutionContext, attrs: FrrAttrs) -> None:
        self._install_attrs(ctx, self.daemon.attr_pool.intern(attrs))

    def _install_attrs(self, ctx: ExecutionContext, interned: FrrAttrs) -> None:
        container = ctx.route
        if isinstance(container, _AttrsBox):
            container.attrs = interned
        elif isinstance(container, FrrRoute):
            ctx.route = container.with_frr_attrs(interned)

    # -- HostImplementation --------------------------------------------------

    def get_attr(self, ctx: ExecutionContext, code: int) -> Optional[PathAttribute]:
        attrs = self._attrs_of(ctx)
        if attrs is None:
            return None
        # Host -> neutral conversion on every call.
        return attrs.attr_to_wire(code)

    def get_attr_packed(self, ctx: ExecutionContext, code: int) -> Optional[bytes]:
        attrs = self._attrs_of(ctx)
        if attrs is None:
            return None
        # FrrAttrs are immutable and interned, so the helper struct for
        # a given code is computed once per attribute set, not once per
        # route sharing it.
        cache = attrs._packed_cache
        packed = cache.get(code, _MISSING)
        if packed is _MISSING:
            attribute = attrs.attr_to_wire(code)
            packed = (
                None
                if attribute is None
                else pack_attr(attribute.type_code, attribute.flags, attribute.value)
            )
            cache[code] = packed
        return packed

    def set_attr(self, ctx: ExecutionContext, code: int, flags: int, value: bytes) -> bool:
        attrs = self._attrs_of(ctx)
        if attrs is None:
            return False
        # Same write applied to the same (interned) set: reuse the
        # interned result, skipping the neutral -> host parse and rebuild.
        key = (code, flags, value)
        interned = attrs._write_cache.get(key)
        if interned is None:
            try:
                interned = self.daemon.attr_pool.intern(
                    attrs.with_attr_wire(code, flags, value)
                )
            except (ValueError, IndexError):
                return False
            attrs._write_cache[key] = interned
        self._install_attrs(ctx, interned)
        return True

    def add_attr(self, ctx: ExecutionContext, code: int, flags: int, value: bytes) -> bool:
        attrs = self._attrs_of(ctx)
        if attrs is None or attrs.has_attr(code):
            return False
        return self.set_attr(ctx, code, flags, value)

    def remove_attr(self, ctx: ExecutionContext, code: int) -> bool:
        attrs = self._attrs_of(ctx)
        if attrs is None:
            return False
        updated, removed = attrs.without_attr(code)
        if removed:
            self._replace_attrs(ctx, updated)
        return removed

    def get_nexthop(self, ctx: ExecutionContext) -> Tuple[int, int, bool]:
        attrs = self._attrs_of(ctx)
        address = attrs.next_hop if attrs is not None and attrs.next_hop else 0
        if not address:
            return 0, UNREACHABLE, False
        metric = self.daemon.igp_metric(address)
        return address, metric, metric != UNREACHABLE

    def get_xtra(self, ctx: ExecutionContext, key: str) -> Optional[bytes]:
        return self.daemon.xtra.get(key)

    def rib_announce(self, ctx: ExecutionContext, prefix: Prefix, next_hop: int) -> bool:
        self.daemon.originate(prefix, next_hop=next_hop or None)
        return True

    def log(self, message: str) -> None:
        self.daemon.log(message)
