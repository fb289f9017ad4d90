"""The contract a BGP implementation fulfils to become xBGP-compliant.

This is the "adding the xBGP API" part of §2.1: each host implements
these operations against *its own* internal data structures, converting
to and from the neutral network-byte-order representation.  The helper
functions in :mod:`repro.core.api` are host-independent; they call into
this interface with the current :class:`ExecutionContext`.

PyFRR's glue (``repro.frr.xbgp_glue``) is bigger than PyBIRD's
(``repro.bird.xbgp_glue``) for the same reasons FRRouting's was bigger
than BIRD's in the paper: FRR-style internals store attributes parsed
into host byte order and lack a generic dynamic-attribute API, so the
glue must translate representations and bolt that API on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

from ..bgp.attributes import PathAttribute
from ..bgp.prefix import Prefix
from .context import ExecutionContext

__all__ = ["HostImplementation"]


class HostImplementation(ABC):
    """Host-side operations backing the xBGP helper functions."""

    #: Implementation name (``"frr"`` / ``"bird"``), used in logs and
    #: in the LoC accounting experiment.
    name: str = "abstract"

    #: Whether the helper layer may use the marshalling caches
    #: (peer-info memo, packed-attribute cache).  A daemon built with
    #: ``hot_path=False`` flips it off (the host fuzz oracle's reference
    #: arm); standalone hosts keep the default.
    hot_path: bool = True

    #: Per-route provenance tracker
    #: (:class:`repro.telemetry.provenance.ProvenanceTracker`), or None
    #: when provenance is off.  Installed by the daemon's
    #: ``enable_provenance``; the VMM and the helper layer record
    #: through it with a single None check per hook site.
    provenance = None

    # -- attribute access (neutral representation in/out) ---------------

    @abstractmethod
    def get_attr(self, ctx: ExecutionContext, code: int) -> Optional[PathAttribute]:
        """Return the attribute ``code`` of the route in scope, or None."""

    @abstractmethod
    def set_attr(
        self, ctx: ExecutionContext, code: int, flags: int, value: bytes
    ) -> bool:
        """Create or replace attribute ``code`` on the route in scope."""

    @abstractmethod
    def add_attr(
        self, ctx: ExecutionContext, code: int, flags: int, value: bytes
    ) -> bool:
        """Attach a new attribute; fails (False) if ``code`` exists.

        This is the operation the paper had to *rewrite host internals*
        for: stock implementations refuse attributes no standard
        defines.  Hosts here must accept arbitrary codes.
        """

    @abstractmethod
    def remove_attr(self, ctx: ExecutionContext, code: int) -> bool:
        """Delete attribute ``code``; False when absent."""

    def get_attr_packed(self, ctx: ExecutionContext, code: int) -> Optional[bytes]:
        """Attribute ``code`` as ready-to-copy ``get_attr`` helper bytes
        (``pack_attr`` header + network-order payload), or None.

        The default builds the struct from :meth:`get_attr` on every
        call; hosts with immutable/interned attribute storage override
        this to memoize the packed bytes on the attribute object so a
        repeat ``get_attr`` on an unchanged attribute is a cache hit.
        """
        from .abi import pack_attr

        attribute = self.get_attr(ctx, code)
        if attribute is None:
            return None
        return pack_attr(attribute.type_code, attribute.flags, attribute.value)

    # -- topology / configuration ------------------------------------------

    @abstractmethod
    def get_nexthop(self, ctx: ExecutionContext) -> Tuple[int, int, bool]:
        """(address, igp_metric, reachable) for the route's next hop."""

    @abstractmethod
    def get_xtra(self, ctx: ExecutionContext, key: str) -> Optional[bytes]:
        """Router-local extra configuration (e.g. GeoLoc coordinates)."""

    # -- RIB access -----------------------------------------------------------

    @abstractmethod
    def rib_announce(
        self, ctx: ExecutionContext, prefix: Prefix, next_hop: int
    ) -> bool:
        """Inject a route into the RIB (uses hidden context arguments)."""

    # -- route serialization ------------------------------------------------

    def encode_route_attributes(self, ctx: ExecutionContext, route) -> bytes:
        """The route's attributes as a wire-format block (neutral form).

        Used by ``get_arg`` at the BGP_DECISION point so bytecode can
        inspect candidate routes without per-attribute helper calls.
        """
        from ..bgp.attributes import encode_attributes

        return encode_attributes(route.attribute_list())

    # -- diagnostics ------------------------------------------------------------

    def log(self, message: str) -> None:
        """Receive ``ebpf_print`` output and VMM error notifications."""
        # Default: keep a bounded in-memory log; daemons override.
