"""Neighbor (peer) configuration and state shared by both daemons."""

from __future__ import annotations

from typing import Any, Dict, Optional

from .constants import SessionType
from .prefix import format_ipv4, parse_ipv4

__all__ = ["Neighbor"]

_IBGP, _EBGP = SessionType.IBGP_SESSION, SessionType.EBGP_SESSION


class Neighbor:
    """One configured BGP neighbor.

    Carries everything the xBGP ``peer_info`` helper exposes: addresses,
    AS numbers, router ids and the session type, plus host-side policy
    knobs (route-reflector client flag, cluster id) and free-form
    configuration (``xtra``) reachable through the ``get_xtra`` helper.
    """

    __slots__ = (
        "peer_address",
        "peer_asn",
        "local_address",
        "local_asn",
        "peer_router_id",
        "local_router_id",
        "rr_client",
        "cluster_id",
        "xtra",
        "established",
        "session_type",
        "_packed_info",
    )

    def __init__(
        self,
        peer_address: int,
        peer_asn: int,
        local_address: int,
        local_asn: int,
        peer_router_id: int = 0,
        local_router_id: int = 0,
        rr_client: bool = False,
        cluster_id: int = 0,
        xtra: Optional[Dict[str, Any]] = None,
    ):
        self.peer_address = peer_address
        # Both ASNs are in place before the first derives session_type.
        object.__setattr__(self, "peer_asn", peer_asn)
        self.local_asn = local_asn
        self.local_address = local_address
        self.peer_router_id = peer_router_id or peer_address
        self.local_router_id = local_router_id or local_address
        self.rr_client = rr_client
        self.cluster_id = cluster_id or self.local_router_id
        self.xtra: Dict[str, Any] = dict(xtra or {})
        self.established = False

    def __setattr__(self, name: str, value: Any) -> None:
        # ``session_type`` follows the ASNs: iBGP when they match.  Any
        # field change (addresses, ASNs, session state…) invalidates the
        # cached ``pack_peer_info`` bytes held in ``_packed_info`` (see
        # repro.core.abi); the struct is rebuilt on next use.
        if name == "session_type":
            raise AttributeError("session_type follows peer_asn and local_asn")
        object.__setattr__(self, name, value)
        if name == "peer_asn" or name == "local_asn":
            ibgp = self.peer_asn == self.local_asn
            object.__setattr__(self, "session_type", _IBGP if ibgp else _EBGP)
        if name != "_packed_info":
            object.__setattr__(self, "_packed_info", None)

    @classmethod
    def build(
        cls,
        peer_address: str,
        peer_asn: int,
        local_address: str,
        local_asn: int,
        **kwargs: Any,
    ) -> "Neighbor":
        """Convenience constructor taking dotted-quad addresses."""
        return cls(
            parse_ipv4(peer_address), peer_asn, parse_ipv4(local_address), local_asn,
            **kwargs,
        )

    def is_ibgp(self) -> bool:
        return self.session_type is _IBGP

    def is_ebgp(self) -> bool:
        return self.session_type is _EBGP

    def __repr__(self) -> str:
        return (
            f"Neighbor({format_ipv4(self.peer_address)} AS{self.peer_asn} "
            f"{self.session_type.name})"
        )
