"""The xBGP ABI: helper ids, in-VM struct layouts and plugin constants.

This module *is* the vendor-neutral contract.  Bytecode compiled against
these helper ids and struct offsets runs unmodified on every host that
registers the same API (PyFRR and PyBIRD here; FRRouting and BIRD in the
paper).  Changing anything in this file is an ABI break.

Struct fields are little-endian (eBPF loads are little-endian); BGP
*payload* bytes (attribute values, message bytes) stay in network byte
order, exactly as §2.1 prescribes for the neutral representation.
"""

from __future__ import annotations

import struct
from typing import Dict

from ..bgp.constants import SessionType
from ..bgp.peer import Neighbor

__all__ = [
    "HELPER_IDS",
    "PLUGIN_CONSTANTS",
    "PEER_INFO_SIZE",
    "NEXTHOP_INFO_SIZE",
    "ATTR_HEADER_SIZE",
    "ARG_HEADER_SIZE",
    "pack_peer_info",
    "pack_nexthop_info",
    "pack_attr",
    "pack_arg",
    "MAP_NO_ENTRY",
    "FILTER_ACCEPT",
    "FILTER_REJECT",
    "ARG_MESSAGE",
    "ARG_PREFIX",
    "ARG_ROUTE_NEW",
    "ARG_ROUTE_BEST",
]

#: Stable helper call numbers.  Ids below 64 are reserved for the xBGP
#: core API; hosts must not add vendor-specific helpers in that range.
HELPER_IDS: Dict[str, int] = {
    "next": 1,
    "get_arg": 2,
    "get_peer_info": 3,
    "get_attr": 4,
    "set_attr": 5,
    "add_attr": 6,
    "remove_attr": 7,
    "get_nexthop": 8,
    "get_xtra": 9,
    "write_buf": 10,
    "ebpf_memcpy": 11,
    "ebpf_print": 12,
    "ctx_malloc": 13,
    "ctx_shmnew": 14,
    "ctx_shmget": 15,
    "rib_announce": 16,
    "get_prefix": 17,
    "get_src_peer_info": 18,
    "map_new": 20,
    "map_update": 21,
    "map_lookup": 22,
    "map_lookup_idx": 23,
    "map_size": 24,
    "sqrt64": 30,
}

#: Sentinel returned by map lookups when the key is absent.
MAP_NO_ENTRY = 0xFFFFFFFFFFFFFFFF

#: Filter verdicts (insertion points BGP_INBOUND_FILTER / BGP_OUTBOUND_FILTER).
FILTER_ACCEPT = 0
FILTER_REJECT = 1

#: ``get_arg`` argument ids.
ARG_MESSAGE = 1  # the raw BGP message being received / encoded
ARG_PREFIX = 2  # the 5-byte wire prefix of the route under consideration
ARG_ROUTE_NEW = 3  # BGP_DECISION: candidate route attributes
ARG_ROUTE_BEST = 4  # BGP_DECISION: current best attributes

#: Names plugins can use as integer literals in xc source.
PLUGIN_CONSTANTS: Dict[str, int] = {
    "IBGP_SESSION": int(SessionType.IBGP_SESSION),
    "EBGP_SESSION": int(SessionType.EBGP_SESSION),
    "LOCAL_SESSION": int(SessionType.LOCAL_SESSION),
    "FILTER_ACCEPT": FILTER_ACCEPT,
    "FILTER_REJECT": FILTER_REJECT,
    "MAP_NO_ENTRY_LO": MAP_NO_ENTRY & 0xFFFFFFFF,
    "ARG_MESSAGE": ARG_MESSAGE,
    "ARG_PREFIX": ARG_PREFIX,
    "ARG_ROUTE_NEW": ARG_ROUTE_NEW,
    "ARG_ROUTE_BEST": ARG_ROUTE_BEST,
    # Attribute type codes plugins commonly touch.
    "ATTR_ORIGIN": 1,
    "ATTR_AS_PATH": 2,
    "ATTR_NEXT_HOP": 3,
    "ATTR_MED": 4,
    "ATTR_LOCAL_PREF": 5,
    "ATTR_COMMUNITIES": 8,
    "ATTR_ORIGINATOR_ID": 9,
    "ATTR_CLUSTER_LIST": 10,
    "ATTR_GEOLOC": 243,
    # Attribute flag bits.
    "FLAG_OPTIONAL": 0x80,
    "FLAG_TRANSITIVE": 0x40,
    "FLAG_PARTIAL": 0x20,
    # Origin validation states (RFC 6811).
    "ROV_VALID": 0,
    "ROV_NOT_FOUND": 1,
    "ROV_INVALID": 2,
}


# -- struct layouts ----------------------------------------------------

#: ``struct ubpf_peer_info`` — 36 bytes:
#:   0  u32 peer_type      (1 = iBGP, 2 = eBGP)
#:   4  u32 peer_as
#:   8  u32 peer_router_id
#:  12  u32 local_as
#:  16  u32 local_router_id
#:  20  u32 peer_addr      (IPv4, host int)
#:  24  u32 local_addr
#:  28  u32 rr_client      (0/1)
#:  32  u32 cluster_id
PEER_INFO_SIZE = 36
_PEER_INFO = struct.Struct("<9I")


def pack_peer_info(neighbor: Neighbor) -> bytes:
    # Memoized on the Neighbor: peers are long-lived and their fields
    # rarely change, but helpers ask for this struct on every route.
    # Neighbor.__setattr__ clears _packed_info on any field change.
    packed = neighbor._packed_info
    if packed is None:
        packed = _PEER_INFO.pack(
            int(neighbor.session_type),
            neighbor.peer_asn,
            neighbor.peer_router_id,
            neighbor.local_asn,
            neighbor.local_router_id,
            neighbor.peer_address,
            neighbor.local_address,
            1 if neighbor.rr_client else 0,
            neighbor.cluster_id,
        )
        object.__setattr__(neighbor, "_packed_info", packed)
    return packed


#: ``struct ubpf_nexthop`` — 12 bytes:
#:   0  u32 addr
#:   4  u32 igp_metric
#:   8  u32 reachable (0/1)
NEXTHOP_INFO_SIZE = 12
_NEXTHOP_INFO = struct.Struct("<3I")


def pack_nexthop_info(address: int, igp_metric: int, reachable: bool) -> bytes:
    return _NEXTHOP_INFO.pack(address, igp_metric & 0xFFFFFFFF, 1 if reachable else 0)


#: Attribute view returned by ``get_attr`` — 4-byte header + payload:
#:   0  u8  code
#:   1  u8  flags
#:   2  u16 length  (little-endian)
#:   4  u8  data[length]  (network byte order, as on the wire)
ATTR_HEADER_SIZE = 4


def pack_attr(code: int, flags: int, value: bytes) -> bytes:
    return struct.pack("<BBH", code & 0xFF, flags & 0xFF, len(value)) + value


#: Argument block returned by ``get_arg`` — 4-byte length + payload:
#:   0  u32 length (little-endian)
#:   4  u8  data[length]
ARG_HEADER_SIZE = 4


def pack_arg(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload
