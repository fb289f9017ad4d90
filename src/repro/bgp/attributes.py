"""Path attribute wire codec and the neutral xBGP representation.

RFC 4271 §4.3 encodes each attribute as::

    flags(1) | type(1) | length(1 or 2) | value

:class:`PathAttribute` holds exactly that — flags, type code and the
raw network-byte-order value — which is xBGP's *neutral representation*
(§2.1 of the paper: "the xBGP functions that deal with BGP messages and
attributes always manipulate them in network byte order").  A host reads
and writes an UPDATE without them, through :func:`attribute_tlvs` and
:func:`encode_attribute`, as FRR parses straight into ``struct attr``.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from .aspath import AsPath
from .communities import decode_communities, encode_communities
from .constants import AttrFlag, AttrTypeCode, Origin
from .prefix import format_ipv4

__all__ = [
    "PathAttribute",
    "AttributeDecodeError",
    "attribute_tlvs",
    "decode_attributes",
    "encode_attribute",
    "encode_attributes",
    "make_origin",
    "make_as_path",
    "make_next_hop",
    "make_med",
    "make_local_pref",
    "make_atomic_aggregate",
    "make_aggregator",
    "make_communities",
    "make_originator_id",
    "make_cluster_list",
    "make_geoloc",
    "decode_geoloc",
    "GEOLOC_SCALE",
]

#: GeoLoc fixed-point scale: degrees are stored as round(deg * 1e7),
#: the resolution used by draft-chen-idr-geo-coordinates.
GEOLOC_SCALE = 10_000_000


class AttributeDecodeError(ValueError):
    """Raised for malformed path attribute wire bytes."""


#: Flag octets as plain ints, computed from the enums once at import:
#: the codec's per-attribute loops never build an ``IntFlag`` member.
_WELL_KNOWN_FLAGS: Dict[int, int] = {
    int(code): int(flags)
    for code, flags in (
        (AttrTypeCode.ORIGIN, AttrFlag.TRANSITIVE),
        (AttrTypeCode.AS_PATH, AttrFlag.TRANSITIVE),
        (AttrTypeCode.NEXT_HOP, AttrFlag.TRANSITIVE),
        (AttrTypeCode.MULTI_EXIT_DISC, AttrFlag.OPTIONAL),
        (AttrTypeCode.LOCAL_PREF, AttrFlag.TRANSITIVE),
        (AttrTypeCode.ATOMIC_AGGREGATE, AttrFlag.TRANSITIVE),
        (AttrTypeCode.AGGREGATOR, AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE),
        (AttrTypeCode.COMMUNITIES, AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE),
        (AttrTypeCode.ORIGINATOR_ID, AttrFlag.OPTIONAL),
        (AttrTypeCode.CLUSTER_LIST, AttrFlag.OPTIONAL),
        (AttrTypeCode.LARGE_COMMUNITIES, AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE),
        (AttrTypeCode.GEOLOC, AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE),
    )
}
#: Flags of an attribute code the table does not know.
_UNKNOWN_FLAGS = int(AttrFlag.OPTIONAL | AttrFlag.TRANSITIVE)
_EXTENDED_LENGTH = int(AttrFlag.EXTENDED_LENGTH)
_SHORT_HEADER = struct.Struct("!BBB")
_LONG_HEADER = struct.Struct("!BBH")


class PathAttribute:
    """One path attribute in neutral (network-byte-order) form."""

    __slots__ = ("flags", "type_code", "value")

    def __init__(self, flags: int, type_code: int, value: bytes):
        self.flags = int(flags) & 0xFF
        self.type_code = int(type_code) & 0xFF
        self.value = bytes(value)

    # -- flag predicates ---------------------------------------------

    @property
    def optional(self) -> bool:
        return bool(self.flags & AttrFlag.OPTIONAL)

    @property
    def transitive(self) -> bool:
        return bool(self.flags & AttrFlag.TRANSITIVE)

    @property
    def partial(self) -> bool:
        return bool(self.flags & AttrFlag.PARTIAL)

    # -- wire --------------------------------------------------------

    def encode(self) -> bytes:
        """Encode flags/type/length/value, choosing extended length as needed."""
        return encode_attribute(self.flags, self.type_code, self.value)

    # -- typed views -------------------------------------------------

    def as_u32(self) -> int:
        """Interpret a 4-byte value (MED, LOCAL_PREF, ORIGINATOR_ID…)."""
        if len(self.value) != 4:
            raise AttributeDecodeError(
                f"attribute {self.type_code} is {len(self.value)} bytes, expected 4"
            )
        return struct.unpack("!I", self.value)[0]

    def as_origin(self) -> Origin:
        if len(self.value) != 1:
            raise AttributeDecodeError("ORIGIN must be one byte")
        return Origin(self.value[0])

    def as_path(self) -> AsPath:
        return AsPath.decode(self.value)

    def as_communities(self):
        return decode_communities(self.value)

    def as_cluster_list(self) -> Tuple[int, ...]:
        if len(self.value) % 4 != 0:
            raise AttributeDecodeError("CLUSTER_LIST not a multiple of 4")
        return struct.unpack(f"!{len(self.value) // 4}I", self.value)

    # -- dunder ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathAttribute):
            return NotImplemented
        return (
            self.flags == other.flags
            and self.type_code == other.type_code
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.flags, self.type_code, self.value))

    def __repr__(self) -> str:
        try:
            name = AttrTypeCode(self.type_code).name
        except ValueError:
            name = str(self.type_code)
        return f"PathAttribute({name}, flags={self.flags:#04x}, {self.value.hex()})"


def attribute_tlvs(data: bytes) -> List[Tuple[int, int, bytes]]:
    """Walk a packed path-attributes block (UPDATE field) into
    ``(flags, type code, value)`` triples, in block order; the whole
    block is checked before a host parses any of them."""
    if type(data) is not bytes:
        data = bytes(data)  # values are slices: keep them hashable
    tlvs: List[Tuple[int, int, bytes]] = []
    append = tlvs.append
    size = len(data)
    offset = 0
    while offset < size:
        if offset + 2 > size:
            raise AttributeDecodeError("truncated attribute header")
        flags = data[offset]
        type_code = data[offset + 1]
        offset += 2
        if flags & _EXTENDED_LENGTH:
            if offset + 2 > size:
                raise AttributeDecodeError("truncated extended length")
            length = (data[offset] << 8) | data[offset + 1]
            offset += 2
        else:
            if offset + 1 > size:
                raise AttributeDecodeError("truncated length")
            length = data[offset]
            offset += 1
        end = offset + length
        if end > size:
            raise AttributeDecodeError(
                f"attribute {type_code} body truncated ({length} bytes claimed)"
            )
        # EXTENDED_LENGTH is an encoding artifact, not a semantic flag:
        # normalize it away so attribute identity survives re-encoding.
        append((flags & 0xEF, type_code, data[offset:end]))
        offset = end
    return tlvs


def decode_attributes(data: bytes) -> List[PathAttribute]:
    """Decode a packed path-attributes block (UPDATE field)."""
    attributes: List[PathAttribute] = []
    append = attributes.append
    new = PathAttribute.__new__
    for flags, type_code, value in attribute_tlvs(data):
        # Already in range: skip __init__'s normalisation.
        attribute = new(PathAttribute)
        attribute.flags = flags
        attribute.type_code = type_code
        attribute.value = value
        append(attribute)
    return attributes


def encode_attribute(flags: int, type_code: int, value: bytes) -> bytes:
    """One attribute on the wire, extended length iff the value needs it."""
    length = len(value)
    if length > 255:
        header = _LONG_HEADER.pack((flags | _EXTENDED_LENGTH) & 0xFF, type_code & 0xFF, length)
        return header + value
    return _SHORT_HEADER.pack(flags & 0xEF, type_code & 0xFF, length) + value


def encode_attributes(attributes: Iterable[PathAttribute]) -> bytes:
    """Encode attributes sorted by type code (canonical order)."""
    ordered = sorted(attributes, key=lambda a: a.type_code)
    return b"".join(attribute.encode() for attribute in ordered)


# -- constructors for known attributes --------------------------------


def _flags_for(code: int) -> int:
    return _WELL_KNOWN_FLAGS.get(code, _UNKNOWN_FLAGS)


def make_origin(origin: Origin) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.ORIGIN), AttrTypeCode.ORIGIN, bytes([origin])
    )


def make_as_path(path: AsPath) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.AS_PATH), AttrTypeCode.AS_PATH, path.encode()
    )


def make_next_hop(address: int) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.NEXT_HOP),
        AttrTypeCode.NEXT_HOP,
        struct.pack("!I", address),
    )


def make_med(value: int) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.MULTI_EXIT_DISC),
        AttrTypeCode.MULTI_EXIT_DISC,
        struct.pack("!I", value),
    )


def make_local_pref(value: int) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.LOCAL_PREF),
        AttrTypeCode.LOCAL_PREF,
        struct.pack("!I", value),
    )


def make_atomic_aggregate() -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.ATOMIC_AGGREGATE), AttrTypeCode.ATOMIC_AGGREGATE, b""
    )


def make_aggregator(asn: int, router_id: int) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.AGGREGATOR),
        AttrTypeCode.AGGREGATOR,
        struct.pack("!II", asn, router_id),
    )


def make_communities(communities: Iterable[int]) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.COMMUNITIES),
        AttrTypeCode.COMMUNITIES,
        encode_communities(communities),
    )


def make_originator_id(router_id: int) -> PathAttribute:
    return PathAttribute(
        _flags_for(AttrTypeCode.ORIGINATOR_ID),
        AttrTypeCode.ORIGINATOR_ID,
        struct.pack("!I", router_id),
    )


def make_cluster_list(cluster_ids: Iterable[int]) -> PathAttribute:
    value = b"".join(struct.pack("!I", cid) for cid in cluster_ids)
    return PathAttribute(
        _flags_for(AttrTypeCode.CLUSTER_LIST), AttrTypeCode.CLUSTER_LIST, value
    )


def make_geoloc(latitude: float, longitude: float) -> PathAttribute:
    """Build the paper's GeoLoc attribute (§2 example).

    Coordinates are fixed-point signed 32-bit degrees scaled by 1e7,
    latitude first, network byte order.
    """
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude out of range: {latitude}")
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"longitude out of range: {longitude}")
    value = struct.pack(
        "!ii", round(latitude * GEOLOC_SCALE), round(longitude * GEOLOC_SCALE)
    )
    return PathAttribute(_flags_for(AttrTypeCode.GEOLOC), AttrTypeCode.GEOLOC, value)


def decode_geoloc(attribute: PathAttribute) -> Tuple[float, float]:
    """Decode a GeoLoc attribute into (latitude, longitude) degrees."""
    if len(attribute.value) != 8:
        raise AttributeDecodeError("GEOLOC must be 8 bytes")
    lat_fp, lon_fp = struct.unpack("!ii", attribute.value)
    return lat_fp / GEOLOC_SCALE, lon_fp / GEOLOC_SCALE


def describe(attribute: PathAttribute) -> str:
    """Render an attribute for logs and debugging."""
    code = attribute.type_code
    try:
        name = AttrTypeCode(code).name
    except ValueError:
        return f"attr#{code}={attribute.value.hex()}"
    if code == AttrTypeCode.ORIGIN:
        return f"ORIGIN={attribute.as_origin().name}"
    if code == AttrTypeCode.AS_PATH:
        return f"AS_PATH={attribute.as_path()}"
    if code == AttrTypeCode.NEXT_HOP:
        return f"NEXT_HOP={format_ipv4(attribute.as_u32())}"
    if code in (AttrTypeCode.MULTI_EXIT_DISC, AttrTypeCode.LOCAL_PREF):
        return f"{name}={attribute.as_u32()}"
    if code == AttrTypeCode.COMMUNITIES:
        rendered = " ".join(str(c) for c in sorted(attribute.as_communities()))
        return f"COMMUNITIES=[{rendered}]"
    if code == AttrTypeCode.ORIGINATOR_ID:
        return f"ORIGINATOR_ID={format_ipv4(attribute.as_u32())}"
    if code == AttrTypeCode.CLUSTER_LIST:
        rendered = " ".join(format_ipv4(c) for c in attribute.as_cluster_list())
        return f"CLUSTER_LIST=[{rendered}]"
    if code == AttrTypeCode.GEOLOC:
        lat, lon = decode_geoloc(attribute)
        return f"GEOLOC=({lat:.5f}, {lon:.5f})"
    return f"{name}={attribute.value.hex()}"
