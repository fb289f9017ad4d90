"""RFC 4271 message codecs: OPEN, UPDATE, NOTIFICATION, KEEPALIVE.

Every message renders to and parses from the real wire format, header
included, so the same code backs both the in-process simulator and the
asyncio TCP transport (``repro.net``).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .attributes import PathAttribute, attribute_tlvs, decode_attributes, encode_attributes
from .constants import (
    BGP_HEADER_SIZE,
    BGP_MARKER,
    BGP_MAX_MESSAGE_SIZE,
    BGP_VERSION,
    MessageType,
    NotificationCode,
)
from .prefix import Prefix, format_ipv4

__all__ = [
    "MessageDecodeError",
    "Capability",
    "CAP_MULTIPROTOCOL",
    "CAP_ROUTE_REFRESH",
    "CAP_FOUR_OCTET_AS",
    "OpenMessage",
    "UpdateMessage",
    "NotificationMessage",
    "KeepaliveMessage",
    "RouteRefreshMessage",
    "BgpMessage",
    "decode_message",
    "encode_header",
    "split_stream",
]

CAP_MULTIPROTOCOL = 1
CAP_ROUTE_REFRESH = 2
CAP_FOUR_OCTET_AS = 65


class MessageDecodeError(ValueError):
    """Raised for malformed BGP messages."""

    def __init__(self, message: str, subcode: int = 0):
        super().__init__(message)
        self.subcode = subcode


class Capability:
    """One RFC 5492 capability TLV."""

    __slots__ = ("code", "value")

    def __init__(self, code: int, value: bytes = b""):
        self.code = code
        self.value = bytes(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Capability):
            return NotImplemented
        return self.code == other.code and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.code, self.value))

    def __repr__(self) -> str:
        return f"Capability(code={self.code}, value={self.value.hex()})"


def encode_header(message_type: MessageType, body: bytes) -> bytes:
    """Prepend the 19-byte marker/length/type header to ``body``."""
    total = BGP_HEADER_SIZE + len(body)
    if total > BGP_MAX_MESSAGE_SIZE:
        raise ValueError(f"message too large: {total} bytes")
    return BGP_MARKER + struct.pack("!HB", total, message_type) + body


class OpenMessage:
    """OPEN (RFC 4271 §4.2) with RFC 5492 capabilities."""

    type = MessageType.OPEN
    __slots__ = ("asn", "hold_time", "router_id", "capabilities")

    def __init__(
        self,
        asn: int,
        hold_time: int,
        router_id: int,
        capabilities: Sequence[Capability] = (),
    ):
        self.asn = asn
        self.hold_time = hold_time
        self.router_id = router_id
        self.capabilities: Tuple[Capability, ...] = tuple(capabilities)

    @classmethod
    def for_speaker(cls, asn: int, router_id: int, hold_time: int = 90) -> "OpenMessage":
        """Build an OPEN advertising 4-octet-AS and route-refresh."""
        caps = [
            Capability(CAP_ROUTE_REFRESH),
            Capability(CAP_FOUR_OCTET_AS, struct.pack("!I", asn)),
        ]
        my_as = asn if asn <= 0xFFFF else 23456
        return cls(my_as, hold_time, router_id, caps)

    def four_octet_asn(self) -> Optional[int]:
        """The AS from the 4-octet-AS capability, if advertised."""
        for cap in self.capabilities:
            if cap.code == CAP_FOUR_OCTET_AS and len(cap.value) == 4:
                return struct.unpack("!I", cap.value)[0]
        return None

    def effective_asn(self) -> int:
        """Peer AS after RFC 6793 resolution."""
        four = self.four_octet_asn()
        return four if four is not None else self.asn

    def encode(self) -> bytes:
        caps = b""
        for cap in self.capabilities:
            caps += bytes([cap.code, len(cap.value)]) + cap.value
        params = b""
        if caps:
            # A single type-2 (capabilities) optional parameter.
            params = bytes([2, len(caps)]) + caps
        body = struct.pack(
            "!BHHIB",
            BGP_VERSION,
            self.asn,
            self.hold_time,
            self.router_id,
            len(params),
        )
        return encode_header(self.type, body + params)

    @classmethod
    def decode_body(cls, body: bytes) -> "OpenMessage":
        if len(body) < 10:
            raise MessageDecodeError("OPEN body too short")
        version, asn, hold_time, router_id, opt_len = struct.unpack_from("!BHHIB", body)
        if version != BGP_VERSION:
            raise MessageDecodeError(f"unsupported BGP version {version}", subcode=1)
        params = body[10 : 10 + opt_len]
        if len(params) != opt_len:
            raise MessageDecodeError("OPEN optional parameters truncated")
        capabilities: List[Capability] = []
        offset = 0
        while offset < len(params):
            if offset + 2 > len(params):
                raise MessageDecodeError("truncated optional parameter")
            param_type, param_len = params[offset], params[offset + 1]
            offset += 2
            value = params[offset : offset + param_len]
            if len(value) != param_len:
                raise MessageDecodeError("truncated optional parameter body")
            offset += param_len
            if param_type == 2:  # capabilities
                inner = 0
                while inner < len(value):
                    if inner + 2 > len(value):
                        raise MessageDecodeError("truncated capability")
                    code, clen = value[inner], value[inner + 1]
                    inner += 2
                    cval = value[inner : inner + clen]
                    if len(cval) != clen:
                        raise MessageDecodeError("truncated capability value")
                    inner += clen
                    capabilities.append(Capability(code, cval))
        return cls(asn, hold_time, router_id, capabilities)

    def __repr__(self) -> str:
        return (
            f"OpenMessage(asn={self.effective_asn()}, hold={self.hold_time}, "
            f"id={format_ipv4(self.router_id)})"
        )


class UpdateMessage:
    """UPDATE (RFC 4271 §4.3): withdrawals, attributes, NLRI."""

    type = MessageType.UPDATE
    __slots__ = ("withdrawn", "nlri", "_attributes", "_attrs_wire")

    def __init__(
        self,
        withdrawn: Sequence[Prefix] = (),
        attributes: Sequence[PathAttribute] = (),
        nlri: Sequence[Prefix] = (),
    ):
        self.withdrawn: Tuple[Prefix, ...] = tuple(withdrawn)
        self._attributes: Optional[Tuple[PathAttribute, ...]] = tuple(attributes)
        self._attrs_wire: Optional[bytes] = None
        self.nlri: Tuple[Prefix, ...] = tuple(nlri)

    @property
    def attributes(self) -> Tuple[PathAttribute, ...]:
        """Path attributes, decoded on first access.

        Decoded messages carry the raw attribute bytes and parse them
        lazily: a receiver that only looks at NLRI/withdrawn prefixes
        (a monitoring collector, an end-of-RIB check) never pays the
        per-attribute parse.  Attribute *content* errors therefore
        surface at first access rather than inside ``decode_message``;
        structural (length) errors are still raised eagerly there.
        """
        attributes = self._attributes
        if attributes is None:
            attributes = tuple(decode_attributes(self._attrs_wire))
            self._attributes = attributes
        return attributes

    def tlvs(self) -> List[Tuple[int, int, bytes]]:
        """``(flags, type code, value)`` of each path attribute, walked
        straight out of the received bytes when there are any."""
        wire = self._attrs_wire
        if wire is not None:
            return attribute_tlvs(wire)
        return [(a.flags, a.type_code, a.value) for a in self._attributes]

    def attribute(self, type_code: int) -> Optional[PathAttribute]:
        """Return the attribute with ``type_code`` or None."""
        for attribute in self.attributes:
            if attribute.type_code == type_code:
                return attribute
        return None

    def is_end_of_rib(self) -> bool:
        """RFC 4724: an empty UPDATE marks end of initial table transfer."""
        if self.withdrawn or self.nlri:
            return False
        if self._attributes is None:
            return not self._attrs_wire
        return not self._attributes

    @classmethod
    def end_of_rib(cls) -> "UpdateMessage":
        return cls()

    def encode(self) -> bytes:
        withdrawn = b"".join(prefix.encode() for prefix in self.withdrawn)
        # A decoded message re-emits its original attribute bytes
        # verbatim (the message is immutable, so they stay the truth).
        attrs = (
            self._attrs_wire
            if self._attrs_wire is not None
            else encode_attributes(self.attributes)
        )
        nlri = b"".join(prefix.encode() for prefix in self.nlri)
        body = (
            struct.pack("!H", len(withdrawn))
            + withdrawn
            + struct.pack("!H", len(attrs))
            + attrs
            + nlri
        )
        return encode_header(self.type, body)

    @classmethod
    def decode_body(cls, body: bytes) -> "UpdateMessage":
        if len(body) < 4:
            raise MessageDecodeError("UPDATE body too short", subcode=1)
        (withdrawn_len,) = struct.unpack_from("!H", body)
        offset = 2
        withdrawn_end = offset + withdrawn_len
        if withdrawn_end + 2 > len(body):
            raise MessageDecodeError("UPDATE withdrawn field truncated", subcode=1)
        withdrawn = Prefix.decode_all(body[offset:withdrawn_end])
        (attrs_len,) = struct.unpack_from("!H", body, withdrawn_end)
        attrs_start = withdrawn_end + 2
        attrs_end = attrs_start + attrs_len
        if attrs_end > len(body):
            raise MessageDecodeError("UPDATE attribute field truncated", subcode=1)
        nlri = Prefix.decode_all(body[attrs_end:])
        message = cls(withdrawn, (), nlri)
        if attrs_len:
            message._attributes = None
            message._attrs_wire = body[attrs_start:attrs_end]
        return message

    def __repr__(self) -> str:
        return (
            f"UpdateMessage(withdrawn={len(self.withdrawn)}, "
            f"attrs={len(self.attributes)}, nlri={len(self.nlri)})"
        )


class NotificationMessage:
    """NOTIFICATION (RFC 4271 §4.5)."""

    type = MessageType.NOTIFICATION
    __slots__ = ("code", "subcode", "data")

    def __init__(self, code: int, subcode: int = 0, data: bytes = b""):
        self.code = code
        self.subcode = subcode
        self.data = bytes(data)

    def encode(self) -> bytes:
        return encode_header(self.type, bytes([self.code, self.subcode]) + self.data)

    @classmethod
    def decode_body(cls, body: bytes) -> "NotificationMessage":
        if len(body) < 2:
            raise MessageDecodeError("NOTIFICATION body too short")
        return cls(body[0], body[1], body[2:])

    def __repr__(self) -> str:
        try:
            name = NotificationCode(self.code).name
        except ValueError:
            name = str(self.code)
        return f"NotificationMessage({name}/{self.subcode})"


class KeepaliveMessage:
    """KEEPALIVE (RFC 4271 §4.4) — header only."""

    type = MessageType.KEEPALIVE
    __slots__ = ()

    def encode(self) -> bytes:
        return encode_header(self.type, b"")

    @classmethod
    def decode_body(cls, body: bytes) -> "KeepaliveMessage":
        if body:
            raise MessageDecodeError("KEEPALIVE must have no body", subcode=2)
        return cls()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeepaliveMessage)

    def __hash__(self) -> int:
        return hash(MessageType.KEEPALIVE)

    def __repr__(self) -> str:
        return "KeepaliveMessage()"


class RouteRefreshMessage:
    """ROUTE-REFRESH (RFC 2918): ask a peer to resend its Adj-RIB-Out."""

    type = MessageType.ROUTE_REFRESH
    __slots__ = ("afi", "safi")

    def __init__(self, afi: int = 1, safi: int = 1):
        self.afi = afi
        self.safi = safi

    def encode(self) -> bytes:
        return encode_header(self.type, struct.pack("!HBB", self.afi, 0, self.safi))

    @classmethod
    def decode_body(cls, body: bytes) -> "RouteRefreshMessage":
        if len(body) != 4:
            raise MessageDecodeError("ROUTE-REFRESH must be 4 bytes")
        afi, _, safi = struct.unpack("!HBB", body)
        return cls(afi, safi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteRefreshMessage):
            return NotImplemented
        return self.afi == other.afi and self.safi == other.safi

    def __repr__(self) -> str:
        return f"RouteRefreshMessage(afi={self.afi}, safi={self.safi})"


BgpMessage = Union[
    OpenMessage,
    UpdateMessage,
    NotificationMessage,
    KeepaliveMessage,
    RouteRefreshMessage,
]

_DECODERS: Dict[int, type] = {
    MessageType.OPEN: OpenMessage,
    MessageType.UPDATE: UpdateMessage,
    MessageType.NOTIFICATION: NotificationMessage,
    MessageType.KEEPALIVE: KeepaliveMessage,
    MessageType.ROUTE_REFRESH: RouteRefreshMessage,
}


def decode_message(data: bytes) -> Tuple[BgpMessage, int]:
    """Decode one message from ``data``; return (message, bytes consumed)."""
    if len(data) < BGP_HEADER_SIZE:
        raise MessageDecodeError("short header")
    if data[:16] != BGP_MARKER:
        raise MessageDecodeError("bad marker", subcode=1)
    total, message_type = struct.unpack_from("!HB", data, 16)
    if not BGP_HEADER_SIZE <= total <= BGP_MAX_MESSAGE_SIZE:
        raise MessageDecodeError(f"bad message length {total}", subcode=2)
    if len(data) < total:
        raise MessageDecodeError("truncated message")
    decoder = _DECODERS.get(message_type)
    if decoder is None:
        raise MessageDecodeError(f"bad message type {message_type}", subcode=3)
    body = data[BGP_HEADER_SIZE:total]
    return decoder.decode_body(body), total


def split_stream(buffer: bytearray) -> List[BgpMessage]:
    """Drain complete messages from a TCP reassembly ``buffer`` in place.

    Returns decoded messages; leaves any trailing partial message in the
    buffer.  Used by the asyncio transport.

    A malformed frame raises only once it sits at the *head* of the
    buffer: valid messages decoded earlier in the same batch are
    returned first and the bad bytes stay put, so the next call raises.
    Raising mid-batch instead would silently drop the already-consumed
    messages, making delivery depend on how TCP happened to segment
    the stream (found by the differential fuzzer's reassembly oracle).
    """
    messages: List[BgpMessage] = []
    while len(buffer) >= BGP_HEADER_SIZE:
        total, _ = struct.unpack_from("!HB", buffer, 16)
        if len(buffer) < total:
            break
        try:
            message, consumed = decode_message(bytes(buffer[:total]))
        except ValueError:
            if messages:
                return messages
            raise
        del buffer[:consumed]
        messages.append(message)
    return messages
