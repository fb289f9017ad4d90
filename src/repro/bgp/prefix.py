"""IPv4 addresses and prefixes.

The whole substrate manipulates IPv4 addresses as plain integers in host
representation and :class:`Prefix` objects for NLRI.  Keeping addresses
as integers (instead of ``ipaddress`` objects) keeps the hot paths — RIB
insertion, trie walks, wire encoding — allocation free.

Wire helpers follow RFC 4271 §4.3: a prefix is encoded as a length octet
followed by ``ceil(length / 8)`` octets of the most significant bits.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterator, Tuple

__all__ = [
    "Prefix",
    "parse_ipv4",
    "format_ipv4",
    "mask_for",
    "PrefixDecodeError",
]

_MAX_IPV4 = 0xFFFFFFFF


class PrefixDecodeError(ValueError):
    """Raised when wire bytes do not form a valid RFC 4271 prefix."""


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad ``text`` into an integer.

    >>> parse_ipv4("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format integer ``value`` as a dotted quad.

    >>> format_ipv4(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= _MAX_IPV4:
        raise ValueError(f"not an IPv4 address: {value:#x}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mask_for(length: int) -> int:
    """Return the network mask integer for a prefix ``length``."""
    if not 0 <= length <= 32:
        raise ValueError(f"prefix length out of range: {length}")
    if length == 0:
        return 0
    return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4


class Prefix(tuple):
    """An IPv4 prefix: ``(network, length)``, canonicalised.

    A ``tuple`` subclass so hashing, equality and ordering (by network
    then length) run in C — every RIB dictionary is keyed by prefixes.
    Instances are immutable.
    """

    __slots__ = ()

    network = property(itemgetter(0), doc="The network address, host bits zeroed.")
    length = property(itemgetter(1), doc="The prefix length, 0-32.")

    def __new__(cls, network: int, length: int) -> "Prefix":
        return tuple.__new__(cls, (network & mask_for(length), length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` (a bare address means /32)."""
        if "/" in text:
            addr, _, plen = text.partition("/")
            return cls(parse_ipv4(addr), int(plen))
        return cls(parse_ipv4(text), 32)

    # -- wire format -------------------------------------------------

    def encode(self) -> bytes:
        """Encode per RFC 4271 §4.3 (length octet + significant bytes)."""
        nbytes = (self.length + 7) // 8
        packed = struct.pack("!I", self.network)[:nbytes]
        return bytes([self.length]) + packed

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> Tuple["Prefix", int]:
        """Decode one prefix at ``offset``; return (prefix, next offset)."""
        if offset >= len(data):
            raise PrefixDecodeError("truncated prefix: missing length octet")
        length = data[offset]
        if length > 32:
            raise PrefixDecodeError(f"prefix length {length} > 32")
        nbytes = (length + 7) // 8
        end = offset + 1 + nbytes
        if end > len(data):
            raise PrefixDecodeError("truncated prefix body")
        raw = data[offset + 1 : end] + b"\x00" * (4 - nbytes)
        (network,) = struct.unpack("!I", raw)
        return cls(network, length), end

    @classmethod
    def decode_all(cls, data: bytes) -> Iterator["Prefix"]:
        """Decode a packed run of prefixes (an NLRI field)."""
        offset = 0
        while offset < len(data):
            prefix, offset = cls.decode(data, offset)
            yield prefix

    # -- set relations -----------------------------------------------

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than ``self``."""
        if other.length < self.length:
            return False
        return (other.network & mask_for(self.length)) == self.network

    def contains_address(self, address: int) -> bool:
        """True if integer ``address`` falls inside this prefix."""
        return (address & mask_for(self.length)) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def bit(self, index: int) -> int:
        """Return bit ``index`` (0 = most significant) of the network."""
        if not 0 <= index < 32:
            raise IndexError(f"bit index out of range: {index}")
        return (self.network >> (31 - index)) & 1

    # -- dunder ------------------------------------------------------

    def __reduce__(self):
        # Rebuild through the constructor (sharded replay ships prefixes
        # across process boundaries).
        return (Prefix, (self.network, self.length))

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
