"""MRT (RFC 6396) TABLE_DUMP_V2 reader/writer.

The paper's workload is "IPv4 BGP routes from a recent RIPE RIS
snapshot" — RIS snapshots ship as MRT TABLE_DUMP_V2 files.  We cannot
download one offline, but we implement the format so synthetic tables
round-trip through the real archive encoding: the workload generator
writes an MRT file, the harness reads it back, and any real RIS dump
a user drops in is equally loadable.

Implemented records: PEER_INDEX_TABLE (subtype 1) and RIB_IPV4_UNICAST
(subtype 2) of type 13 (TABLE_DUMP_V2).

One walker, :func:`_walk_table`, reads records and their RIB entries in
one loop and hands attribute blocks out undecoded; :func:`read_table`
decodes every block, the ``repro.workload.mrt_io`` bridge each distinct
one.  Error contract: a malformed record (truncated header, entry count
or attribute length past the payload, bad prefix length, block cut
mid-attribute) is an :class:`MrtError` naming its sequence number; none
of it is returned.
"""

from __future__ import annotations

import struct
from typing import (
    BinaryIO, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

from ..bgp.attributes import (
    AttributeDecodeError,
    PathAttribute,
    decode_attributes,
    encode_attributes,
)
from ..bgp.prefix import Prefix, PrefixDecodeError

__all__ = [
    "MrtError",
    "MrtPeer",
    "RibEntry",
    "TABLE_DUMP_V2",
    "PEER_INDEX_TABLE",
    "RIB_IPV4_UNICAST",
    "write_table",
    "read_table",
]

TABLE_DUMP_V2 = 13
PEER_INDEX_TABLE = 1
RIB_IPV4_UNICAST = 2

_HEADER = struct.Struct("!IHHI")
#: RIB entry header: peer index, originated time, attribute length.
_RIB_ENTRY = struct.Struct("!HIH")
#: Bytes the reader asks the stream for at a time.
_CHUNK = 1 << 16

_T = TypeVar("_T")


class MrtError(ValueError):
    """Malformed MRT content."""


class MrtPeer(NamedTuple):
    """One entry of the PEER_INDEX_TABLE."""

    bgp_id: int
    address: int  # IPv4
    asn: int


class RibEntry(NamedTuple):
    """One (prefix, peer, attributes) RIB row."""

    prefix: Prefix
    peer_index: int
    originated: int
    attributes: Tuple[PathAttribute, ...]


def _write_record(stream: BinaryIO, timestamp: int, subtype: int, payload: bytes) -> None:
    stream.write(_HEADER.pack(timestamp, TABLE_DUMP_V2, subtype, len(payload)))
    stream.write(payload)


def _encode_peer_index(collector_id: int, peers: Sequence[MrtPeer]) -> bytes:
    view_name = b""
    out = struct.pack("!IH", collector_id, len(view_name)) + view_name
    out += struct.pack("!H", len(peers))
    for peer in peers:
        # Peer type 0x02: IPv4 address, 4-octet AS.
        out += struct.pack("!BIII", 0x02, peer.bgp_id, peer.address, peer.asn)
    return out


def _decode_peer_index(payload: bytes) -> Tuple[int, List[MrtPeer]]:
    try:
        collector_id, name_length = struct.unpack_from("!IH", payload)
        offset = 6 + name_length
        (count,) = struct.unpack_from("!H", payload, offset)
        offset += 2
        peers: List[MrtPeer] = []
        for _ in range(count):
            peer_type = payload[offset]
            offset += 1
            (bgp_id,) = struct.unpack_from("!I", payload, offset)
            offset += 4
            if peer_type & 0x01:  # IPv6 peer address
                raise MrtError("IPv6 peers not supported")
            (address,) = struct.unpack_from("!I", payload, offset)
            offset += 4
            if peer_type & 0x02:
                (asn,) = struct.unpack_from("!I", payload, offset)
                offset += 4
            else:
                (asn,) = struct.unpack_from("!H", payload, offset)
                offset += 2
            peers.append(MrtPeer(bgp_id, address, asn))
    except (struct.error, IndexError):
        raise MrtError("short PEER_INDEX_TABLE") from None
    return collector_id, peers


def _encode_rib_entry(sequence: int, entry: RibEntry) -> bytes:
    attrs = encode_attributes(entry.attributes)
    return (
        struct.pack("!I", sequence)
        + entry.prefix.encode()
        + struct.pack("!H", 1)  # one RIB entry per prefix in our dumps
        + struct.pack("!HIH", entry.peer_index, entry.originated, len(attrs))
        + attrs
    )


def _walk_table(
    stream: BinaryIO,
    peers: Optional[List[MrtPeer]],
    entry: Callable[[int, Prefix, int, int, bytes], Optional[_T]],
) -> Iterator[_T]:
    """The one TABLE_DUMP_V2 walker, shared by both readers.

    Reads ``stream`` in ``_CHUNK``-byte pieces (never the whole file),
    fills ``peers`` from the PEER_INDEX_TABLE, and calls
    ``entry(sequence, prefix, peer_index, originated, block)`` per RIB
    entry with its attribute block undecoded, yielding each result that
    is not None.  With ``peers=None`` the index is noted, not decoded,
    so a real dump whose index lists IPv6 peers still streams.
    Every field is checked against its record before it is read, and a
    record's results are yielded only once all its entries are in, so a
    malformed record raises :class:`MrtError` and yields nothing; a
    block is always exactly the ``attr_length`` bytes its entry claims.
    """
    data = b""
    offset = 0
    saw_index = False
    while True:
        end = offset + _HEADER.size
        if end <= len(data):
            _, record_type, subtype, length = _HEADER.unpack_from(data, offset)
            start, end = end, end + length
        if end > len(data):
            chunk = stream.read(max(_CHUNK, end - len(data)))
            if not chunk:
                if offset == len(data):
                    break
                if offset + _HEADER.size > len(data):
                    raise MrtError("truncated MRT header")
                raise MrtError("truncated MRT payload")
            data = data[offset:] + chunk
            offset = 0
            continue
        offset = end
        if record_type != TABLE_DUMP_V2:
            continue  # tolerate other record types in real dumps
        if subtype == PEER_INDEX_TABLE:
            if peers is not None:
                peers[:] = _decode_peer_index(data[start:end])[1]
            saw_index = True
            continue
        if subtype != RIB_IPV4_UNICAST:
            continue
        if length < 4:
            raise MrtError("RIB record too short for its sequence number")
        sequence = int.from_bytes(data[start : start + 4], "big")
        try:
            if length >= 9:
                # An IPv4 prefix takes at most 5 octets, so it cannot
                # run past this record: decode it in place.
                prefix, at = Prefix.decode(data, start + 4)
            else:
                prefix, at = Prefix.decode(data[start:end], 4)
                at += start
        except PrefixDecodeError as exc:
            raise MrtError(f"RIB record {sequence}: {exc}") from exc
        if at + 2 > end:
            raise MrtError(f"RIB record {sequence}: truncated entry count")
        count = (data[at] << 8) | data[at + 1]
        at += 2
        results = []
        for index in range(count):
            if at + _RIB_ENTRY.size > end:
                raise MrtError(
                    f"RIB record {sequence}: {count} entries claimed, "
                    f"entry {index} header runs past the record"
                )
            peer_index, originated, attr_length = _RIB_ENTRY.unpack_from(data, at)
            at += _RIB_ENTRY.size + attr_length
            if at > end:
                raise MrtError(
                    f"RIB record {sequence}: attribute block of {attr_length} "
                    f"bytes runs past the record"
                )
            result = entry(sequence, prefix, peer_index, originated, data[at - attr_length : at])
            if result is not None:
                results.append(result)
        yield from results
    if not saw_index:
        raise MrtError("no PEER_INDEX_TABLE record")


def _decode_block(sequence: int, block: bytes, decode=decode_attributes) -> tuple:
    """``decode`` one entry's attribute block; malformed bytes are the
    record's fault, so they surface as :class:`MrtError`."""
    try:
        return tuple(decode(block))
    except AttributeDecodeError as exc:
        raise MrtError(f"RIB record {sequence}: {exc}") from exc


def _rib_entry(
    sequence: int, prefix: Prefix, peer_index: int, originated: int, block: bytes
) -> RibEntry:
    return RibEntry(prefix, peer_index, originated, _decode_block(sequence, block))


def write_table(
    stream: BinaryIO,
    peers: Sequence[MrtPeer],
    entries: Sequence[RibEntry],
    collector_id: int = 0,
    timestamp: int = 0,
) -> None:
    """Write a TABLE_DUMP_V2 file: peer index then one RIB record per entry."""
    _write_record(stream, timestamp, PEER_INDEX_TABLE, _encode_peer_index(collector_id, peers))
    for sequence, entry in enumerate(entries):
        _write_record(stream, timestamp, RIB_IPV4_UNICAST, _encode_rib_entry(sequence, entry))


def read_table(stream: BinaryIO) -> Tuple[List[MrtPeer], List[RibEntry]]:
    """Read a TABLE_DUMP_V2 file back into peers and RIB entries."""
    peers: List[MrtPeer] = []
    entries = list(_walk_table(stream, peers, _rib_entry))
    return peers, entries
