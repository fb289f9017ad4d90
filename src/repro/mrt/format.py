"""MRT (RFC 6396) TABLE_DUMP_V2 reader/writer.

The paper's workload is "IPv4 BGP routes from a recent RIPE RIS
snapshot" — RIS snapshots ship as MRT TABLE_DUMP_V2 files.  We cannot
download one offline, but we implement the format so synthetic tables
round-trip through the real archive encoding: the workload generator
writes an MRT file, the harness reads it back, and any real RIS dump
a user drops in is equally loadable.

Implemented records: PEER_INDEX_TABLE (subtype 1) and RIB_IPV4_UNICAST
(subtype 2) of type 13 (TABLE_DUMP_V2).

One walker, :func:`_rib_rows`, reads RIB records and hands attribute
blocks out undecoded; :func:`read_table` decodes every block, the
``repro.workload.mrt_io`` bridge each distinct one.  Error contract: a
malformed record (truncated header, entry count or attribute length
past the payload, bad prefix length, block cut mid-attribute) is an
:class:`MrtError` naming its sequence number; none of it is returned.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator, List, NamedTuple, Sequence, Tuple

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
    "MrtRecord",
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


class MrtRecord(NamedTuple):
    timestamp: int
    record_type: int
    subtype: int
    payload: bytes


def _write_record(stream: BinaryIO, record: MrtRecord) -> None:
    stream.write(
        _HEADER.pack(
            record.timestamp, record.record_type, record.subtype, len(record.payload)
        )
    )
    stream.write(record.payload)


def _read_records(stream: BinaryIO) -> Iterator[MrtRecord]:
    while True:
        header = stream.read(_HEADER.size)
        if not header:
            return
        if len(header) < _HEADER.size:
            raise MrtError("truncated MRT header")
        timestamp, record_type, subtype, length = _HEADER.unpack(header)
        payload = stream.read(length)
        if len(payload) < length:
            raise MrtError("truncated MRT payload")
        yield MrtRecord(timestamp, record_type, subtype, payload)


def _encode_peer_index(collector_id: int, peers: Sequence[MrtPeer]) -> bytes:
    view_name = b""
    out = struct.pack("!IH", collector_id, len(view_name)) + view_name
    out += struct.pack("!H", len(peers))
    for peer in peers:
        # Peer type 0x02: IPv4 address, 4-octet AS.
        out += struct.pack("!BIII", 0x02, peer.bgp_id, peer.address, peer.asn)
    return out


def _decode_peer_index(payload: bytes) -> Tuple[int, List[MrtPeer]]:
    if len(payload) < 6:
        raise MrtError("short PEER_INDEX_TABLE")
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


def _rib_rows(payload: bytes) -> Tuple[int, List[Tuple[Prefix, int, int, bytes]]]:
    """Walk one RIB_IPV4_UNICAST payload without decoding attributes.

    Returns the record's sequence number and one ``(prefix, peer_index,
    originated, attribute block bytes)`` row per RIB entry.  Every field
    is checked against the payload before it is read, so a malformed
    record raises :class:`MrtError` and contributes no row; a returned
    block is always exactly the ``attr_length`` bytes the entry claims.
    """
    size = len(payload)
    if size < 4:
        raise MrtError("RIB record too short for its sequence number")
    sequence = int.from_bytes(payload[:4], "big")
    try:
        prefix, offset = Prefix.decode(payload, 4)
    except PrefixDecodeError as exc:
        raise MrtError(f"RIB record {sequence}: {exc}") from exc
    if offset + 2 > size:
        raise MrtError(f"RIB record {sequence}: truncated entry count")
    count = (payload[offset] << 8) | payload[offset + 1]
    offset += 2
    rows: List[Tuple[Prefix, int, int, bytes]] = []
    for _ in range(count):
        if offset + _RIB_ENTRY.size > size:
            raise MrtError(
                f"RIB record {sequence}: {count} entries claimed, "
                f"entry {len(rows)} header runs past the record"
            )
        peer_index, originated, attr_length = _RIB_ENTRY.unpack_from(payload, offset)
        offset += _RIB_ENTRY.size
        end = offset + attr_length
        if end > size:
            raise MrtError(
                f"RIB record {sequence}: attribute block of {attr_length} "
                f"bytes runs past the record"
            )
        rows.append((prefix, peer_index, originated, payload[offset:end]))
        offset = end
    return sequence, rows


def _decode_block(sequence: int, block: bytes) -> Tuple[PathAttribute, ...]:
    """Decode one entry's attribute block; malformed bytes are the
    record's fault, so they surface as :class:`MrtError`."""
    try:
        return tuple(decode_attributes(block))
    except AttributeDecodeError as exc:
        raise MrtError(f"RIB record {sequence}: {exc}") from exc


def _decode_rib(payload: bytes) -> List[RibEntry]:
    sequence, rows = _rib_rows(payload)
    return [
        RibEntry(prefix, peer_index, originated, _decode_block(sequence, block))
        for prefix, peer_index, originated, block in rows
    ]


def write_table(
    stream: BinaryIO,
    peers: Sequence[MrtPeer],
    entries: Sequence[RibEntry],
    collector_id: int = 0,
    timestamp: int = 0,
) -> None:
    """Write a TABLE_DUMP_V2 file: peer index then one RIB record per entry."""
    _write_record(
        stream,
        MrtRecord(
            timestamp, TABLE_DUMP_V2, PEER_INDEX_TABLE, _encode_peer_index(collector_id, peers)
        ),
    )
    for sequence, entry in enumerate(entries):
        _write_record(
            stream,
            MrtRecord(
                timestamp, TABLE_DUMP_V2, RIB_IPV4_UNICAST, _encode_rib_entry(sequence, entry)
            ),
        )


def read_table(stream: BinaryIO) -> Tuple[List[MrtPeer], List[RibEntry]]:
    """Read a TABLE_DUMP_V2 file back into peers and RIB entries."""
    peers: List[MrtPeer] = []
    entries: List[RibEntry] = []
    saw_index = False
    for record in _read_records(stream):
        if record.record_type != TABLE_DUMP_V2:
            continue  # tolerate other record types in real dumps
        if record.subtype == PEER_INDEX_TABLE:
            _, peers = _decode_peer_index(record.payload)
            saw_index = True
        elif record.subtype == RIB_IPV4_UNICAST:
            entries.extend(_decode_rib(record.payload))
    if not saw_index:
        raise MrtError("no PEER_INDEX_TABLE record")
    return peers, entries
