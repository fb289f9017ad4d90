"""Bridging synthetic tables and MRT archives.

``routes_from_mrt`` loads a TABLE_DUMP_V2 file — a synthetic one from
``xbgp gen-table``, or a real RIS/RouteViews dump — back into
:class:`RouteSpec` rows the experiment harness consumes, so the Fig. 4
benchmarks can replay archived tables instead of generated ones.

``iter_routes_from_mrt`` is the streaming twin: it yields the same
rows in file order without ever materializing the table, so a 724k-route
full-table dump can be bucketed into shards (or counted, or filtered)
at a memory cost of one read chunk plus a bounded memo: tables
share attribute sets heavily (4,136 distinct blocks in the 20k-route
benchmark table), so each distinct attribute block is decoded once.
"""

from __future__ import annotations

from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..bgp.aspath import decode_segments
from ..bgp.attributes import PathAttribute, attribute_tlvs
from ..bgp.communities import decode_communities
from ..bgp.constants import AttrTypeCode, Origin
from ..mrt.format import _decode_block, _walk_table
from .rib_gen import RouteSpec

__all__ = ["iter_routes_from_mrt", "routes_from_mrt"]

#: Entry cap of the attribute-block memo, cleared when reached — the
#: policy (and size) of the speaker's export memo.
_MEMO_CAP = 65536

#: What an attribute block decides: (as_path, origin, med, communities).
_Fields = Tuple[Tuple[int, ...], int, Optional[int], Tuple[int, ...]]

#: Memo value of a block without an AS_PATH: its entries are skipped.
_NO_AS_PATH: _Fields = ((), int(Origin.INCOMPLETE), None, ())


def _fields_from_tlvs(tlvs: Iterable[Tuple[int, int, bytes]]) -> _Fields:
    """An attribute block's ``(flags, code, value)`` triples → RouteSpec
    fields, or ``_NO_AS_PATH``."""
    as_path = ()
    origin = int(Origin.INCOMPLETE)
    med = None
    communities = ()
    for flags, code, value in tlvs:
        if code == AttrTypeCode.AS_PATH:
            as_path = tuple(asn for _, asns in decode_segments(value) for asn in asns)
        elif code == AttrTypeCode.ORIGIN and value:
            origin = value[0]
        elif code == AttrTypeCode.MULTI_EXIT_DISC:
            med = PathAttribute(flags, code, value).as_u32()
        elif code == AttrTypeCode.COMMUNITIES:
            communities = tuple(sorted(int(c) for c in decode_communities(value)))
    if not as_path:
        return _NO_AS_PATH
    return as_path, origin, med, communities


def _spec_from_entry(entry) -> Optional[RouteSpec]:
    """One RIB entry → RouteSpec, or None when there is no AS_PATH."""
    fields = _fields_from_tlvs((a.flags, a.type_code, a.value) for a in entry.attributes)
    if fields is _NO_AS_PATH:
        return None
    return RouteSpec(entry.prefix, *fields)


def iter_routes_from_mrt(source: Union[str, BinaryIO]) -> Iterator[RouteSpec]:
    """Stream RouteSpec rows out of an MRT TABLE_DUMP_V2 file.

    Same semantics as :func:`routes_from_mrt` — entries without an
    AS_PATH are skipped (without claiming their prefix), duplicate
    prefixes keep the first entry — but the file is read a chunk at a
    time, so the full table never materializes.

    Attribute blocks are decoded once per distinct block: a
    ``block bytes → fields`` memo (cleared at ``_MEMO_CAP`` entries)
    serves every later entry carrying the same bytes, and all routes of
    one block share the same ``as_path`` / ``communities`` tuples.

    Raises :class:`MrtError` for a malformed RIB record (before any of
    its entries is yielded) and, at the end of the file, if the dump
    carries no PEER_INDEX_TABLE record.
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            yield from iter_routes_from_mrt(handle)
        return
    seen = set()
    memo: Dict[bytes, _Fields] = {}

    def route(sequence: int, prefix, _peer, _originated, block: bytes) -> Optional[RouteSpec]:
        fields = memo.get(block)
        if fields is None:
            fields = _fields_from_tlvs(_decode_block(sequence, block, attribute_tlvs))
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[block] = fields
        if fields is _NO_AS_PATH or prefix in seen:
            return None
        seen.add(prefix)
        return RouteSpec(prefix, *fields)

    yield from _walk_table(source, None, route)


def routes_from_mrt(source: Union[str, BinaryIO]) -> List[RouteSpec]:
    """Read RIB entries from an MRT file into RouteSpec rows.

    Entries without an AS_PATH attribute are skipped (route servers
    occasionally archive such rows); duplicate prefixes keep the first
    entry, matching a single-peer view.
    """
    return list(iter_routes_from_mrt(source))
