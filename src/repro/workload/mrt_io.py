"""Bridging synthetic tables and MRT archives.

``routes_from_mrt`` loads a TABLE_DUMP_V2 file — a synthetic one from
``xbgp gen-table``, or a real RIS/RouteViews dump — back into
:class:`RouteSpec` rows the experiment harness consumes, so the Fig. 4
benchmarks can replay archived tables instead of generated ones.

``iter_routes_from_mrt`` is the streaming twin: it yields the same
rows in file order without ever materializing the table, so a 724k-route
full-table dump can be partitioned into shard buckets (or counted, or
filtered) at a memory cost of one record plus a bounded memo: tables
share attribute sets heavily (4,136 distinct blocks in the 20k-route
benchmark table), so each distinct attribute block is decoded once.
"""

from __future__ import annotations

from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..bgp.attributes import PathAttribute
from ..bgp.constants import AttrTypeCode, Origin
from ..mrt.format import (
    MrtError,
    PEER_INDEX_TABLE,
    RIB_IPV4_UNICAST,
    TABLE_DUMP_V2,
    _decode_block,
    _read_records,
    _rib_rows,
)
from .rib_gen import RouteSpec

__all__ = ["iter_routes_from_mrt", "routes_from_mrt"]

#: Entry cap of the attribute-block memo, cleared when reached — the
#: policy (and size) of the speaker's encode and mechanics caches.
_MEMO_CAP = 65536

#: What an attribute block decides: (as_path, origin, med, communities).
_Fields = Tuple[Tuple[int, ...], int, Optional[int], Tuple[int, ...]]

#: Memo value of a block without an AS_PATH: its entries are skipped.
_NO_AS_PATH: _Fields = ((), int(Origin.INCOMPLETE), None, ())


def _fields_from_attributes(attributes: Sequence[PathAttribute]) -> _Fields:
    """Decoded attributes → RouteSpec fields, or ``_NO_AS_PATH``."""
    as_path = ()
    origin = int(Origin.INCOMPLETE)
    med = None
    communities = ()
    for attribute in attributes:
        code = attribute.type_code
        if code == AttrTypeCode.AS_PATH:
            as_path = tuple(attribute.as_path().asn_iter())
        elif code == AttrTypeCode.ORIGIN and attribute.value:
            origin = attribute.value[0]
        elif code == AttrTypeCode.MULTI_EXIT_DISC:
            med = attribute.as_u32()
        elif code == AttrTypeCode.COMMUNITIES:
            communities = tuple(sorted(int(c) for c in attribute.as_communities()))
    if not as_path:
        return _NO_AS_PATH
    return as_path, origin, med, communities


def _spec_from_entry(entry) -> Optional[RouteSpec]:
    """One RIB entry → RouteSpec, or None when there is no AS_PATH."""
    fields = _fields_from_attributes(entry.attributes)
    if fields is _NO_AS_PATH:
        return None
    return RouteSpec(entry.prefix, *fields)


def iter_routes_from_mrt(source: Union[str, BinaryIO]) -> Iterator[RouteSpec]:
    """Stream RouteSpec rows out of an MRT TABLE_DUMP_V2 file.

    Same semantics as :func:`routes_from_mrt` — entries without an
    AS_PATH are skipped (without claiming their prefix), duplicate
    prefixes keep the first entry — but one record is held at a time,
    so the full table never materializes.

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
    saw_index = False
    for record in _read_records(source):
        if record.record_type != TABLE_DUMP_V2:
            continue
        if record.subtype == PEER_INDEX_TABLE:
            saw_index = True
            continue
        if record.subtype != RIB_IPV4_UNICAST:
            continue
        sequence, rows = _rib_rows(record.payload)
        specs = []
        for prefix, _, _, block in rows:
            fields = memo.get(block)
            if fields is None:
                fields = _fields_from_attributes(_decode_block(sequence, block))
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                memo[block] = fields
            if fields is _NO_AS_PATH or prefix in seen:
                continue
            seen.add(prefix)
            specs.append(RouteSpec(prefix, *fields))
        yield from specs
    if not saw_index:
        raise MrtError("no PEER_INDEX_TABLE record")


def routes_from_mrt(source: Union[str, BinaryIO]) -> List[RouteSpec]:
    """Read RIB entries from an MRT file into RouteSpec rows.

    Entries without an AS_PATH attribute are skipped (route servers
    occasionally archive such rows); duplicate prefixes keep the first
    entry, matching a single-peer view.
    """
    return list(iter_routes_from_mrt(source))
