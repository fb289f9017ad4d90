"""BIRD-style extended attributes (eattrs).

Real BIRD keeps route attributes in a generic ``eattr`` list — id,
flags, raw data — with a uniform find/set/unset API, which is why the
paper's BIRD glue was thin ("BIRD includes a flexible API to manage BGP
attributes.  xBGP simply extends this API").  PyBIRD mirrors that: an
:class:`EattrList` stores attribute values as the raw network-byte-
order bytes straight off the wire, so converting to and from the
neutral xBGP representation is almost free.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..bgp.attributes import PathAttribute

__all__ = ["Eattr", "EattrList"]


class Eattr:
    """One extended attribute: (code, flags, raw bytes).

    Effectively immutable — ``ea_set`` replaces the whole object — so
    what is derived from the bytes is memoised on the attribute and
    shared by every list copy and route that holds it: the ``get_attr``
    helper struct on ``_packed`` (filled by the glue's
    ``get_attr_packed``), the decoded value on ``_parsed`` (filled by
    :class:`~repro.bird.rib.BirdRoute`'s accessors).
    """

    __slots__ = ("code", "flags", "data", "_packed", "_parsed")

    def __init__(self, code: int, flags: int, data: bytes):
        self.code = code
        self.flags = flags
        self.data = bytes(data)
        self._packed: Optional[bytes] = None
        self._parsed: object = None

    def to_path_attribute(self) -> PathAttribute:
        return PathAttribute(self.flags, self.code, self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Eattr):
            return NotImplemented
        return (
            self.code == other.code
            and self.flags == other.flags
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.code, self.flags, self.data))

    def __repr__(self) -> str:
        return f"Eattr({self.code}, {self.flags:#04x}, {self.data.hex()})"


class EattrList:
    """Mutable list of eattrs with BIRD's find/set/unset API."""

    __slots__ = ("_attrs", "_ckey", "_write_cache")

    def __init__(self, attrs: Optional[Dict[int, Eattr]] = None):
        self._attrs: Dict[int, Eattr] = dict(attrs) if attrs else {}
        self._ckey: Optional[Tuple[Tuple[int, int, bytes], ...]] = None
        # ``set_attr`` template cache: (code, flags, data) -> the list
        # that results from that write, pre-memoised.  Valid only for
        # the *current* content, so copies share it (same content) and
        # any in-place mutation swaps in a fresh dict rather than
        # clearing the shared one.
        self._write_cache: Dict[Tuple[int, int, bytes], "EattrList"] = {}

    @classmethod
    def from_wire(cls, attributes: Iterable[PathAttribute]) -> "EattrList":
        """Build from decoded path attributes (keeps raw values)."""
        instance = cls()
        for attribute in attributes:
            instance._attrs[attribute.type_code] = Eattr(
                attribute.type_code, attribute.flags, attribute.value
            )
        return instance

    # -- the flexible attribute API --------------------------------------

    def ea_find(self, code: int) -> Optional[Eattr]:
        return self._attrs.get(code)

    def ea_set(self, code: int, flags: int, data: bytes) -> None:
        self._attrs[code] = Eattr(code, flags, data)
        self._ckey = None
        self._write_cache = {}

    def ea_unset(self, code: int) -> bool:
        removed = self._attrs.pop(code, None) is not None
        if removed:
            self._ckey = None
            self._write_cache = {}
        return removed

    def __contains__(self, code: int) -> bool:
        return code in self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[Eattr]:
        for code in sorted(self._attrs):
            yield self._attrs[code]

    # -- conversion / identity ----------------------------------------------

    def copy(self) -> "EattrList":
        clone = EattrList(self._attrs)
        clone._ckey = self._ckey  # same attrs, same identity
        clone._write_cache = self._write_cache  # same content, same templates
        return clone

    def to_path_attributes(self) -> List[PathAttribute]:
        return [eattr.to_path_attribute() for eattr in self]

    def cache_key(self) -> Tuple[Tuple[int, int, bytes], ...]:
        """Hashable identity used for update packing and dedup.

        Memoised (built once per distinct attribute-set state); any
        ``ea_set``/``ea_unset`` invalidates the cached tuple.
        """
        key = self._ckey
        if key is None:
            key = tuple((e.code, e.flags, e.data) for e in self)
            self._ckey = key
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EattrList):
            return NotImplemented
        return self._attrs == other._attrs

    def __repr__(self) -> str:
        return f"EattrList({list(self)!r})"
