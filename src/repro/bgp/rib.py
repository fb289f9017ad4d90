"""The abstract RFC 4271 RIB triple: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

These containers are the data structures the xBGP API exposes (Fig. 2
of the paper, blue boxes).  Both vendor daemons use them, but each
stores its *own* route class inside — PyFRR interns parsed attribute
sets, PyBIRD keeps lazily-parsed eattr lists — which is exactly the
heterogeneity the neutral xBGP representation has to bridge.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from .aspath import AsPath
from .attributes import PathAttribute
from .constants import AttrTypeCode, Origin
from .peer import Neighbor
from .prefix import Prefix

__all__ = ["RouteView", "AdjRibIn", "LocRib", "AdjRibOut"]

R = TypeVar("R", bound="RouteView")


class RouteView:
    """The accessor contract every vendor route class implements.

    The decision process, policies and xBGP glue only touch routes
    through this interface, so they work with either daemon's internal
    representation.
    """

    __slots__ = ()

    #: The announced prefix.
    prefix: Prefix
    #: The neighbor the route was learned from (None = locally originated).
    source: Optional[Neighbor]
    #: The host's attribute-set object, which routes share.
    attrs: object

    def attribute(self, type_code: int) -> Optional[PathAttribute]:
        """Return the attribute in neutral form, or None."""
        raise NotImplementedError

    def attribute_list(self) -> List[PathAttribute]:
        """All attributes in neutral form (any order)."""
        raise NotImplementedError

    def with_attributes(self: R, attributes: List[PathAttribute]) -> R:
        """Return a copy of the route carrying ``attributes`` instead."""
        raise NotImplementedError

    # -- decision-process accessors (may be overridden with faster
    # implementations by the vendor route classes) --------------------

    def local_pref(self) -> int:
        attribute = self.attribute(AttrTypeCode.LOCAL_PREF)
        return attribute.as_u32() if attribute is not None else 100

    def as_path_length(self) -> int:
        attribute = self.attribute(AttrTypeCode.AS_PATH)
        return attribute.as_path().length() if attribute is not None else 0

    def origin(self) -> int:
        attribute = self.attribute(AttrTypeCode.ORIGIN)
        return int(attribute.as_origin()) if attribute is not None else Origin.INCOMPLETE

    def med(self) -> int:
        attribute = self.attribute(AttrTypeCode.MULTI_EXIT_DISC)
        return attribute.as_u32() if attribute is not None else 0

    def next_hop(self) -> int:
        attribute = self.attribute(AttrTypeCode.NEXT_HOP)
        return attribute.as_u32() if attribute is not None else 0

    def neighbor_asn(self) -> int:
        return self.source.peer_asn if self.source is not None else 0

    def from_ebgp(self) -> bool:
        return self.source is not None and self.source.is_ebgp()

    def originator_or_router_id(self) -> int:
        attribute = self.attribute(AttrTypeCode.ORIGINATOR_ID)
        if attribute is not None:
            return attribute.as_u32()
        return self.source.peer_router_id if self.source is not None else 0

    def cluster_list_length(self) -> int:
        attribute = self.attribute(AttrTypeCode.CLUSTER_LIST)
        return len(attribute.value) // 4 if attribute is not None else 0

    def peer_address(self) -> int:
        return self.source.peer_address if self.source is not None else 0

    # -- reads the shared speaker pipeline needs ------------------------

    def as_path(self) -> AsPath:
        attribute = self.attribute(AttrTypeCode.AS_PATH)
        return attribute.as_path() if attribute is not None else AsPath()

    def path_contains(self, asn: int) -> bool:
        """Loop detection: does ``asn`` appear anywhere in the AS path?"""
        return self.as_path().contains(asn)

    def originator_id(self) -> Optional[int]:
        attribute = self.attribute(AttrTypeCode.ORIGINATOR_ID)
        return attribute.as_u32() if attribute is not None else None

    def cluster_list(self) -> Tuple[int, ...]:
        attribute = self.attribute(AttrTypeCode.CLUSTER_LIST)
        return attribute.as_cluster_list() if attribute is not None else ()

    def communities(self):
        """The COMMUNITIES values (empty when the attribute is absent)."""
        attribute = self.attribute(AttrTypeCode.COMMUNITIES)
        return attribute.as_communities() if attribute is not None else ()

    # -- identity -------------------------------------------------------

    def attrs_key(self):
        """Hashable identity of this route's attribute set.

        Keys the speaker's export memo.  Vendor route classes override
        it with cheaper keys (the interned attribute set itself, the
        eattr list's memoised key).
        """
        return tuple(
            sorted(
                (int(attr.type_code), attr.flags, bytes(attr.value))
                for attr in self.attribute_list()
            )
        )

    def story_key(self):
        """Hashable identity of this route's *content* (peer + attrs).

        The provenance flap/oscillation detector compares successive
        best routes by this key: two routes with the same learning peer
        and byte-identical attribute sets are the same path, however
        many times the object was rebuilt.
        """
        return (self.peer_address(), self.attrs_key())


class AdjRibIn(Generic[R]):
    """Per-peer table of accepted incoming routes."""

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[Prefix, R]] = {}

    def update(self, peer_address: int, route: R) -> Optional[R]:
        """Install ``route``; return the replaced route if any."""
        table = self._tables.setdefault(peer_address, {})
        previous = table.get(route.prefix)
        table[route.prefix] = route
        return previous

    def withdraw(self, peer_address: int, prefix: Prefix) -> Optional[R]:
        """Remove ``prefix`` learned from ``peer_address`` if present."""
        table = self._tables.get(peer_address)
        if table is None:
            return None
        return table.pop(prefix, None)

    def drop_peer(self, peer_address: int) -> List[R]:
        """Flush a peer's table (session down); return its routes."""
        table = self._tables.pop(peer_address, None)
        return list(table.values()) if table else []

    def candidates(self, prefix: Prefix) -> List[R]:
        """Every route for ``prefix`` across all peers."""
        return [
            table[prefix] for table in self._tables.values() if prefix in table
        ]

    def routes_from(self, peer_address: int) -> Iterator[R]:
        yield from self._tables.get(peer_address, {}).values()

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


class LocRib(Generic[R]):
    """Best route per prefix, as selected by the decision process."""

    def __init__(self) -> None:
        self._routes: Dict[Prefix, R] = {}
        #: Optional observer ``fn(action, prefix, route, previous)``
        #: with action in {"install", "replace", "remove"}; the
        #: provenance tracker hooks it to watch best-route churn.
        self.on_change = None

    def install(self, route: R) -> Optional[R]:
        previous = self._routes.get(route.prefix)
        self._routes[route.prefix] = route
        if self.on_change is not None:
            action = "replace" if previous is not None else "install"
            self.on_change(action, route.prefix, route, previous)
        return previous

    def remove(self, prefix: Prefix) -> Optional[R]:
        removed = self._routes.pop(prefix, None)
        if removed is not None and self.on_change is not None:
            self.on_change("remove", prefix, None, removed)
        return removed

    def lookup(self, prefix: Prefix) -> Optional[R]:
        return self._routes.get(prefix)

    def routes(self) -> Iterator[R]:
        yield from self._routes.values()

    def prefixes(self) -> Iterator[Prefix]:
        yield from self._routes.keys()

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def __len__(self) -> int:
        return len(self._routes)


class AdjRibOut(Generic[R]):
    """Per-peer table of routes advertised (post export filter)."""

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[Prefix, R]] = {}

    def advertise(self, peer_address: int, route: R) -> Optional[R]:
        table = self._tables.setdefault(peer_address, {})
        previous = table.get(route.prefix)
        table[route.prefix] = route
        return previous

    def withdraw(self, peer_address: int, prefix: Prefix) -> Optional[R]:
        table = self._tables.get(peer_address)
        if table is None:
            return None
        return table.pop(prefix, None)

    def advertised(self, peer_address: int, prefix: Prefix) -> Optional[R]:
        table = self._tables.get(peer_address)
        return table.get(prefix) if table else None

    def routes_to(self, peer_address: int) -> Iterator[R]:
        yield from self._tables.get(peer_address, {}).values()

    def drop_peer(self, peer_address: int) -> None:
        self._tables.pop(peer_address, None)

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())
