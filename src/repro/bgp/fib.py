"""Forwarding Information Base: longest-prefix-match forwarding.

Fig. 2 of the paper shows the control plane pushing best routes into
the router's FIB.  This module is that data plane: a prefix trie from
the Loc-RIB's best routes to next-hop addresses, plus longest-match
lookup.  The simulator uses it to *forward* (trace actual packet
paths), which lets tests assert data-plane properties — e.g. that the
valley-free fabric really carries traffic over the paths the RIBs
promise.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .prefix import Prefix
from .trie import PrefixTrie

__all__ = ["Fib", "FibEntry"]


class FibEntry:
    """One forwarding entry: next hop plus provenance."""

    __slots__ = ("prefix", "next_hop", "local")

    def __init__(self, prefix: Prefix, next_hop: int, local: bool = False):
        self.prefix = prefix
        self.next_hop = next_hop
        #: True when the prefix is attached locally (packet delivered).
        self.local = local

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FibEntry):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.next_hop == other.next_hop
            and self.local == other.local
        )

    def __repr__(self) -> str:
        kind = "local" if self.local else f"via {self.next_hop:#010x}"
        return f"FibEntry({self.prefix}, {kind})"


class Fib:
    """Longest-prefix-match forwarding table."""

    def __init__(self) -> None:
        self._trie: PrefixTrie[FibEntry] = PrefixTrie()

    def install(self, entry: FibEntry) -> None:
        self._trie.insert(entry.prefix, entry)

    def remove(self, prefix: Prefix) -> Optional[FibEntry]:
        try:
            return self._trie.remove(prefix)
        except KeyError:
            return None

    def lookup(self, address: int) -> Optional[FibEntry]:
        """Longest-match forwarding decision for a destination address."""
        match = self._trie.lookup_address(address)
        return match[1] if match else None

    def entries(self) -> Iterator[FibEntry]:
        for _, entry in self._trie.items():
            yield entry

    def __len__(self) -> int:
        return len(self._trie)

    @classmethod
    def from_loc_rib(cls, loc_rib) -> "Fib":
        """Build the FIB from a Loc-RIB (RouteView objects)."""
        fib = cls()
        for route in loc_rib.routes():
            fib.install(
                FibEntry(
                    route.prefix,
                    route.next_hop(),
                    local=route.source is None,
                )
            )
        return fib
