"""Weighted IGP topology.

A thin adjacency-map graph with named nodes, loopback addresses and
symmetric (or asymmetric) link costs — enough to model the §3.1
scenario: an ISP whose transatlantic links carry cost 1000 so the
export filter can recognise "learned on another continent".
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..bgp.prefix import parse_ipv4

__all__ = ["IgpTopology"]


class IgpTopology:
    """Nodes with loopback addresses, links with costs."""

    def __init__(self) -> None:
        self._adjacency: Dict[str, Dict[str, int]] = {}
        self._loopbacks: Dict[str, int] = {}
        self._by_address: Dict[int, str] = {}

    def add_node(self, name: str, loopback: str) -> None:
        if name in self._adjacency:
            raise ValueError(f"duplicate node {name!r}")
        address = parse_ipv4(loopback)
        if address in self._by_address:
            raise ValueError(f"duplicate loopback {loopback}")
        self._adjacency[name] = {}
        self._loopbacks[name] = address
        self._by_address[address] = name

    def add_link(self, a: str, b: str, cost: int, cost_back: Optional[int] = None) -> None:
        """Add a link; symmetric unless ``cost_back`` differs."""
        if a not in self._adjacency or b not in self._adjacency:
            raise KeyError(f"unknown node in link {a}-{b}")
        if cost <= 0:
            raise ValueError(f"cost must be positive: {cost}")
        self._adjacency[a][b] = cost
        self._adjacency[b][a] = cost if cost_back is None else cost_back

    def remove_link(self, a: str, b: str) -> None:
        self._adjacency[a].pop(b, None)
        self._adjacency[b].pop(a, None)

    # -- queries -------------------------------------------------------

    def nodes(self) -> Iterator[str]:
        yield from self._adjacency.keys()

    def neighbors(self, name: str) -> Dict[str, int]:
        return dict(self._adjacency[name])

    def loopback(self, name: str) -> int:
        return self._loopbacks[name]

    def node_by_address(self, address: int) -> Optional[str]:
        return self._by_address.get(address)

    def edges(self) -> Iterator[Tuple[str, str, int]]:
        for a, links in self._adjacency.items():
            for b, cost in links.items():
                if a < b:
                    yield a, b, cost

    def __contains__(self, name: str) -> bool:
        return name in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)
