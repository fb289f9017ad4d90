"""The Fig. 5 data-center fabric, buildable in three configurations.

Topology (2 spines, 4 leaves, 4 ToRs, no same-level links)::

            S1          S2         level 2 (spine)
          / | \\ \\     / | \\ \\
        L10 L11 L12 L13            level 1 (leaf)
        |     |   |     |
        T20  T21 T22  T23          level 0 (ToR)

Configurations:

* ``unique_as`` — every router its own AS, no valley protection
  (baseline; valleys possible);
* ``same_as`` — the classic trick: S1/S2 share an AS, L10/L11 and
  L12/L13 share ASes, so eBGP loop detection kills valleys (and, under
  the double failure, partitions the fabric);
* ``xbgp`` — unique AS numbers everywhere plus the valley-free xBGP
  program on every router.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..plugins import valley_free
from .network import Network
from .testbed import DAEMONS

__all__ = ["build_clos", "CLOS_LINKS", "UNIQUE_AS", "SAME_AS", "up_edges"]

#: Unique-AS assignment (the xBGP way).
UNIQUE_AS: Dict[str, int] = {
    "S1": 65201,
    "S2": 65202,
    "L10": 65110,
    "L11": 65111,
    "L12": 65112,
    "L13": 65113,
    "T20": 65020,
    "T21": 65021,
    "T22": 65022,
    "T23": 65023,
}

#: Same-AS trick: spines share, leaf pairs share (§3.3).
SAME_AS: Dict[str, int] = {
    "S1": 65200,
    "S2": 65200,
    "L10": 65101,
    "L11": 65101,
    "L12": 65102,
    "L13": 65102,
    "T20": 65020,
    "T21": 65021,
    "T22": 65022,
    "T23": 65023,
}

_LEVEL: Dict[str, int] = {
    "S1": 2,
    "S2": 2,
    "L10": 1,
    "L11": 1,
    "L12": 1,
    "L13": 1,
    "T20": 0,
    "T21": 0,
    "T22": 0,
    "T23": 0,
}

#: Every leaf connects to both spines; ToRs pair up under leaf pods.
CLOS_LINKS: List[Tuple[str, str]] = [
    ("L10", "S1"),
    ("L10", "S2"),
    ("L11", "S1"),
    ("L11", "S2"),
    ("L12", "S1"),
    ("L12", "S2"),
    ("L13", "S1"),
    ("L13", "S2"),
    ("T20", "L10"),
    ("T20", "L11"),
    ("T21", "L10"),
    ("T21", "L11"),
    ("T22", "L12"),
    ("T22", "L13"),
    ("T23", "L12"),
    ("T23", "L13"),
]

_ADDresses_BASE = "10.20.{index}.{side}"


def up_edges(as_map: Dict[str, int]) -> List[Tuple[int, int]]:
    """(lower-level AS, upper-level AS) for every fabric adjacency."""
    edges = []
    for a, b in CLOS_LINKS:
        low, high = (a, b) if _LEVEL[a] < _LEVEL[b] else (b, a)
        edges.append((as_map[low], as_map[high]))
    return sorted(set(edges))


def build_clos(config: str = "xbgp", implementation: str = "bird") -> Network:
    """Build the Fig. 5 fabric in one of the three configurations.

    Router daemons alternate implementations when
    ``implementation="mixed"`` — the same valley-free bytecode loads on
    both kinds, which is the point of xBGP.
    """
    if config not in ("unique_as", "same_as", "xbgp"):
        raise ValueError(f"unknown config {config!r}")
    as_map = SAME_AS if config == "same_as" else UNIQUE_AS
    network = Network()

    names = list(UNIQUE_AS)
    for index, name in enumerate(names):
        host = ("frr", "bird")[index % 2] if implementation == "mixed" else implementation
        router_id = f"10.99.{index + 1}.1"
        daemon = DAEMONS[host](asn=as_map[name], router_id=router_id)
        network.add_router(name, daemon)

    if config == "xbgp":
        manifest = valley_free.build_manifest(
            up_edges(as_map), dc_ases=set(as_map.values())
        )
        for name in names:
            network.router(name).attach_manifest(manifest)

    for index, (a, b) in enumerate(CLOS_LINKS):
        a_address = f"10.20.{index}.1"
        b_address = f"10.20.{index}.2"
        network.connect(a, a_address, b, b_address)
    return network
