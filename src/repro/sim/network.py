"""Wiring daemons into simulated networks.

A :class:`Network` owns an event scheduler and connects daemon
instances with point-to-point links: each daemon's ``send_fn`` for a
neighbor enqueues the bytes for delivery to the other end after the
link latency.  Links can fail (§3.3's double-failure scenario) — bytes
in flight on a failed link are dropped, and both daemons see the
session go down.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..bgp.prefix import format_ipv4, parse_ipv4
from .engine import EventScheduler

__all__ = ["Network", "Link"]


class Link:
    """One bidirectional link between two routers' interface addresses."""

    __slots__ = ("a_name", "a_address", "b_name", "b_address", "latency", "up")

    def __init__(self, a_name, a_address, b_name, b_address, latency):
        self.a_name = a_name
        self.a_address = a_address
        self.b_name = b_name
        self.b_address = b_address
        self.latency = latency
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return (
            f"Link({self.a_name}:{format_ipv4(self.a_address)} <-> "
            f"{self.b_name}:{format_ipv4(self.b_address)}, {state})"
        )


class Network:
    """A set of routers plus the links between them."""

    def __init__(self) -> None:
        self.scheduler = EventScheduler()
        self._routers: Dict[str, object] = {}
        self._links: List[Link] = []
        #: (router name, local interface address) -> link + direction.
        self._endpoints: Dict[Tuple[str, int], Tuple[Link, str]] = {}
        #: any address (loopback, router id, interface) -> router name,
        #: used by the data-plane tracer to resolve next hops.
        self._address_owner: Dict[int, str] = {}

    # -- construction -----------------------------------------------------

    def add_router(self, name: str, daemon) -> None:
        if name in self._routers:
            raise ValueError(f"duplicate router {name!r}")
        self._routers[name] = daemon
        self._address_owner[daemon.local_address] = name
        self._address_owner[daemon.router_id] = name
        tracker = getattr(daemon, "provenance", None)
        if tracker is not None:
            # Provenance timestamps should be in simulated seconds.
            tracker.set_clock(lambda: self.scheduler.now)

    def router(self, name: str):
        return self._routers[name]

    def routers(self) -> Dict[str, object]:
        return dict(self._routers)

    def connect(
        self,
        a_name: str,
        a_address: str,
        b_name: str,
        b_address: str,
        latency: float = 0.001,
    ) -> Link:
        """Create a link and register BGP neighborship on both daemons.

        ``a_address``/``b_address`` are the interface addresses the two
        routers use on this link (each is the *other* side's neighbor
        address).
        """
        daemon_a = self._routers[a_name]
        daemon_b = self._routers[b_name]
        link = Link(a_name, parse_ipv4(a_address), b_name, parse_ipv4(b_address), latency)
        self._links.append(link)
        self._endpoints[(a_name, link.a_address)] = (link, "a")
        self._endpoints[(b_name, link.b_address)] = (link, "b")
        self._address_owner[link.a_address] = a_name
        self._address_owner[link.b_address] = b_name

        daemon_a.add_neighbor(
            b_address, daemon_b.asn, self._sender(link, "a"), rr_client=False
        )
        daemon_b.add_neighbor(
            a_address, daemon_a.asn, self._sender(link, "b"), rr_client=False
        )
        return link

    def neighbor_config(self, router: str, peer_address: str):
        """The Neighbor object a router holds for ``peer_address``."""
        daemon = self._routers[router]
        return daemon.neighbors[parse_ipv4(peer_address)]

    def _sender(self, link: Link, side: str) -> Callable[[bytes], None]:
        def send(data: bytes) -> None:
            if not link.up:
                return  # bytes lost on a failed link
            if side == "a":
                origin_name, source_address = link.a_name, link.a_address
                target = self._routers[link.b_name]
            else:
                origin_name, source_address = link.b_name, link.b_address
                target = self._routers[link.a_name]
            # Ship the sender's active span ref with the bytes (the
            # ``send`` span of the packed UPDATE being emitted): the
            # receiver's UPDATE span adopts it as parent, so one trace
            # follows the route across routers.
            tracker = getattr(self._routers.get(origin_name), "provenance", None)
            parent = tracker.active_ref() if tracker is not None else None
            if parent is not None:
                self.scheduler.schedule(
                    link.latency,
                    lambda: target.receive_raw(
                        format_ipv4(source_address), data, parent=parent
                    ),
                )
            else:
                self.scheduler.schedule(
                    link.latency,
                    lambda: target.receive_raw(format_ipv4(source_address), data),
                )

        return send

    # -- session control -----------------------------------------------------

    def establish_all(self, max_events: Optional[int] = None) -> None:
        """Bring every session up (both directions) and settle.

        ``max_events`` bounds the settling run — needed for topologies
        that never converge (the oscillation tests), where an unbounded
        drain would spin forever.
        """
        for link in self._links:
            if link.up:
                self._establish(link)
        self.run(max_events)

    def _establish(self, link: Link) -> None:
        self._routers[link.a_name].session_up(format_ipv4(link.b_address))
        self._routers[link.b_name].session_up(format_ipv4(link.a_address))

    def fail_link(self, a_name: str, b_name: str) -> None:
        """Take the (first) link between two routers down."""
        link = self._find_link(a_name, b_name)
        link.up = False
        self._routers[link.a_name].session_down(format_ipv4(link.b_address))
        self._routers[link.b_name].session_down(format_ipv4(link.a_address))
        self.run()

    def restore_link(self, a_name: str, b_name: str) -> None:
        link = self._find_link(a_name, b_name)
        link.up = True
        self._establish(link)
        self.run()

    def _find_link(self, a_name: str, b_name: str) -> Link:
        for link in self._links:
            names = {link.a_name, link.b_name}
            if names == {a_name, b_name}:
                return link
        raise KeyError(f"no link {a_name} <-> {b_name}")

    # -- provenance --------------------------------------------------------------

    def enable_provenance(self) -> None:
        """Turn on provenance tracking on every router, with all
        trackers reading the simulated clock."""
        for daemon in self._routers.values():
            tracker = getattr(daemon, "provenance", None)
            if tracker is None:
                tracker = daemon.enable_provenance()
            tracker.set_clock(lambda: self.scheduler.now)

    def convergence_report(self) -> Dict[str, object]:
        """Network-wide convergence observability, aggregated from the
        per-router provenance trackers (routers without one are
        skipped): total flap counts per prefix, the union of
        oscillating prefixes, and time-to-quiescence (simulated clock
        of the last best-path change anywhere)."""
        flaps: Dict[str, int] = {}
        oscillating: set = set()
        quiescence = 0.0
        per_router: Dict[str, object] = {}
        for name, daemon in self._routers.items():
            tracker = getattr(daemon, "provenance", None)
            if tracker is None:
                continue
            report = tracker.convergence_report()
            per_router[name] = report
            for prefix, count in report["flaps"].items():
                flaps[prefix] = flaps.get(prefix, 0) + count
            oscillating.update(report["oscillating"])
            quiescence = max(quiescence, report["time_of_last_change"])
        return {
            "flaps": flaps,
            "oscillating": sorted(oscillating),
            "time_to_quiescence": quiescence,
            "routers": per_router,
        }

    # -- data plane --------------------------------------------------------------

    def trace(self, source: str, destination: str, max_hops: int = 32):
        """Forward a packet from ``source`` toward ``destination``.

        ``destination`` is a dotted-quad address.  Each hop builds its
        FIB from its Loc-RIB and does a longest-prefix match; the next
        hop address resolves to the owning router.  Returns
        ``(outcome, hops)`` where outcome is ``"delivered"``,
        ``"unreachable"`` or ``"loop"``, and ``hops`` is the router
        name sequence starting at ``source``.
        """
        from ..bgp.fib import Fib

        address = parse_ipv4(destination)
        current = source
        hops = [source]
        for _ in range(max_hops):
            daemon = self._routers[current]
            fib = Fib.from_loc_rib(daemon.loc_rib)
            entry = fib.lookup(address)
            if entry is None:
                return "unreachable", hops
            if entry.local:
                return "delivered", hops
            next_router = self._address_owner.get(entry.next_hop)
            if next_router is None or next_router == current:
                return "unreachable", hops
            if next_router in hops:
                hops.append(next_router)
                return "loop", hops
            hops.append(next_router)
            current = next_router
        return "loop", hops

    # -- execution ---------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain in-flight messages; returns events processed."""
        return self.scheduler.run(max_events)
