"""An executable RFC 4271 model of the Fig. 3 DUT: the host oracle's judge.

§2.1 of the paper says FRRouting and BIRD implement the *same* abstract
BGP machine.  :class:`ReferenceDut` is that machine written a second
time, as plainly as it can be: dict RIBs, one NLRI per UPDATE, no
caches, no packing, no VM.  The extension codes the host oracle
attaches are modelled as what they compute — ``route_reflector``: RFC
4456 loop checks on import, and on export the reflection decision plus
ORIGINATOR_ID / CLUSTER_LIST stamping, a verdict the host's native
export does not revisit; ``geoloc``: tag eBGP-learned routes with this
router's site, drop routes stamped too far away, strip the tag towards
eBGP, put it on the wire towards iBGP; ``origin_validation``: counts
each eBGP route's RFC 6811 validity, never changes a route.  Peer-field
writes (``rr_client``, ``cluster_id``) take effect at the event that
makes them.

It imports the codec only, never the speaker, its RIBs, decision
process or policies, the daemons, their glue, :mod:`repro.core` or the
plugins: a fault in any of those cannot hide by being shared with the
judge.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..bgp.aspath import AsPath
from ..bgp.attributes import PathAttribute
from ..bgp.constants import AsPathSegmentType, AttrTypeCode, MessageType, WellKnownCommunity
from ..bgp.messages import UpdateMessage, encode_header, split_stream
from ..bgp.prefix import Prefix, parse_ipv4

__all__ = ["MAX_ATTRS_PER_NLRI", "Peer", "ReferenceDut"]

ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF = 1, 2, 3, 4, 5
COMMUNITIES, ORIGINATOR_ID, CLUSTER_LIST = 8, 9, 10
GEOLOC = int(AttrTypeCode.GEOLOC)

#: Codes a host encodes itself; anything else reaches the wire only
#: through an encode extension.
_HOST_ENCODED = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 32})
#: Room for the attribute block and one NLRI in a 4,096-byte UPDATE:
#: less the 19-byte header and the two 2-byte length fields.
MAX_ATTRS_PER_NLRI = 4096 - 19 - 4
#: GeoLoc's import radius, 5,000 km, in its squared 1e-4-degree units.
_GEOLOC_RANGE_SQ = int((5000 / 111.0 * 10_000.0) ** 2)
_ONE_HOP = (AsPathSegmentType.AS_SET, AsPathSegmentType.AS_CONFED_SET)


def _u32(value: int) -> bytes:
    return struct.pack("!I", value)


def _attr_u32(attrs: Dict[int, PathAttribute], code: int, absent: int) -> int:
    attribute = attrs.get(code)
    return struct.unpack("!I", attribute.value)[0] if attribute is not None else absent


def _segments(attrs: Dict[int, PathAttribute]):
    attribute = attrs.get(AS_PATH)
    return AsPath.decode(attribute.value).segments if attribute is not None else ()


class Peer:
    """One configured neighbor; its fields may be written at any event."""

    __slots__ = ("address", "asn", "ibgp", "rr_client", "cluster_id")

    def __init__(self, address: int, asn: int, ibgp: bool, rr_client: bool, cluster_id: int):
        self.address = address
        self.asn = asn
        self.ibgp = ibgp
        self.rr_client = rr_client
        self.cluster_id = cluster_id


class _Route:
    """A received route; a new object per announcement (identity is news)."""

    __slots__ = ("prefix", "peer", "attrs")

    def __init__(self, prefix: Prefix, peer: Peer, attrs: Dict[int, PathAttribute]):
        self.prefix = prefix
        self.peer = peer
        self.attrs = attrs

    def ladder(self, compare_med: bool) -> tuple:
        """RFC 4271 §9.1.2.2 (plus RFC 4456 §9) as a key: lower wins.
        The Fig. 3 DUT has no IGP, so the IGP-metric step ties."""
        attrs = self.attrs
        hops = sum(
            1 if segment.kind in _ONE_HOP else len(segment.asns)
            for segment in _segments(attrs)
        )
        origin = attrs.get(ORIGIN)
        return (
            -_attr_u32(attrs, LOCAL_PREF, 100),
            hops,
            origin.value[0] if origin is not None else 2,
            _attr_u32(attrs, MED, 0) if compare_med else 0,
            self.peer.ibgp,
            _attr_u32(attrs, ORIGINATOR_ID, self.peer.address),
            len(attrs[CLUSTER_LIST].value) // 4 if CLUSTER_LIST in attrs else 0,
            self.peer.address,
        )


class ReferenceDut:
    """The DUT: AS ``asn``, router id = local address, next-hop-self on,
    ``plugin`` (None or a paper plugin name) attached as extension code,
    ``coord`` its site (the testbed's default when None), ``roas`` what
    origin validation checks against."""

    def __init__(
        self,
        plugin: Optional[str] = None,
        asn: int = 65001,
        router_id: str = "10.0.0.1",
        coord: Optional[Tuple[float, float]] = None,
        roas=(),
    ):
        self.plugin = plugin
        self.roas = roas
        #: Validity name -> eBGP routes imported with it.
        self.validity: Dict[str, int] = (
            dict.fromkeys(("VALID", "NOT_FOUND", "INVALID"), 0)
            if plugin == "origin_validation"
            else {}
        )
        self.asn = asn
        self.router_id = parse_ipv4(router_id)
        latitude, longitude = coord or (50.85, 4.35)
        self.coord = struct.pack(
            "!ii", round(latitude * 10_000_000), round(longitude * 10_000_000)
        )
        self.peers: Dict[int, Peer] = {}
        self.adj_rib_in: Dict[int, Dict[Prefix, _Route]] = {}
        self.loc_rib: Dict[Prefix, _Route] = {}
        #: peer -> prefix -> the attributes advertised, in code order.
        self.adj_rib_out: Dict[int, Dict[Prefix, List[PathAttribute]]] = {}
        #: peer -> the UPDATEs sent to it, one NLRI or withdrawal each.
        self.sent: Dict[int, List[bytes]] = {}
        #: Exports suppressed because one NLRI and its attributes do not
        #: fit in a 4,096-byte UPDATE.
        self.oversize = 0
        self._buffers: Dict[int, bytearray] = {}

    def add_peer(self, address: str, asn: int, rr_client: bool = False) -> Peer:
        peer = Peer(parse_ipv4(address), asn, asn == self.asn, rr_client, self.router_id)
        self.peers[peer.address] = peer
        self._buffers[peer.address] = bytearray()
        self.adj_rib_out[peer.address] = {}
        self.sent[peer.address] = []
        return peer

    def receive(self, address: str, data: bytes) -> None:
        """Bytes from a peer; each complete UPDATE is processed in turn."""
        peer = self.peers[parse_ipv4(address)]
        buffer = self._buffers[peer.address]
        buffer.extend(data)
        for message in split_stream(buffer):
            if isinstance(message, UpdateMessage):
                self._update(peer, message)

    # -- receive, import, decide ------------------------------------------

    def _update(self, peer: Peer, update: UpdateMessage) -> None:
        attrs = {attribute.type_code: attribute for attribute in update.attributes}
        if self.plugin == "geoloc" and not peer.ibgp and GEOLOC not in attrs:
            attrs[GEOLOC] = PathAttribute(0xC0, GEOLOC, self.coord)
        table = self.adj_rib_in.get(peer.address, {})
        changed: Dict[Prefix, None] = {}
        for prefix in update.withdrawn:
            if table.pop(prefix, None) is not None:
                changed[prefix] = None
        for prefix in update.nlri:
            if self._accepts(peer, prefix, attrs):
                table = self.adj_rib_in.setdefault(peer.address, table)
                table[prefix] = _Route(prefix, peer, attrs)
                changed[prefix] = None
            elif table.pop(prefix, None) is not None:
                changed[prefix] = None
        for prefix in changed:
            self._decide(prefix)

    def _accepts(self, peer: Peer, prefix: Prefix, attrs: Dict[int, PathAttribute]) -> bool:
        if not peer.ibgp and any(self.asn in s.asns for s in _segments(attrs)):
            return False  # AS_PATH loop
        if self.plugin == "origin_validation" and not peer.ibgp and AS_PATH in attrs:
            self.validity[self._rov(prefix, attrs)] += 1
        if self.plugin == "route_reflector" and peer.ibgp:
            if _attr_u32(attrs, ORIGINATOR_ID, 0) == self.router_id:
                return False
            clusters = attrs[CLUSTER_LIST].value if CLUSTER_LIST in attrs else b""
            whole = clusters[: len(clusters) - len(clusters) % 4]
            if (peer.cluster_id,) in struct.iter_unpack("!I", whole):
                return False
        if self.plugin == "geoloc" and GEOLOC in attrs:
            stamp = struct.unpack("!ii", attrs[GEOLOC].value)
            here = struct.unpack("!ii", self.coord)
            d_lat, d_lon = (abs(a - b) // 1000 for a, b in zip(stamp, here))
            return d_lat * d_lat + d_lon * d_lon <= _GEOLOC_RANGE_SQ
        return True

    def _rov(self, prefix: Prefix, attrs: Dict[int, PathAttribute]) -> str:
        """RFC 6811 as the ROV code computes it: the origin is the last
        AS of the last non-empty AS_SEQUENCE; ROAs under /8 are unseen."""
        sequences = [
            s.asns for s in _segments(attrs) if s.kind == AsPathSegmentType.AS_SEQUENCE and s.asns
        ]
        origin = sequences[-1][-1] if sequences else 0
        covering = [r for r in self.roas if r.prefix.length >= 8 and r.prefix.contains(prefix)]
        if any(r.asn == origin != 0 and prefix.length <= r.max_length for r in covering):
            return "VALID"
        return "INVALID" if covering else "NOT_FOUND"

    def _decide(self, prefix: Prefix) -> None:
        best: Optional[_Route] = None
        for table in self.adj_rib_in.values():
            route = table.get(prefix)
            if route is None:
                continue
            same_as = best is not None and route.peer.asn == best.peer.asn
            if best is None or route.ladder(same_as) < best.ladder(same_as):
                best = route
        if best is self.loc_rib.get(prefix):
            return
        if best is None:
            del self.loc_rib[prefix]
        else:
            self.loc_rib[prefix] = best
        for peer in self.peers.values():
            self._export(prefix, best, peer)

    # -- export -------------------------------------------------------------

    def _export(self, prefix: Prefix, best: Optional[_Route], peer: Peer) -> None:
        table = self.adj_rib_out[peer.address]
        attrs = self._outbound(best, peer) if best is not None and best.peer is not peer else None
        if attrs is not None:
            attrs, blob = self._rewrite(best, peer, attrs)
            nlri = prefix.encode()
            if len(blob) + len(nlri) <= MAX_ATTRS_PER_NLRI:
                table[prefix] = attrs
                body = struct.pack("!HH", 0, len(blob)) + blob + nlri
                self.sent[peer.address].append(encode_header(MessageType.UPDATE, body))
                return
            self.oversize += 1
        if table.pop(prefix, None) is not None:
            self.sent[peer.address].append(UpdateMessage(withdrawn=[prefix]).encode())

    def _outbound(self, route: _Route, peer: Peer) -> Optional[Dict[int, PathAttribute]]:
        """The outbound filter: the plugin's code, then (unless the code
        decided) RFC 4271 split horizon and the RFC 1997 communities."""
        attrs, source = route.attrs, route.peer
        if self.plugin == "route_reflector" and peer.ibgp and source.ibgp:
            if not (source.rr_client or peer.rr_client):
                return None
            attrs = dict(attrs)
            if ORIGINATOR_ID not in attrs:
                attrs[ORIGINATOR_ID] = PathAttribute(0x80, ORIGINATOR_ID, _u32(source.address))
            clusters = attrs[CLUSTER_LIST].value[:100] if CLUSTER_LIST in attrs else b""
            attrs[CLUSTER_LIST] = PathAttribute(0x80, CLUSTER_LIST, _u32(peer.cluster_id) + clusters)
            return attrs
        if self.plugin == "geoloc" and not peer.ibgp and GEOLOC in attrs:
            attrs = {code: a for code, a in attrs.items() if code != GEOLOC}
        if source.ibgp and peer.ibgp:
            return None
        tags = attrs.get(COMMUNITIES)
        values = {v for (v,) in struct.iter_unpack("!I", tags.value)} if tags else ()
        if WellKnownCommunity.NO_ADVERTISE in values:
            return None
        if WellKnownCommunity.NO_EXPORT in values and not peer.ibgp:
            return None
        return attrs

    def _rewrite(self, route: _Route, peer: Peer, attrs) -> Tuple[List[PathAttribute], bytes]:
        """Per-session-type rewrite, then the encoded attribute block."""
        attrs = dict(attrs)
        own_next_hop = PathAttribute(0x40, NEXT_HOP, _u32(self.router_id))
        if not peer.ibgp:
            segments = [(int(s.kind), s.asns) for s in _segments(attrs)]
            if segments and segments[0][0] == AsPathSegmentType.AS_SEQUENCE and len(segments[0][1]) < 255:
                segments[0] = (segments[0][0], (self.asn,) + segments[0][1])
            else:
                segments.insert(0, (int(AsPathSegmentType.AS_SEQUENCE), (self.asn,)))
            value = b"".join(
                bytes((kind, len(asns))) + b"".join(map(_u32, asns)) for kind, asns in segments
            )
            attrs[AS_PATH] = PathAttribute(0x40, AS_PATH, value)
            attrs[NEXT_HOP] = own_next_hop
            attrs.pop(LOCAL_PREF, None)
            attrs.pop(MED, None)
        else:
            attrs.setdefault(LOCAL_PREF, PathAttribute(0x40, LOCAL_PREF, _u32(100)))
            if not route.peer.ibgp:
                attrs[NEXT_HOP] = own_next_hop
        ordered = [attrs[code] for code in sorted(attrs)]
        blob = b"".join(a.encode() for a in ordered if a.type_code in _HOST_ENCODED)
        geoloc = attrs.get(GEOLOC)
        if self.plugin == "geoloc" and peer.ibgp and geoloc is not None and len(geoloc.value) <= 255:
            blob += bytes((geoloc.flags, GEOLOC, len(geoloc.value))) + geoloc.value
        return ordered, blob
