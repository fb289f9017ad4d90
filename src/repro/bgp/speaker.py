"""The RFC 4271 speaker both vendor daemons are.

§2.1 of the paper: FRRouting and BIRD implement the *same* abstract
BGP machine and differ only in how they represent routes in memory,
which is why the xBGP glue is thin.  :class:`BgpSpeaker` is that
machine — session wiring, the receive path (sequential and batched),
the decision process, the export path with its one export memo,
telemetry/provenance/profiling toggles and the five insertion
points — written once.  :class:`repro.frr.daemon.FrrDaemon` and
:class:`repro.bird.daemon.BirdDaemon` subclass it and supply only
representation, through this **host contract**:

class attributes
    ``implementation``           host name ("frr" / "bird")
    ``route_class``              the :class:`~repro.bgp.rib.RouteView` subclass
    ``host_class``               the xBGP glue (``HostImplementation``)
    ``receive_isolates_writes``  may one decoded attribute object be shared
                                 by the UPDATEs of a batch while a
                                 BGP_RECEIVE_MESSAGE extension is attached?

hooks
    ``_init_representation()``         host-private stores, before the glue is built
    ``_decode_attrs(tlvs)``            ``(flags, code, value)`` triples -> host
                                       attributes
    ``_encode_attrs(route)``           the route's natively encoded attribute
                                       block, from host attributes
    ``_receive_container(attrs)``      what BGP_RECEIVE_MESSAGE sees as ``route``
    ``_received_attrs(container)``     host attributes after that point ran
    ``_validate_origin(prefix, asn)``  native origin validation
    ``_stamp_reflection(route)``       native RFC 4456 attribute stamping
    ``_export_rewrite(route, neighbor, source_ebgp)``
                                       per-session-type attribute rewrite
    ``_share_attrs(route, attrs)``     route carrying ``attrs``, which a memo
                                       shares: never written

Everything else a host needs to answer goes through the
:class:`~repro.bgp.rib.RouteView` accessors, so nothing here asks which
host it is running on.

This module imports :mod:`repro.core`, which imports
:mod:`repro.bgp.peer`; it is therefore imported by module path and not
re-exported from :mod:`repro.bgp`.
"""

from __future__ import annotations

import struct
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.abi import FILTER_ACCEPT, FILTER_REJECT
from ..core.context import ExecutionContext
from ..core.insertion_points import InsertionPoint
from ..core.manifest import Manifest
from ..core.vmm import BlockMemo, VirtualMachineManager, VmmConfig
from ..igp.spf import IgpView
from ..telemetry import Profiler, ProvenanceTracker
from .aspath import AsPath
from .attributes import PathAttribute, make_as_path, make_next_hop, make_origin
from .constants import (
    AttrTypeCode,
    MessageType,
    Origin,
    RouteOriginValidity,
    SessionType,
    WellKnownCommunity,
)
from .decision import (
    DecisionConfig,
    best_route,
    best_route_explained,
    compare_routes,
    compare_routes_explain,
)
from .messages import (
    BgpMessage,
    RouteRefreshMessage,
    UpdateMessage,
    encode_header,
    split_stream,
)
from .peer import Neighbor
from .policy import FilterChain
from .prefix import Prefix, format_ipv4, parse_ipv4
from .rib import AdjRibIn, AdjRibOut, LocRib, RouteView
from .roa import RoaTable

__all__ = ["BgpSpeaker", "NATIVE_ENCODABLE"]

#: Attribute codes a speaker puts on the wire natively.  Codes outside
#: this set stay in the RIB but are *not* encoded — an extension at
#: BGP_ENCODE_MESSAGE must write them (the GeoLoc design of Fig. 2).
NATIVE_ENCODABLE = frozenset(
    {
        AttrTypeCode.ORIGIN,
        AttrTypeCode.AS_PATH,
        AttrTypeCode.NEXT_HOP,
        AttrTypeCode.MULTI_EXIT_DISC,
        AttrTypeCode.LOCAL_PREF,
        AttrTypeCode.ATOMIC_AGGREGATE,
        AttrTypeCode.AGGREGATOR,
        AttrTypeCode.COMMUNITIES,
        AttrTypeCode.ORIGINATOR_ID,
        AttrTypeCode.CLUSTER_LIST,
        AttrTypeCode.LARGE_COMMUNITIES,  # optional transitive, RFC 8092
    }
)

#: Entry cap of the export memo: fits a full-table shard's distinct
#: (attribute set, peer class) pairs; cleared when reached.
_CACHE_CAP = 65536

#: Bytes an attribute blob and its NLRI may fill in one UPDATE: 4,096
#: less the 19-byte header and the two 2-byte length fields.
_BLOB_ROOM = 4096 - 19 - 4

_EBGP = SessionType.EBGP_SESSION


def _no_native() -> int:
    """The default of the points that have no native function."""
    return 0


def _adv_queue() -> Dict[int, Dict[bytes, List[Prefix]]]:
    """peer -> blob -> prefixes; a missing level is made on first use."""
    return defaultdict(lambda: defaultdict(list))


class BgpSpeaker:
    """One router instance; see the module docstring for the host contract.

    Transport agnostic: a harness registers a ``send_fn`` per neighbor
    and feeds received bytes to :meth:`receive_raw`; both the
    discrete-event simulator and the asyncio transport drive it this way.
    """

    implementation: str
    route_class: type
    host_class: type
    receive_isolates_writes = False

    def __init__(
        self,
        asn: int,
        router_id: str,
        local_address: Optional[str] = None,
        route_reflector: Optional[str] = None,
        cluster_id: Optional[str] = None,
        always_compare_med: bool = False,
        nexthop_self: bool = True,
        roa_table: Optional[RoaTable] = None,
        igp: Optional[IgpView] = None,
        xtra: Optional[Dict[str, bytes]] = None,
        vmm_config: Optional[VmmConfig] = None,
        provenance: bool = False,
        profiling: bool = False,
    ):
        if route_reflector not in (None, "native", "extension"):
            raise ValueError(f"bad route_reflector mode {route_reflector!r}")
        self.asn = asn
        self.router_id = parse_ipv4(router_id)
        self.local_address = parse_ipv4(local_address or router_id)
        self.route_reflector = route_reflector
        self.cluster_id = parse_ipv4(cluster_id) if cluster_id else self.router_id
        self.always_compare_med = always_compare_med
        self.nexthop_self = nexthop_self
        #: Validated ROAs; the store's shape (trie / hash) is the host's.
        self.roa_table = roa_table
        self.igp = igp
        self.xtra: Dict[str, bytes] = dict(xtra or {})

        self.neighbors: Dict[int, Neighbor] = {}
        self._send_fns: Dict[int, Callable[[bytes], None]] = {}
        self._established: Dict[int, bool] = {}
        self._rx_buffers: Dict[int, bytearray] = {}

        self.adj_rib_in: AdjRibIn = AdjRibIn()
        self.loc_rib: LocRib = LocRib()
        self.adj_rib_out: AdjRibOut = AdjRibOut()
        self._local_routes: Dict[Prefix, RouteView] = {}

        self.import_chain = FilterChain()
        self.export_chain = FilterChain()

        self.validity_counters: Counter = Counter()
        self.stats: Counter = Counter()
        self._log: List[str] = []
        #: The export memo: (attribute-set key, target is eBGP, source
        #: is eBGP, target rr_client, nexthop_self) -> (rewritten host
        #: attributes, encoded attribute blob).  See _export_route.
        self._export_cache: Dict[tuple, tuple] = {}
        #: What the running sweep has decided to send and not yet sent:
        #: peer -> encoded attribute blob -> prefixes, and peer ->
        #: withdrawn prefixes.  Emptied by _flush_bulk_export.
        self._bulk_adv: Dict[int, Dict[bytes, List[Prefix]]] = _adv_queue()
        self._bulk_wd: Dict[int, List[Prefix]] = {}

        self._init_representation()
        self.host = self.host_class(self)
        self.vmm = VirtualMachineManager(self.host, vmm_config)

        #: The provenance tracker, or None when provenance is off.
        self.provenance: Optional[ProvenanceTracker] = None
        if provenance:
            self.enable_provenance()
        #: The profiler, or None when profiling is off (the default).
        self.profiler: Optional[Profiler] = None
        if profiling:
            self.enable_profiling()

    # -- host contract ----------------------------------------------------

    def _init_representation(self) -> None:
        """Create host-private stores (runs before the glue is built)."""

    def _decode_attrs(self, tlvs: Sequence[Tuple[int, int, bytes]]):
        """``(flags, code, value)`` triples -> host attributes."""
        raise NotImplementedError

    def _encode_attrs(self, route) -> bytes:
        """The wire block of ``route``'s attributes in ``NATIVE_ENCODABLE``
        (default: through the neutral objects)."""
        return b"".join(
            attribute.encode()
            for attribute in route.attribute_list()
            if attribute.type_code in NATIVE_ENCODABLE
        )

    def _receive_container(self, attrs):
        """The object BGP_RECEIVE_MESSAGE extensions see as ``route``.

        Default: the host attributes themselves, written in place — so
        ``receive_isolates_writes`` stays False.
        """
        return attrs

    def _received_attrs(self, container):
        """Host attributes once the BGP_RECEIVE_MESSAGE chain has run."""
        return container

    def _validate_origin(self, prefix: Prefix, origin_asn: int) -> RouteOriginValidity:
        """Native origin validation against ``self.roa_table``."""
        return self.roa_table.validate(prefix, origin_asn)

    def _stamp_reflection(self, route):
        """Native RFC 4456 stamping (ORIGINATOR_ID, CLUSTER_LIST)."""
        raise NotImplementedError

    def _export_rewrite(self, route, neighbor: Neighbor, source_ebgp: bool):
        """AS-path prepend / next-hop / LOCAL_PREF per session type;
        returns host attributes."""
        raise NotImplementedError

    def _share_attrs(self, route, attrs):
        """``route`` carrying ``attrs``, which it shares with a memo and
        every other route rebuilt from it."""
        raise NotImplementedError

    # -- profiling --------------------------------------------------------

    def enable_profiling(self, profiler: Optional[Profiler] = None) -> Profiler:
        """Turn on hotspot + phase profiling.

        Wires a :class:`~repro.telemetry.profiler.Profiler` into the
        VMM (per-extension PC/block counters, helper timing, memory
        watermarks) and arms the pipeline's phase hooks.  Same gating
        discipline as :meth:`enable_provenance`: the VMM rebinds the
        points' step closures with the profiler's timer folded in, and
        :meth:`disable_profiling` rebinds them without it, so the off
        state stays free.
        """
        if profiler is None:
            profiler = Profiler(
                router=format_ipv4(self.router_id),
                implementation=self.implementation,
            )
        self.profiler = profiler
        self.vmm.enable_profiling(profiler)
        return profiler

    def disable_profiling(self) -> None:
        self.profiler = None
        self.vmm.disable_profiling()

    # -- provenance -------------------------------------------------------

    def enable_provenance(
        self, tracker: Optional[ProvenanceTracker] = None
    ) -> ProvenanceTracker:
        """Turn on per-route provenance and causal tracing.

        Installs the tracker on the host glue (VMM + helper hooks) and
        on the Loc-RIB (best-path observer), then rebinds the VMM's
        insertion-point chains: the VMM rebinds the points' step
        closures with the provenance hooks folded in, so they must be
        rebuilt either way the toggle goes.
        """
        if tracker is None:
            tracker = ProvenanceTracker(
                router=format_ipv4(self.router_id),
                implementation=self.implementation,
            )
        self.provenance = tracker
        self.host.provenance = tracker
        self.loc_rib.on_change = tracker.rib_changed
        self.vmm.rebind_all()
        return tracker

    def disable_provenance(self) -> None:
        self.provenance = None
        self.host.provenance = None
        self.loc_rib.on_change = None
        self.vmm.rebind_all()

    # -- wiring -----------------------------------------------------------

    def add_neighbor(
        self,
        peer_address: str,
        peer_asn: int,
        send_fn: Callable[[bytes], None],
        rr_client: bool = False,
    ) -> Neighbor:
        """Configure a neighbor and its outgoing-bytes callback."""
        neighbor = Neighbor.build(
            peer_address,
            peer_asn,
            local_address="0.0.0.0",
            local_asn=self.asn,
            rr_client=rr_client,
        )
        neighbor.local_address = self.local_address
        neighbor.local_router_id = self.router_id
        neighbor.cluster_id = self.cluster_id
        self.neighbors[neighbor.peer_address] = neighbor
        self._send_fns[neighbor.peer_address] = send_fn
        self._established[neighbor.peer_address] = False
        self._rx_buffers[neighbor.peer_address] = bytearray()
        return neighbor

    def session_up(self, peer_address: str) -> None:
        """Mark the session Established and send the full table."""
        address = parse_ipv4(peer_address)
        neighbor = self.neighbors[address]
        neighbor.established = True
        self._established[address] = True
        self._send_table(address)

    def session_down(self, peer_address: str) -> None:
        address = parse_ipv4(peer_address)
        self._established[address] = False
        self.neighbors[address].established = False
        # A partial message dies with the TCP stream that carried it.
        self._rx_buffers[address].clear()
        dropped = self.adj_rib_in.drop_peer(address)
        self.adj_rib_out.drop_peer(address)
        self._sweep([route.prefix for route in dropped])

    def attach_program(self, program) -> None:
        self.vmm.attach_program(program)

    def attach_manifest(self, manifest: Manifest) -> None:
        self.vmm.attach_program(manifest.load())

    def log(self, message: str) -> None:
        self._log.append(message)
        if len(self._log) > 10_000:
            del self._log[:5_000]

    @property
    def log_messages(self) -> List[str]:
        return list(self._log)

    @property
    def telemetry(self):
        """The VMM's telemetry facade (None when disabled)."""
        return self.vmm.telemetry

    def update_telemetry_gauges(self) -> None:
        """Refresh session and RIB-size gauges on the telemetry registry.

        Called before every export (harness snapshot, ``xbgp stats``) so
        scrapes see current control-plane state alongside the VMM's
        execution counters.
        """
        telemetry = self.vmm.telemetry
        if telemetry is None:
            return
        registry = telemetry.registry
        impl = self.implementation
        registry.gauge(
            "xbgp_sessions", "configured BGP sessions", implementation=impl
        ).set(len(self.neighbors))
        registry.gauge(
            "xbgp_sessions_established",
            "sessions in Established state",
            implementation=impl,
        ).set(sum(1 for up in self._established.values() if up))
        for rib_name, rib in (
            ("adj_rib_in", self.adj_rib_in),
            ("loc_rib", self.loc_rib),
            ("adj_rib_out", self.adj_rib_out),
        ):
            registry.gauge(
                "xbgp_rib_routes", "routes per RIB", implementation=impl, rib=rib_name
            ).set(len(rib))

    def igp_metric(self, address: int) -> int:
        if self.igp is None:
            return 0
        return self.igp.metric_to(address)

    # -- local origination ------------------------------------------------

    def originate(
        self,
        prefix: Prefix,
        next_hop: Optional[int] = None,
        attributes: Optional[Sequence[PathAttribute]] = None,
    ) -> None:
        """Install a locally-originated route and advertise it."""
        if attributes is None:
            attributes = [
                make_origin(Origin.IGP),
                make_as_path(AsPath()),
                make_next_hop(next_hop if next_hop else self.local_address),
            ]
        prov = self.provenance
        if prov is not None:
            # Root a fresh trace here: everything this origination
            # triggers — local decision, exports, and the processing on
            # every router the advert reaches — hangs off this span.
            prov.begin_update(None, kind="originate", prefix=str(prefix))
        try:
            tlvs = [(a.flags, a.type_code, a.value) for a in attributes]
            route = self.route_class(prefix, None, self._decode_attrs(tlvs))
            self._local_routes[prefix] = route
            self._sweep((prefix,))
        finally:
            if prov is not None:
                prov.end_update()

    def withdraw_local(self, prefix: Prefix) -> None:
        if self._local_routes.pop(prefix, None) is not None:
            self._sweep((prefix,))

    # -- receive path -----------------------------------------------------

    def receive_raw(self, peer_address: str, data: bytes, parent=None) -> None:
        """Feed raw TCP bytes from a peer (reassembles messages).

        ``parent`` is an optional (trace, span) ref the transport
        shipped with the bytes; the UPDATE span opened while processing
        them adopts it, extending the sender's causal trace here.
        """
        prov = self.provenance
        if prov is not None:
            prov.pending_parent = parent
        try:
            address = parse_ipv4(peer_address)
            buffer = self._rx_buffers[address]
            buffer.extend(data)
            neighbor = self.neighbors[address]
            for message in split_stream(buffer):
                self._receive(neighbor, message)
        finally:
            if prov is not None:
                prov.pending_parent = None

    def receive_message(self, peer_address: str, message: BgpMessage) -> None:
        neighbor = self.neighbors.get(parse_ipv4(peer_address))
        if neighbor is None:
            self.stats["unknown_peer"] += 1
            return
        self._receive(neighbor, message)

    def _receive(self, neighbor: Neighbor, message: BgpMessage) -> None:
        if isinstance(message, UpdateMessage):
            self.process_update_batch(neighbor, (message,))
            return
        self.stats["messages_received"] += 1
        if isinstance(message, RouteRefreshMessage):
            self._process_route_refresh(neighbor)

    def _run_receive_point(self, ctx: ExecutionContext, update: UpdateMessage, attrs):
        """Insertion point 1: BGP_RECEIVE_MESSAGE, on the vector's
        context ``ctx`` — extension code may rewrite the UPDATE's
        attributes before import processing."""
        prof = self.profiler
        started = perf_counter() if prof is not None else 0.0
        container = self._receive_container(attrs)
        ctx.message = update.encode()
        ctx.rebind(container, None)
        self.vmm.run(ctx, _no_native)
        if prof is not None:
            prof.phase("bgp_receive_message", perf_counter() - started)
        return self._received_attrs(container)

    def process_update_batch(
        self, neighbor: Neighbor, updates: Sequence[UpdateMessage]
    ) -> None:
        """The update pipeline: import a vector of UPDATEs from one peer.

        :meth:`receive_message` passes a vector of one,
        :class:`~repro.scale.batch.BatchProcessor` a batch.  What the
        UPDATEs of a vector share is done once:

        - the attribute block is decoded, and checked for an eBGP AS-path
          loop, once per distinct raw attribute wire (a full-table feed
          repeats the same block across consecutive NLRI chunks);
        - the BGP_INBOUND_FILTER dispatch is bound once via
          :meth:`VirtualMachineManager.runner` instead of probed per
          route, its runs share one :class:`ExecutionContext` rebound
          per route, and a chain of block-pure codes runs once per
          attribute set, its outcome and written attributes shared by
          the vector's other routes (native import still runs per
          route: its policies may read the prefix);
        - the decision process runs once per dirty prefix, in one
          :meth:`_sweep` at the end of the vector, whose exports leave
          packed by attribute set.

        Final Adj-RIB-In/Loc-RIB/Adj-RIB-Out state does not depend on
        how a feed is cut into vectors; only transient downstream
        traffic collapses (an announce superseded within the same
        vector is never advertised).  Known defect: a peer-field write
        (``rr_client``, ``cluster_id``) re-exports nothing, so what a
        peer holds afterwards depends on which later UPDATEs touch each
        prefix, and so on how the feed is cut.
        """
        prov = self.provenance
        prof = self.profiler
        decode = self._decode_attrs
        receive_hot = not self.vmm.active(InsertionPoint.BGP_RECEIVE_MESSAGE)
        receive_ctx = (
            None if receive_hot
            else ExecutionContext(InsertionPoint.BGP_RECEIVE_MESSAGE, neighbor=neighbor)
        )
        import_run = self.vmm.runner(InsertionPoint.BGP_INBOUND_FILTER)
        import_ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER, neighbor=neighbor)
        native_import = partial(self._native_import, import_ctx)
        # Only a keyed chain (block-pure, no provenance) uses a memo.
        memo = BlockMemo(self._share_attrs) if import_run.keyed else None
        peer_address = neighbor.peer_address
        withdraw = self.adj_rib_in.withdraw
        # A BGP_RECEIVE_MESSAGE extension may write to the decoded
        # object, so sharing it across UPDATEs is only sound when that
        # point is empty or the host's container isolates the writes.
        # Values: (decoded attributes, eBGP loop check or False while
        # that point may still rewrite them).
        attr_memo: Optional[Dict[bytes, tuple]] = (
            {} if receive_hot or self.receive_isolates_writes else None
        )
        dirty: Dict[Prefix, None] = {}  # ordered set
        if prov is not None:
            prefixes = sum(len(u.nlri) for u in updates)
            withdrawn = sum(len(u.withdrawn) for u in updates)
            if prefixes or withdrawn:
                prov.begin_update(neighbor, prefixes=prefixes, withdrawn=withdrawn)
            else:
                prov = None  # End-of-RIB markers only: nothing to explain
        try:
            for update in updates:
                self.stats["messages_received"] += 1
                if update.is_end_of_rib():
                    self.stats["eor_received"] += 1
                    continue

                started = perf_counter() if prof is not None else 0.0
                wire = update._attrs_wire if attr_memo is not None else None
                block = attr_memo.get(wire) if wire is not None else None
                if block is None:
                    attrs = decode(update.tlvs())
                    block = (attrs, receive_hot and self._looped(neighbor, attrs))
                    if wire is not None:
                        attr_memo[wire] = block
                attrs, looped = block
                if prof is not None:
                    prof.phase("decode", perf_counter() - started)

                if not receive_hot:
                    attrs = self._run_receive_point(receive_ctx, update, attrs)
                    looped = self._looped(neighbor, attrs)

                for prefix in update.withdrawn:
                    if withdraw(peer_address, prefix) is not None:
                        dirty[prefix] = None
                        if prov is not None:
                            prov.record_withdraw(prefix, neighbor)

                for prefix in update.nlri:
                    started = perf_counter() if prof is not None else 0.0
                    imported = self._import_route(
                        import_ctx, native_import, prefix, attrs, looped, import_run, memo
                    )
                    if prof is not None:
                        prof.phase("bgp_inbound_filter", perf_counter() - started)
                    if imported:
                        dirty[prefix] = None

            self._sweep(dirty)
        finally:
            if prov is not None:
                prov.end_update()

    def _looped(self, neighbor: Neighbor, attrs) -> bool:
        """Mandatory RFC 4271 sanity, a function of the attribute block:
        does an eBGP route carrying ``attrs`` loop through our AS?"""
        return neighbor.is_ebgp() and self.route_class(None, neighbor, attrs).path_contains(self.asn)

    def _import_route(
        self, ctx: ExecutionContext, native, prefix: Prefix, attrs, looped: bool, run, memo
    ) -> bool:
        """Run import processing for one NLRI of a block whose loop check
        said ``looped``: through ``run``, the bound BGP_INBOUND_FILTER
        dispatch, on the vector's context ``ctx`` with ``native`` (the
        native import bound to it) and the vector's ``memo``; returns
        True if the RIB changed."""
        neighbor = ctx.neighbor
        prov = self.provenance
        if prov is not None:
            prov.begin_route(prefix, neighbor)
        if looped:
            self.stats["loop_rejected"] += 1
            if prov is not None:
                prov.record_filter(prefix, "loop_rejected")
            return self._treat_as_withdraw(neighbor, prefix)

        # Insertion point 2: BGP_INBOUND_FILTER.
        route = self.route_class(prefix, neighbor, attrs)
        ctx.rebind(route, prefix)
        key = route.attrs_key() if memo is not None else None
        verdict = run(ctx, native, memo, key)
        route = ctx.route  # may have been rewritten copy-on-write

        if verdict == FILTER_REJECT:
            self.stats["import_rejected"] += 1
            if prov is not None:
                prov.record_filter(prefix, "import_rejected")
            return self._treat_as_withdraw(neighbor, prefix)

        # Native origin validation.  Validity is recorded, never used
        # to discard — §3.4 methodology.
        if self.roa_table is not None and neighbor.is_ebgp():
            validity = self._validate_origin(prefix, route.origin_asn())
            route.validity = validity
            self.validity_counters[RouteOriginValidity(validity).name] += 1

        self.adj_rib_in.update(neighbor.peer_address, route)
        return True

    def _native_import(self, ctx: ExecutionContext) -> int:
        """Native import processing (the VMM default)."""
        route = ctx.route
        neighbor = ctx.neighbor

        # Native route-reflection import checks (RFC 4456 §8) only when
        # the host implements RR itself.
        if self.route_reflector == "native" and neighbor.is_ibgp():
            if route.originator_id() == self.router_id:
                return FILTER_REJECT
            if self.cluster_id in route.cluster_list():
                return FILTER_REJECT

        filtered = self.import_chain.evaluate(route, neighbor)
        if filtered is None:
            return FILTER_REJECT
        ctx.route = filtered
        return FILTER_ACCEPT

    def _treat_as_withdraw(self, neighbor: Neighbor, prefix: Prefix) -> bool:
        return self.adj_rib_in.withdraw(neighbor.peer_address, prefix) is not None

    def _process_route_refresh(self, neighbor: Neighbor) -> None:
        """RFC 2918: resend our full Adj-RIB-Out for this peer."""
        self.stats["route_refresh_received"] += 1
        self._send_table(neighbor.peer_address)

    # -- decision process -------------------------------------------------

    def _sweep(
        self,
        prefixes: Iterable[Prefix],
        peers: Optional[Sequence[int]] = None,
        decide: bool = True,
    ) -> None:
        """One decision sweep: where everything that changes what this
        speaker advertises ends (UPDATE vector, session up/down, route
        refresh, local origination and withdrawal).

        Re-selects the best path of each prefix and exports those whose
        Loc-RIB entry changed; with ``decide`` off, re-exports the
        standing best paths (to ``peers`` only, when given).  What the
        prefixes share is resolved once: the decision configuration,
        the Established targets, the BGP_OUTBOUND_FILTER dispatch with
        its context and its memo, where a block-pure chain's outcome is
        kept per (attribute set, source, target) and native RFC 4456
        stamping per (attribute set, source), and the
        BGP_ENCODE_MESSAGE context.
        Nothing is sent before :meth:`_flush_bulk_export` — in
        ``finally``, so a sweep that raises still puts on the wire what
        Adj-RIB-Out already recorded.
        """
        established = self._established
        targets = [
            self.neighbors[address]
            for address in (self.neighbors if peers is None else peers)
            if established.get(address)
        ]
        config = DecisionConfig(
            always_compare_med=self.always_compare_med,
            igp_metric=self.igp.metric_to if self.igp is not None else None,
        )
        export_run = self.vmm.runner(InsertionPoint.BGP_OUTBOUND_FILTER)
        memo = None
        if export_run.keyed or self.route_reflector == "native":
            memo = BlockMemo(self._share_attrs)
        export_filter = self._export_filter(export_run, memo)
        encode_ctx = None
        if self.vmm.active(InsertionPoint.BGP_ENCODE_MESSAGE):
            encode_ctx = ExecutionContext(InsertionPoint.BGP_ENCODE_MESSAGE)
        try:
            for prefix in prefixes:
                if not decide or self._run_decision(prefix, config):
                    self._export_to(prefix, targets, export_filter, encode_ctx)
        finally:
            self._flush_bulk_export()

    def _select_best(
        self, candidates: List[RouteView], config: DecisionConfig
    ) -> Optional[RouteView]:
        if not candidates:
            return None
        prov = self.provenance
        if self.vmm.active(InsertionPoint.BGP_DECISION):
            run = self.vmm.runner(InsertionPoint.BGP_DECISION)
            ctx = ExecutionContext(InsertionPoint.BGP_DECISION)
            step_note: Dict[str, str] = {}

            def native() -> int:
                """Compare the pair the loop below is at."""
                if prov is None:
                    return 1 if compare_routes(candidate, best, config) < 0 else 2
                # When explaining, the native default notes which RFC
                # 4271 ladder step decided — absent that note, the
                # verdict came from the extension chain.
                verdict, step = compare_routes_explain(candidate, best, config)
                step_note["step"] = step
                return 1 if verdict < 0 else 2

            best = candidates[0]
            for candidate in candidates[1:]:
                ctx.rebind(candidate, candidate.prefix, best)
                step_note.clear()
                picked_new = run(ctx, native) == 1
                if prov is not None:
                    winner, loser = (
                        (candidate, best) if picked_new else (best, candidate)
                    )
                    prov.record_elimination(
                        candidate.prefix,
                        step_note.get("step", "extension"),
                        loser,
                        winner,
                        by="native" if "step" in step_note else "extension",
                    )
                if picked_new:
                    best = candidate
            return best
        if prov is not None:
            if len(candidates) == 1:
                prov.record_elimination(
                    candidates[0].prefix, "only_candidate", None, candidates[0]
                )
                return candidates[0]
            prefix = candidates[0].prefix
            return best_route_explained(
                candidates,
                config,
                on_step=lambda step, eliminated, kept: prov.record_elimination(
                    prefix, step, eliminated, kept
                ),
            )
        return best_route(candidates, config)

    def _run_decision(self, prefix: Prefix, config: DecisionConfig) -> bool:
        """Re-select ``prefix``'s best path; True if the Loc-RIB changed."""
        candidates = self.adj_rib_in.candidates(prefix)
        local = self._local_routes.get(prefix)
        if local is not None:
            candidates.append(local)
        prov = self.provenance
        prof = self.profiler
        phase = prov.begin_phase("decision", prefix) if prov is not None else None
        if prof is not None:
            started = perf_counter()
            best = self._select_best(candidates, config)
            prof.phase("bgp_decision", perf_counter() - started)
        else:
            best = self._select_best(candidates, config)
        previous = self.loc_rib.lookup(prefix)
        if best is previous:
            if phase is not None:
                prov.end_phase(phase, changed=False)
            return False
        if best is None:
            self.loc_rib.remove(prefix)
        else:
            self.loc_rib.install(best)
        if phase is not None:
            prov.end_phase(phase, changed=True)
        return True

    # -- export path ------------------------------------------------------

    def _export_prefix(
        self, prefix: Prefix, only_peers: Optional[Sequence[int]] = None
    ) -> None:
        """Re-evaluate what is advertised for ``prefix`` (e.g. after an
        IGP event changed what an export filter would say)."""
        self._sweep((prefix,), only_peers, decide=False)

    def _send_table(self, address: int) -> None:
        """The full Adj-RIB-Out for one peer, then End-of-RIB."""
        self._sweep(list(self.loc_rib.prefixes()), (address,), decide=False)
        self._send_update(address, UpdateMessage.end_of_rib())

    def _export_to(
        self, prefix: Prefix, targets: List[Neighbor], export_filter, encode_ctx
    ) -> None:
        """Decide, per target, what ``prefix``'s best path becomes on
        that session, through the sweep's ``export_filter`` and, if the
        point is active, its BGP_ENCODE_MESSAGE context."""
        prov = self.provenance
        prof = self.profiler
        phase = prov.begin_phase("export", prefix) if prov is not None else None
        best = self.loc_rib.lookup(prefix)
        for neighbor in targets:
            address = neighbor.peer_address
            if best is None:
                self._withdraw_from(neighbor, prefix)
                continue
            if best.source is not None and best.source.peer_address == address:
                # Never advertise a route back to the peer it came from.
                self._withdraw_from(neighbor, prefix)
                continue
            started = perf_counter() if prof is not None else 0.0
            export_route = export_filter(best, neighbor)
            if prof is not None:
                prof.phase("bgp_outbound_filter", perf_counter() - started)
            if export_route is None:
                if prov is not None:
                    prov.record_export(prefix, address, "suppress")
                self._withdraw_from(neighbor, prefix)
                continue
            started = perf_counter() if prof is not None else 0.0
            sent, blob = self._export_route(export_route, neighbor, encode_ctx)
            if prof is not None:
                prof.phase("bgp_encode_message", perf_counter() - started)
            if len(blob) > _BLOB_ROOM - 5 and len(blob) + len(prefix.encode()) > _BLOB_ROOM:
                # Not even alone in an UPDATE does it fit: suppressed.
                self.stats["export_oversize"] += 1
                if prov is not None:
                    prov.record_export(prefix, address, "suppress")
                self._withdraw_from(neighbor, prefix)
                continue
            self.adj_rib_out.advertise(address, sent)
            self._bulk_adv[address][blob].append(prefix)
            if prov is not None:
                prov.record_export(prefix, address, "advertise")
        if phase is not None:
            prov.end_phase(phase)

    def _export_filter(self, run, memo) -> Callable:
        """Insertion point 4 for one sweep: ``export_filter(route,
        neighbor)``, the route to send or None, runs ``run`` — the bound
        BGP_OUTBOUND_FILTER dispatch — around native export on one
        context, with the sweep's ``memo``."""
        ctx = ExecutionContext(InsertionPoint.BGP_OUTBOUND_FILTER)
        native = partial(self._native_export, ctx, memo)
        keyed = run.keyed
        stats = self.stats

        def export_filter(route, neighbor: Neighbor):
            ctx.neighbor = neighbor
            ctx.rebind(route, route.prefix)
            key = (route.attrs_key(), route.source, neighbor) if keyed else None
            if run(ctx, native, memo, key) == FILTER_REJECT:
                stats["export_rejected"] += 1
                return None
            return ctx.route

        return export_filter

    def _native_export(self, ctx: ExecutionContext, memo: Optional[BlockMemo]) -> int:
        route = ctx.route
        neighbor = ctx.neighbor
        source = route.source

        if source is not None and source.is_ibgp() and neighbor.is_ibgp():
            if self.route_reflector == "native":
                # Reflect client routes to everyone, non-client routes
                # to clients only (RFC 4456 §6).
                if not (source.rr_client or neighbor.rr_client):
                    return FILTER_REJECT
                key = (route.attrs_key(), source)
                stamped = memo.get(key)
                if stamped is None:
                    stamped = memo[key] = self._stamp_reflection(route).attrs
                route = ctx.route = self._share_attrs(route, stamped)
            elif self.route_reflector == "extension":
                # Host is RR-unaware: relaxed split horizon; the
                # extension outbound code is responsible for loop
                # prevention and attribute stamping.
                pass
            else:
                return FILTER_REJECT  # classic iBGP split horizon

        communities = route.communities()
        if communities:
            if WellKnownCommunity.NO_ADVERTISE in communities:
                return FILTER_REJECT
            if WellKnownCommunity.NO_EXPORT in communities and neighbor.is_ebgp():
                return FILTER_REJECT

        filtered = self.export_chain.evaluate(route, neighbor)
        if filtered is None:
            return FILTER_REJECT
        ctx.route = filtered
        return FILTER_ACCEPT

    def _export_route(self, route, neighbor: Neighbor, encode_ctx: Optional[ExecutionContext]):
        """(route as sent to ``neighbor``, its encoded attribute blob);
        ``encode_ctx`` is the sweep's BGP_ENCODE_MESSAGE context, None
        while nothing is attached there.

        Export mechanics (AS-path prepend / next-hop / LOCAL_PREF per
        session type), then native encoding plus BGP_ENCODE_MESSAGE
        bytes: pure functions of the key, which heavy attribute sharing
        repeats across thousands of routes, so the speaker memoises
        (rewritten attributes, blob) and a hit is one lookup.  Encode
        extensions run on a miss only, so they must be deterministic in
        (attribute set, peer class) — true for the shipped GeoLoc
        encoder and anything derived only from attributes and peer info.
        """
        source = route.source
        source_ebgp = source is not None and source.session_type is _EBGP
        key = (
            route.attrs_key(),
            neighbor.session_type is _EBGP,
            source_ebgp,
            neighbor.rr_client,
            self.nexthop_self,
        )
        cache = self._export_cache
        hit = cache.get(key)
        if hit is not None:
            return self._share_attrs(route, hit[0]), hit[1]

        attrs = self._export_rewrite(route, neighbor, source_ebgp)
        sent = self._share_attrs(route, attrs)
        blob = self._encode_attrs(sent)
        if encode_ctx is not None:
            out_buffer = encode_ctx.out_buffer = bytearray()
            encode_ctx.neighbor = neighbor
            encode_ctx.rebind(sent, sent.prefix)
            self.vmm.run(encode_ctx, _no_native)
            blob += bytes(out_buffer)
        if len(cache) >= _CACHE_CAP:
            cache.clear()
        cache[key] = (attrs, blob)
        return sent, blob

    def _withdraw_from(self, neighbor: Neighbor, prefix: Prefix) -> None:
        if self.adj_rib_out.withdraw(neighbor.peer_address, prefix) is None:
            return
        if self.provenance is not None:
            self.provenance.record_export(prefix, neighbor.peer_address, "withdraw")
        self._bulk_wd.setdefault(neighbor.peer_address, []).append(prefix)

    def _flush_bulk_export(self) -> None:
        """Emit what the sweep queued, packed.

        Advertisements to one peer sharing one encoded attribute blob
        leave as multi-NLRI UPDATEs, chunked to the 4096-byte wire
        ceiling; withdrawals coalesce likewise and go first.  A sweep
        decides each prefix once, so no prefix is in both.  Packing is
        framing only: the per-prefix content is what each route's own
        filter runs and encode produced.
        """
        adv, wd = self._bulk_adv, self._bulk_wd
        self._bulk_adv, self._bulk_wd = _adv_queue(), {}
        for peer_address, prefixes in wd.items():
            for start in range(0, len(prefixes), 512):
                chunk = prefixes[start : start + 512]
                self._send_packed(
                    peer_address, UpdateMessage(withdrawn=chunk).encode(), chunk
                )
        for peer_address, groups in adv.items():
            for blob, prefixes in groups.items():
                head = struct.pack("!HH", 0, len(blob)) + blob
                # _export_to queued only blobs one NLRI fits beside.
                room = max(1, (_BLOB_ROOM - len(blob)) // 5)
                for start in range(0, len(prefixes), room):
                    chunk = prefixes[start : start + room]
                    nlri = b"".join(prefix.encode() for prefix in chunk)
                    self._send_packed(
                        peer_address,
                        encode_header(MessageType.UPDATE, head + nlri),
                        chunk,
                    )

    def _send_packed(self, peer_address: int, data: bytes, prefixes) -> None:
        """Send one packed UPDATE.  With provenance on it gets a
        ``send`` span naming the prefixes it carries, which is what the
        link ships as the downstream UPDATE's causal parent."""
        prov = self.provenance
        if prov is None:
            self._send_raw(peer_address, data)
        else:
            span = prov.begin_phase(
                "send",
                peer=format_ipv4(peer_address),
                prefixes=[str(prefix) for prefix in prefixes],
            )
            self._send_raw(peer_address, data)
            prov.end_phase(span)
        self.stats["updates_sent"] += 1

    def _send_update(self, peer_address: int, update: UpdateMessage) -> None:
        self._send_raw(peer_address, update.encode())
        self.stats["updates_sent"] += 1

    def _send_raw(self, peer_address: int, data: bytes) -> None:
        send_fn = self._send_fns.get(peer_address)
        if send_fn is not None:
            send_fn(data)

    # -- introspection ----------------------------------------------------

    def loc_rib_snapshot(self) -> Dict[Prefix, List[PathAttribute]]:
        """Prefix -> neutral attribute list, for cross-host equivalence tests."""
        return {
            route.prefix: sorted(route.attribute_list(), key=lambda a: a.type_code)
            for route in self.loc_rib.routes()
        }
