"""The Fig. 3 testbed, written once: spec → DUT → feed.

The paper measures everything on one testbed (§3, Fig. 3: upstream →
DUT → downstream; the arms differ only in how the DUT implements the
feature).  :class:`RunSpec` describes a run, :data:`FEATURES` says what
each experiment configures and attaches, :func:`build_scale_daemon`
builds and wires the DUT, :func:`build_feed` encodes the upstream's
stream.  The harness, the shard workers, the fuzz host oracle, the CLI
and the repo benchmark all go through them; replaying the feed
(``repro.scale.replay_feed``) lives one layer up, beside
``BatchProcessor``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from ..bgp.messages import UpdateMessage, split_stream
from ..bgp.prefix import parse_ipv4
from ..bgp.roa import HashRoaTable, Roa, TrieRoaTable
from ..bird.daemon import BirdDaemon
from ..core.vmm import VmmConfig
# ``ebpf.vm`` imports the compiled tier on the first attach; loading it
# here keeps that out of every timed DUT build (forked shard workers
# inherit the whole host stack with this module).
from ..ebpf import native as _compiled_tier  # noqa: F401
from ..frr.daemon import FrrDaemon
from ..plugins import (
    closest_exit,
    faulty,
    geoloc,
    origin_validation,
    pynative,
    route_reflector,
    valley_free,
)
from ..telemetry.health import QuarantinePolicy
from ..workload.rib_gen import RouteSpec, build_updates

__all__ = [
    "Collector",
    "DAEMONS",
    "ENGINES",
    "FEATURES",
    "RunSpec",
    "build_dut",
    "build_feed",
    "build_scale_daemon",
    "normalise_snapshot",
    "wire_dut",
]

#: The one host registry: implementation name -> daemon class.
DAEMONS = {"frr": FrrDaemon, "bird": BirdDaemon}

#: How an extension arm runs: a bytecode tier, or the plugin as host
#: Python (``pyext``, attached on the default tier's VMM).
ENGINES = ("jit", "interp", "pyext")

UPSTREAM = "10.0.1.2"
DUT = "10.0.0.1"
DOWNSTREAM = "10.0.2.2"


class _RunFields(NamedTuple):
    """The run fields and their defaults (see :class:`RunSpec`)."""

    #: ``"frr"`` or ``"bird"``; a key of :data:`FEATURES`; the arm,
    #: ``"native"`` or ``"extension"``.
    implementation: str
    feature: str = "plain"
    mode: str = "native"
    #: Feature inputs: validated ROAs (origin validation), the router's
    #: ``(latitude, longitude)`` (GeoLoc, closest exit), the fabric's
    #: ``{"up_edges": ..., "dc_ases": ...}`` (valley-free).
    roas: Tuple[Roa, ...] = ()
    coord: Optional[Tuple[float, float]] = None
    valley: Optional[Mapping[str, object]] = None
    #: How the extension arm runs, one of :data:`ENGINES`.
    tier: str = "jit"
    #: False turns the *host's* caches off (encode/mechanics caches,
    #: lazy attribute parsing, here and in the downstream collector):
    #: the reference arm of the host fuzz oracle and of
    #: tests/integration/test_hotpath_semantics.py.
    hot_path: bool = True
    max_prefixes_per_update: int = 64
    #: UPDATEs per decode→decision vector (1 = sequential) and worker
    #: processes the routes are partitioned across (1 = one daemon).
    batch: int = 1
    shards: int = 1
    #: Sharded result: ``"full"`` merges route-level snapshots (parity
    #: suites); ``"summary"`` merges counts only (benchmarks).
    collect: str = "full"
    #: The DUT's observability layers: VMM metrics + trace ring,
    #: per-route provenance, the phase + PC-level profiler.
    telemetry: bool = False
    provenance: bool = False
    profiling: bool = False
    #: Cadences in UPDATEs, 0 = off: worker heartbeats (``ShardedReplay``
    #: picks one when a sink is attached) and mid-replay registry
    #: samples (need ``telemetry``: there is no registry otherwise).
    heartbeat_every: int = 0
    timeseries_every: int = 0
    #: Fault-injection drill: breaker error threshold (0 keeps the
    #: paper's always-retry default); attach the crashing ``faulty``
    #: plugin at a late seq so the breaker has real faults to trip on.
    quarantine_after: int = 0
    inject_crasher: bool = False


class RunSpec(_RunFields):
    """One run of the testbed: which DUT, which arm, how it is fed.

    An immutable, picklable tuple of the run fields (it is what
    :class:`~repro.scale.ShardedReplay` ships to its workers), checked
    on construction: an unknown field is a ``TypeError``, a bad value a
    ``ValueError``.  Parent-side sinks (``events``, ``progress``) are
    not run fields: they do not pickle.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **fields: object) -> "RunSpec":
        self = super().__new__(cls, *args, **fields)
        if self.implementation not in DAEMONS:
            raise ValueError(f"unknown implementation {self.implementation!r}")
        if self.feature not in FEATURES:
            raise ValueError(f"unknown feature {self.feature!r}")
        if self.mode not in ("native", "extension"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tier not in ENGINES:
            raise ValueError(f"unknown engine {self.tier!r}")
        if self.collect not in ("full", "summary"):
            raise ValueError(f"unknown collect mode {self.collect!r}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        return self._replace(roas=tuple(self.roas or ()))

    def replace(self, **fields: object) -> "RunSpec":
        """A copy with ``fields`` changed, checked like a new one."""
        return RunSpec(**{**self._asdict(), **fields})

    @property
    def reflecting(self) -> bool:
        """Route reflection runs over iBGP with RR clients; every other
        feature over eBGP."""
        return self.feature == "route_reflection"


class _Feature(NamedTuple):
    """One experiment: the daemon keywords of its arm, the manifest its
    extension arm attaches, the ``pynative`` twin ``tier="pyext"``
    attaches instead, and whether the hosts have a native arm at all
    (without one the program is attached in both modes)."""

    host: Callable[[RunSpec], Dict[str, object]] = lambda spec: {}
    manifest: Optional[Callable[[RunSpec], object]] = None
    pyext: Optional[Callable[[RunSpec], object]] = None
    native_arm: bool = True


def _roa_table(spec: RunSpec) -> Dict[str, object]:
    if spec.mode != "native":
        return {}
    # FRR natively browses a trie; BIRD natively probes a hash.
    table = TrieRoaTable() if spec.implementation == "frr" else HashRoaTable()
    table.extend(spec.roas)
    return {"roa_table": table}


def _coord(spec: RunSpec) -> Dict[str, object]:
    latitude, longitude = spec.coord or (50.85, 4.35)
    return {"xtra": {"coord": geoloc.coord_bytes(latitude, longitude)}}


def _valley_manifest(spec: RunSpec):
    valley = spec.valley or {}
    return valley_free.build_manifest(
        valley.get("up_edges", ()), valley.get("dc_ases", ())
    )


#: The five paper plugins plus the bare pipeline.
FEATURES: Dict[str, _Feature] = {
    "plain": _Feature(),
    "route_reflection": _Feature(
        lambda spec: {"route_reflector": spec.mode},
        lambda spec: route_reflector.build_manifest(),
        lambda spec: pynative.route_reflector_program(),
    ),
    "origin_validation": _Feature(
        _roa_table,
        lambda spec: origin_validation.build_manifest(list(spec.roas)),
        lambda spec: pynative.origin_validation_program(spec.roas),
    ),
    "valley_free": _Feature(manifest=_valley_manifest, native_arm=False),
    "geoloc": _Feature(_coord, lambda spec: geoloc.build_manifest(), native_arm=False),
    "closest_exit": _Feature(
        _coord, lambda spec: closest_exit.build_manifest(), native_arm=False
    ),
}


def wire_dut(dut, downstream_send: Callable[[bytes], None], ibgp: bool, rr_clients: bool):
    """Attach the Fig. 3 peers to ``dut``: a silent upstream and a
    downstream delivering to ``downstream_send``, both forced
    Established (no OPEN exchange, no initial table dump).  Returns
    ``(upstream, downstream)``."""
    upstream = dut.add_neighbor(
        UPSTREAM, 65001 if ibgp else 65100, lambda data: None, rr_client=rr_clients
    )
    downstream = dut.add_neighbor(
        DOWNSTREAM, 65001 if ibgp else 65200, downstream_send, rr_client=rr_clients
    )
    for neighbor in (upstream, downstream):
        dut._established[neighbor.peer_address] = True
        neighbor.established = True
    return upstream, downstream


class Collector:
    """The downstream router's receive side: counts prefixes.

    ``eager_attributes`` forces a full path-attribute parse of every
    received UPDATE, the behaviour every receiver had before
    :class:`UpdateMessage` learned to decode attributes lazily — a
    ``hot_path=False`` run (host caches off, the reference arm of the
    host oracle) restores that per-message parse.
    """

    def __init__(self, eager_attributes: bool = False) -> None:
        self.prefixes: set = set()
        self.withdrawn: set = set()
        self.updates = 0
        self._buffer = bytearray()
        self._eager_attributes = eager_attributes

    def receive(self, data: bytes) -> None:
        self._buffer.extend(data)
        for message in split_stream(self._buffer):
            if isinstance(message, UpdateMessage):
                self.updates += 1
                if self._eager_attributes:
                    message.attributes
                for prefix in message.nlri:
                    self.prefixes.add(prefix)
                for prefix in message.withdrawn:
                    self.prefixes.discard(prefix)
                    self.withdrawn.add(prefix)

    def __len__(self) -> int:
        return len(self.prefixes)


def normalise_snapshot(snapshot) -> Dict[str, tuple]:
    """Loc-RIB snapshot in a picklable, order-insensitive form."""
    return {
        str(prefix): tuple(
            sorted((a.type_code, a.flags, a.value.hex()) for a in attributes)
        )
        for prefix, attributes in snapshot.items()
    }


def build_dut(spec: RunSpec):
    """Construct ``spec``'s daemon and attach what its arm carries.

    No peers yet: :func:`build_scale_daemon` wires the Fig. 3 pair; the
    host fuzz oracle and ``xbgp explain`` bring their own.
    """
    feature = FEATURES[spec.feature]
    pyext = spec.tier == "pyext"
    quarantine = (
        QuarantinePolicy(error_threshold=spec.quarantine_after)
        if spec.quarantine_after > 0
        else None
    )
    daemon = DAEMONS[spec.implementation](
        asn=65001,
        router_id=DUT,
        local_address=DUT,
        vmm_config=VmmConfig(
            tier="jit" if pyext else spec.tier,
            telemetry=spec.telemetry,
            quarantine=quarantine,
        ),
        hot_path=spec.hot_path,
        provenance=spec.provenance,
        profiling=spec.profiling,
        **feature.host(spec),
    )
    if feature.manifest is not None and (
        spec.mode == "extension" or not feature.native_arm
    ):
        if not pyext:
            daemon.attach_manifest(feature.manifest(spec))
        elif feature.pyext is not None:
            daemon.attach_program(feature.pyext(spec))
        else:
            raise ValueError(f"feature {spec.feature!r} has no pyext twin")
    if spec.inject_crasher:
        daemon.attach_manifest(faulty.build_manifest())
    return daemon


def build_scale_daemon(config: Union[RunSpec, Mapping[str, object]]):
    """Build and wire one Fig. 3 DUT from a :class:`RunSpec` or a
    mapping of its fields (any other key raises ``TypeError``).

    Returns ``(daemon, collector)``: the arm's native configuration or
    program installed, upstream and downstream attached and
    established, the downstream delivering to ``collector``.
    """
    spec = config if isinstance(config, RunSpec) else RunSpec(**config)
    daemon = build_dut(spec)
    collector = Collector(eager_attributes=not spec.hot_path)
    wire_dut(daemon, collector.receive, ibgp=spec.reflecting, rr_clients=spec.reflecting)
    return daemon, collector


def build_feed(
    spec: RunSpec, routes: Sequence[RouteSpec], progress: bool = False
) -> Tuple[List[bytes], Optional[List[int]]]:
    """Pre-encode the upstream's UPDATE stream for ``routes``, closed by
    End-of-RIB (constant cost in every arm).  Returns ``(feed,
    routes_done)``: ``routes_done[i]`` routes are announced once
    ``feed[i]`` is in — built only when ``progress`` (heartbeats) asks."""
    session = "ibgp" if spec.reflecting else "ebgp"
    updates = build_updates(
        routes,
        next_hop=parse_ipv4(UPSTREAM),
        session=session,
        sender_asn=65100 if session == "ebgp" else None,
        max_prefixes_per_update=spec.max_prefixes_per_update,
    )
    feed = [update.encode() for update in updates]
    feed.append(UpdateMessage.end_of_rib().encode())
    if not progress:
        return feed, None
    routes_done = list(accumulate(len(update.nlri) for update in updates))
    routes_done.append(routes_done[-1] if routes_done else 0)
    return feed, routes_done
