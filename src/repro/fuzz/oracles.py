"""The three differential oracles.

Every oracle returns ``None`` (no divergence) or a :class:`Divergence`
carrying a *stable signature* — the dedup key a campaign uses to group
repeated findings — plus human-oriented detail.  Unexpected exceptions
anywhere in an oracle are themselves findings (``*:crash:*``), never
silent skips.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bgp.messages import UpdateMessage, decode_message, split_stream
from ..bgp.prefix import parse_ipv4
from ..core.insertion_points import InsertionPoint
from ..ebpf.helpers import TERMINATED, HelperError, HelperTable
from ..ebpf.isa import decode_program
from ..ebpf.jit import translate
from ..ebpf.memory import MemoryRegion, SandboxViolation, VmMemory
from ..ebpf.vm import ExecutionError, VirtualMachine
from ..plugins.origin_validation import read_validity_counters
from ..scale import BatchProcessor, PartitionMap, split_update
from ..sim.testbed import DAEMONS, DOWNSTREAM, UPSTREAM, RunSpec, build_dut, normalise_snapshot
from .gen import FUZZ_HELPER_IDS, HALLOC_BLOCK, READONLY_REGION, SHARED_REGION, CodecCase, EngineCase, HostCase
from .reference import ReferenceDut

__all__ = [
    "Divergence",
    "make_fuzz_helpers",
    "run_codec_case",
    "run_engine_case",
    "run_host_case",
]

_M64 = (1 << 64) - 1


class Divergence:
    """One oracle disagreement (or crash), dedup-keyed by signature."""

    __slots__ = ("oracle", "signature", "detail")

    def __init__(self, oracle: str, signature: str, detail: str):
        self.oracle = oracle
        self.signature = signature
        self.detail = detail

    def __repr__(self) -> str:
        return f"Divergence({self.signature!r})"


def _crash(oracle: str, where: str, exc: BaseException) -> Divergence:
    return Divergence(
        oracle,
        f"{oracle}:crash:{where}:{type(exc).__name__}",
        f"unexpected {type(exc).__name__} in {where}: {exc}",
    )


# -- codec oracle ------------------------------------------------------


def _attr_key(attribute) -> Tuple[int, int, bytes]:
    return (attribute.type_code, attribute.flags, attribute.value)


def _check_update_frame(frame: bytes, strict: bool) -> Optional[Divergence]:
    """Round-trip one frame through the lazy and eager codec paths."""
    try:
        message, consumed = decode_message(frame)
    except ValueError:
        return None  # deterministic rejection is an acceptable outcome
    wire = frame[:consumed]

    if not isinstance(message, UpdateMessage):
        # Non-UPDATE types: require encode/decode to reach a fixpoint.
        reencoded = message.encode()
        second, _ = decode_message(reencoded)
        if second.encode() != reencoded:
            return Divergence(
                "codec",
                f"codec:fixpoint:{type(message).__name__}",
                f"{type(message).__name__} re-encode is not a fixpoint",
            )
        return None

    # Lazy path: a decoded UPDATE re-emits its attribute bytes verbatim.
    lazy = message.encode()
    if lazy != wire:
        if strict:
            return Divergence(
                "codec",
                "codec:lazy-roundtrip",
                f"valid frame not byte-identical after decode/encode "
                f"(in {len(wire)}B, out {len(lazy)}B)",
            )
        # Mutated frames may legitimately normalise (prefix trailing
        # bits are masked) — but normalisation must reach a fixpoint
        # with identical semantics.
        try:
            second, _ = decode_message(lazy)
        except ValueError as exc:
            return Divergence(
                "codec",
                "codec:normalized-reject",
                f"re-encoded frame no longer decodes: {exc}",
            )
        if second.encode() != lazy:
            return Divergence("codec", "codec:fixpoint:UpdateMessage", "normalisation is not a fixpoint")
        if second.withdrawn != message.withdrawn or second.nlri != message.nlri:
            return Divergence("codec", "codec:normalized-semantics", "prefixes changed across re-encode")

    # Eager path: parse attributes, rebuild the message from them.
    try:
        attributes = message.attributes
    except ValueError:
        # Attribute *content* errors surface lazily by design; the
        # failed parse must not corrupt the verbatim re-encode.
        if message.encode() != lazy:
            return Divergence(
                "codec",
                "codec:lazy-cache-corruption",
                "encode() changed after a failed attribute parse",
            )
        return None

    rebuilt = UpdateMessage(message.withdrawn, attributes, message.nlri)
    eager = rebuilt.encode()
    try:
        third, _ = decode_message(eager)
        reparsed = third.attributes
    except ValueError as exc:
        return Divergence(
            "codec",
            "codec:eager-reject",
            f"eagerly rebuilt frame no longer decodes: {exc}",
        )
    if (
        third.withdrawn != message.withdrawn
        or third.nlri != message.nlri
        or sorted(map(_attr_key, reparsed)) != sorted(map(_attr_key, attributes))
    ):
        return Divergence(
            "codec",
            "codec:eager-semantics",
            "lazy and eager paths disagree on message semantics",
        )
    if third.encode() != eager:
        return Divergence("codec", "codec:eager-fixpoint", "eager re-encode is not a fixpoint")
    return None


def _drain(stream: bytes, chunks: Sequence[int]) -> Tuple[tuple, Optional[str]]:
    """Feed ``stream`` through :func:`split_stream` in ``chunks``-sized
    pieces (cycled); return (message summaries, error class or None)."""
    buffer = bytearray()
    seen: List[tuple] = []
    error: Optional[str] = None
    offset = 0
    index = 0
    while offset < len(stream):
        size = chunks[index % len(chunks)]
        index += 1
        buffer.extend(stream[offset : offset + size])
        offset += size
        try:
            for message in split_stream(buffer):
                if isinstance(message, UpdateMessage):
                    seen.append(
                        ("update", message.withdrawn, message.nlri, message._attrs_wire)
                    )
                else:
                    seen.append((type(message).__name__, message.encode()))
        except ValueError as exc:
            error = type(exc).__name__
            break
    if error is None:
        # A malformed frame at the head of the buffer only raises on
        # the *next* split_stream call; flush it so the error surfaces
        # regardless of how the chunk plan aligned with frame ends.
        try:
            split_stream(buffer)
        except ValueError as exc:
            error = type(exc).__name__
    return tuple(seen), error


def run_codec_case(case: CodecCase) -> Optional[Divergence]:
    try:
        for position, frame in enumerate(case.frames):
            divergence = _check_update_frame(frame, strict=not case.mutated)
            if divergence is not None:
                divergence.detail = f"frame {position}: {divergence.detail}"
                return divergence
        stream = b"".join(case.frames)
        whole = _drain(stream, (len(stream) or 1,))
        chunked = _drain(stream, case.chunks)
        if whole != chunked:
            return Divergence(
                "codec",
                "codec:reassembly",
                f"split_stream outcome depends on chunking "
                f"(whole={len(whole[0])} msgs err={whole[1]}, "
                f"chunked={len(chunked[0])} msgs err={chunked[1]})",
            )
    except Exception as exc:  # noqa: BLE001 — crashes are findings
        return _crash("codec", "codec-oracle", exc)
    return None


# -- engine oracle -----------------------------------------------------


def make_fuzz_helpers(calls: list) -> HelperTable:
    """A tiny self-contained helper table recording its call sequence.

    ``probe`` mixes its five arguments (and the call ordinal) into a
    deterministic value, ``halloc`` hands out :data:`HALLOC_BLOCK`-byte
    heap blocks, ``peek`` reads VM memory (and can fault), ``checkz``
    raises :class:`HelperError` on a zero argument and ``stop`` is
    terminal, like xBGP's ``next()`` — covering the return, abort and
    terminal-exit paths the xBGP helper glue exercises.
    """
    table = HelperTable()

    def probe(vm, r1, r2, r3, r4, r5):
        calls.append(("probe", r1, r2, r3, r4, r5))
        mixed = (r1 ^ (r2 << 1) ^ (r3 << 2) ^ (r4 << 3) ^ (r5 << 4) ^ (len(calls) * 0x9E37)) & _M64
        return (mixed * 0x9E3779B97F4A7C15) & _M64

    def halloc(vm, r1, r2, r3, r4, r5):
        address = vm.memory.alloc(HALLOC_BLOCK)
        calls.append(("halloc", address))
        return address

    def peek(vm, r1, r2, r3, r4, r5):
        size = 1 + (r2 % 8)
        value = vm.memory.read(r1, size)
        calls.append(("peek", r1, size, value))
        return value

    def checkz(vm, r1, r2, r3, r4, r5):
        calls.append(("checkz", r1))
        if r1 == 0:
            raise HelperError("checkz: zero argument")
        return r1

    table.register(FUZZ_HELPER_IDS["probe"], "probe", probe)
    table.register(FUZZ_HELPER_IDS["halloc"], "halloc", halloc)
    table.register(FUZZ_HELPER_IDS["peek"], "peek", peek)
    def stop(vm, r1, r2, r3, r4, r5):
        calls.append(("stop", r1))
        return 0

    table.register(FUZZ_HELPER_IDS["checkz"], "checkz", checkz)
    table.register(FUZZ_HELPER_IDS["stop"], "stop", stop, terminal=True)
    return table


#: What the shared and read-only regions hold when a run starts.
_REGION_IMAGE = bytes((index * 37 + 11) & 0xFF for index in range(256))


def _map_regions(memory: VmMemory, case: EngineCase, count_walks: bool) -> List[int]:
    """Attach the case's regions before anything is translated.  With
    ``count_walks``, count region-walk hits on the shared region: compiled
    code probes those inline (no fuzz helper touches it), so a hit is a
    missed probe."""
    shared = MemoryRegion(*SHARED_REGION, writable=case.shared_writable)
    memory.attach(shared, shared=True)
    readonly = MemoryRegion(*READONLY_REGION, writable=False)
    readonly.data[:] = _REGION_IMAGE[-READONLY_REGION[1]:]
    memory.attach(readonly)
    walks = [0]
    if count_walks:
        walk = memory._translate

        def translate(address: int, size: int, write: bool):
            found = walk(address, size, write)
            walks[0] += found[0] is shared
            return found

        memory._translate = translate
    return walks


def _engine_outcome(run, vm: VirtualMachine, memory: VmMemory, calls: list, inputs) -> tuple:
    """One VMM-style invocation: reset the heap and the shared region's
    image, run, normalise.

    Budget blowouts are normalised to a bare marker: compiled code
    checks the budget per *block* while the interpreter checks per
    step, so the faulting pc / step counts legitimately differ
    (documented in ``VirtualMachine.run``); everything else must match
    exactly.
    """
    calls.clear()
    memory.reset_heap()
    shared = memory.shared_region.data
    shared[:] = _REGION_IMAGE[: len(shared)]  # in place: code binds the buffer
    try:
        result = run(*inputs)
    except ExecutionError as exc:
        if "budget" in str(exc):
            return ("budget",)
        return ("exec-error", str(exc), vm.steps_executed, vm.helper_calls, tuple(calls), bytes(shared))
    except SandboxViolation as exc:
        return ("sandbox", str(exc), vm.steps_executed, vm.helper_calls, tuple(calls), bytes(shared))
    except HelperError as exc:
        return ("helper-error", str(exc), vm.steps_executed, vm.helper_calls, tuple(calls), bytes(shared))
    # The stack bytes are deliberately NOT part of the outcome: compiled
    # code promotes private 8-byte stack slots to Python locals (they
    # never materialise in ``stack.data``), and that privacy is the
    # point — registers are observable through the epilogue fold into
    # r0, heap blocks through the helper traffic below.
    stopped = result is TERMINATED
    return (
        "stop" if stopped else "return",
        None if stopped else result,
        vm.steps_executed,
        vm.helper_calls,
        tuple(calls),
        memory.heap_used,
        bytes(memory.heap_region.data[: memory.heap_used]),
        bytes(shared),
    )


#: ``interp`` is the reference; ``jit`` is the compiled tier as the VMM
#: gets it; ``dispatch`` is the dispatch-loop translator called directly,
#: the way the compiler calls it for a program it declines.  The
#: generator's programs all structure cleanly, so without the third arm
#: the dispatch loop shipped plugins run on would leave the oracle.
_ENGINE_ARMS = ("interp", "jit", "dispatch")


def _engine_arm(arm: str, program, case: EngineCase, shapes) -> Tuple[tuple, tuple, int]:
    """Two runs of ``case`` on one arm: on a fresh heap, then on one
    where every byte the first run allocated has been dirtied; plus how
    often a compiled arm walked into the shared region."""
    calls: list = []
    memory = VmMemory(heap_size=4096)
    walks = _map_regions(memory, case, count_walks=arm != "interp")
    vm = VirtualMachine(
        program,
        helpers=make_fuzz_helpers(calls),
        memory=memory,
        step_budget=case.step_budget,
        tier="jit" if arm == "jit" else "interp",
    )
    if arm == "dispatch":
        run = translate(vm.program, vm.helpers, memory, case.step_budget, vm)
    else:
        run = vm.prepare()
    if shapes is not None and vm.compile_info is not None:
        shape = vm.compile_info.shape
        shapes[shape] = shapes.get(shape, 0) + 1
    first = _engine_outcome(run, vm, memory, calls, case.inputs)
    # What a run over different data leaves behind.  Only the span the
    # case allocates: the contract is that *allocated* blocks read as
    # zeros, and a program may peek at heap it never allocated.
    used = memory.heap_used
    memory.reset_heap()
    memory.write_bytes(memory.alloc(used), b"\xa5" * used)
    return first, _engine_outcome(run, vm, memory, calls, case.inputs), walks[0]


def run_engine_case(
    case: EngineCase, shapes: Optional[Dict[str, int]] = None
) -> Optional[Divergence]:
    """Compare the arms; ``shapes`` tallies how the compiled arm's
    program was compiled (``structured`` / ``tail`` / ``dispatch``)."""
    try:
        program = decode_program(case.program)
        outcomes = {
            arm: _engine_arm(arm, program, case, shapes) for arm in _ENGINE_ARMS
        }
        for arm, (first, second, walks) in outcomes.items():
            # Same inputs, heap reset in between: a second run that
            # differs saw what was left behind (a freed heap span that
            # was not scrubbed, a stale compiled-in value).
            if first != second:
                return Divergence(
                    "engine",
                    f"engine:rerun:{arm}:{first[0]}/{second[0]}",
                    f"arm {arm}: second run differs from the first: "
                    f"{_outcome_diff((first,), (second,))}",
                )
            if walks:
                return Divergence(
                    "engine",
                    f"engine:probe-miss:{arm}",
                    f"arm {arm}: {walks} in-bounds accesses to the shared "
                    "region took the region walk, not the inline probe",
                )
        per_arm = {arm: outcomes[arm][0] for arm in _ENGINE_ARMS}
        if any(outcome[0] == "budget" for outcome in per_arm.values()):
            # Compiled code checks the budget per *block* (at the
            # leader), the interpreter per step — so near the budget
            # one arm may report the blowout while the other faults
            # first inside that block.  All arms must still abort or,
            # since the block check also counts what follows a terminal
            # call, stop.
            returned = [arm for arm, o in per_arm.items() if o[0] == "return"]
            if returned:
                return Divergence(
                    "engine",
                    "engine:budget-vs-return",
                    f"arms {returned} returned while others exhausted "
                    "the instruction budget",
                )
            return None
        baseline = per_arm["interp"]
        for arm, outcome in per_arm.items():
            if outcome != baseline:
                return Divergence(
                    "engine",
                    f"engine:outcome:interp-vs-{arm}:{baseline[0]}/{outcome[0]}",
                    f"arms interp and {arm} disagree: "
                    f"{_outcome_diff((baseline,), (outcome,))}",
                )
    except Exception as exc:  # noqa: BLE001
        return _crash("engine", "engine-oracle", exc)
    return None


def _outcome_diff(left: tuple, right: tuple) -> str:
    for run_index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            for field_index, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    return f"run {run_index} field {field_index}: {x!r} != {y!r}"
            return f"run {run_index}: {a!r} != {b!r}"
    return "outcome tuples differ in length"


# -- host oracle -------------------------------------------------------
#
# Every arm's DUT comes from the testbed's one builder: the daemon
# Fig. 4 and the repo benchmark measure (so a route-reflector case runs
# on a host whose split horizon is relaxed for the extension, as there).
# Peer wiring and the event loops below stay the oracle's own: they
# drive raw frames and mid-stream peer writes and keep every peer's
# wire bytes, which the testbed's replay has no business knowing about.
# Each host's sequential arm is judged by the independent RFC 4271 model
# in :mod:`repro.fuzz.reference`; its batched and sharded arms are then
# held to the sequential one.

#: Where a case's second upstream sits, and its AS by the role its
#: frames name (see :class:`HostCase`): eBGP, or iBGP like the DUT.
UPSTREAM2 = "10.0.3.2"
_SECOND_UPSTREAMS = {"upstream2": 65300, "upstream2-ibgp": 65001}


def _case_peers(case: HostCase) -> List[Tuple[str, str, int]]:
    """``(role, address, asn)`` of every peer of the case's DUT (AS
    65001): the Fig. 3 pair, plus the second upstream its frames name."""
    ibgp = case.session == "ibgp"
    peers = [
        ("upstream", UPSTREAM, 65001 if ibgp else 65100),
        ("downstream", DOWNSTREAM, 65001 if ibgp else 65200),
    ]
    second = {event[2] for event in case.events if event[0] == "frame" and len(event) > 2}
    peers.extend((role, UPSTREAM2, _SECOND_UPSTREAMS[role]) for role in sorted(second))
    return peers


def _sender(event: tuple) -> str:
    """The address a ``frame`` event arrives from."""
    return UPSTREAM2 if len(event) > 2 else UPSTREAM


def _case_dut(case: HostCase, implementation: str):
    """The case's DUT: its plugin's extension arm, its peers attached and
    established.  Returns ``(daemon, peers by role, sent)``, where
    ``sent`` maps each peer address to the chunks sent to it."""
    feature = {None: "plain", "route_reflector": "route_reflection"}
    daemon = build_dut(
        RunSpec(
            implementation,
            feature.get(case.plugin, case.plugin),
            "extension",
            roas=case.roas,
            coord=case.coord,
            tier=case.engine,
        )
    )
    peers, sent = {}, {}
    for role, address, asn in _case_peers(case):
        chunks = sent[parse_ipv4(address)] = []
        neighbor = daemon.add_neighbor(
            address, asn, chunks.append, rr_client=case.plugin == "route_reflector"
        )
        daemon._established[neighbor.peer_address] = True
        neighbor.established = True
        peers[role] = neighbor
    return daemon, peers, sent


def _replay_stream(chunks: List[bytes]) -> Tuple[Optional[str], Dict[str, bytes], frozenset]:
    """A peer's received stream as ``(framing error or None, prefix ->
    attribute bytes it last carried, every prefix withdrawn)``."""
    attributes: Dict[str, bytes] = {}
    withdrawn = set()
    buffer = bytearray(b"".join(chunks))
    try:
        for message in split_stream(buffer):
            if not isinstance(message, UpdateMessage):
                return f"unexpected {type(message).__name__}", attributes, frozenset(withdrawn)
            message.attributes  # content errors surface here
            for prefix in message.withdrawn:
                attributes.pop(str(prefix), None)
                withdrawn.add(str(prefix))
            for prefix in message.nlri:
                attributes[str(prefix)] = message._attrs_wire
    except ValueError as exc:
        return str(exc), attributes, frozenset(withdrawn)
    framing = f"{len(buffer)} trailing bytes" if buffer else None
    return framing, attributes, frozenset(withdrawn)


def _views(sent, adj_rib_out, loc_rib, fallbacks: int, validity) -> Dict[str, object]:
    """One run, host or reference, in the form the arms are compared in:
    each peer's stream replayed (``framing`` names the first malformed
    or oversized message), Adj-RIB-Out and Loc-RIB as attribute sets,
    the prefixes the downstream holds, the extension fallback count, the
    origin-validation counters."""
    streams = {address: _replay_stream(chunks) for address, chunks in sent.items()}
    return {
        "framing": next((view[0] for view in streams.values() if view[0]), None),
        "attributes": {address: view[1] for address, view in streams.items()},
        "withdrawn": {address: view[2] for address, view in streams.items()},
        "adj_rib_out": {
            address: normalise_snapshot(table) for address, table in adj_rib_out.items() if table
        },
        "snapshot": normalise_snapshot(loc_rib),
        "prefixes": frozenset(streams[parse_ipv4(DOWNSTREAM)][1]),
        "fallbacks": fallbacks,
        "validity": validity,
    }


def _host_views(daemon, sent) -> Dict[str, object]:
    adj_rib_out = {
        address: {prefix: route.attribute_list() for prefix, route in table.items()}
        for address, table in daemon.adj_rib_out._tables.items()
    }
    chain = daemon.vmm._chains.get(InsertionPoint.BGP_INBOUND_FILTER, ())
    validity = [read_validity_counters(i.state) for i in chain if i.code.name == "rov_import"]
    return _views(
        sent, adj_rib_out, daemon.loc_rib_snapshot(), daemon.vmm.fallbacks, validity[0] if validity else {}
    )


def _run_reference(case: HostCase) -> ReferenceDut:
    model = ReferenceDut(case.plugin, coord=case.coord, roas=case.roas)
    peers = {
        role: model.add_peer(address, asn, rr_client=case.plugin == "route_reflector")
        for role, address, asn in _case_peers(case)
    }
    for event in case.events:
        if event[0] == "frame":
            model.receive(_sender(event), event[1])
        else:
            _, role, field, value = event
            setattr(peers[role], field, value)
    return model


def _reference_views(model: ReferenceDut) -> Dict[str, object]:
    loc_rib = {prefix: route.attrs.values() for prefix, route in model.loc_rib.items()}
    return _views(model.sent, model.adj_rib_out, loc_rib, 0, model.validity)


def _run_host_arm(case: HostCase, implementation: str, batch_size: int = 0) -> Dict[str, object]:
    """The feed through the DUT, sequentially or, with ``batch_size``,
    through :class:`~repro.scale.BatchProcessor`; its :func:`_views`.

    Peer-config writes land mid-stream, so a pending batch is flushed
    first — the ordering contract the batch docstring demands."""
    daemon, peers, sent = _case_dut(case, implementation)
    processor = BatchProcessor(daemon, batch_size=batch_size) if batch_size else None
    receive = daemon.receive_raw if processor is None else processor.receive_raw
    for event in case.events:
        if event[0] == "frame":
            receive(_sender(event), event[1])
            continue
        if processor is not None:
            processor.flush()
        _, role, field, value = event
        setattr(peers[role], field, value)
    if processor is not None:
        processor.flush()
    return _host_views(daemon, sent)


def _run_host_arm_sharded(
    case: HostCase, implementation: str, shards: int = 2
) -> Dict[str, object]:
    """Same feed split across shard daemons by prefix range.

    Peer-config writes and non-UPDATE control messages apply to every
    shard (each worker owns a full copy of the session state); UPDATE
    NLRI/withdrawals route to their owning shard.  Views merge like
    :class:`~repro.scale.ShardedResult`."""
    parsed: List[tuple] = []
    prefixes: List = []
    for event in case.events:
        if event[0] == "frame":
            for message in split_stream(bytearray(event[1])):
                parsed.append(("message", message, _sender(event)))
                if isinstance(message, UpdateMessage):
                    prefixes.extend(message.nlri)
                    prefixes.extend(message.withdrawn)
        else:
            parsed.append(event)
    pmap = PartitionMap(prefixes, shards)
    arms = [_case_dut(case, implementation) for _ in range(pmap.shards)]

    for event in parsed:
        if event[0] == "message":
            _, message, sender = event
            if isinstance(message, UpdateMessage) and not message.is_end_of_rib():
                for shard, part in split_update(message, pmap).items():
                    arms[shard][0].receive_message(sender, part)
            else:
                for daemon, _, _ in arms:
                    daemon.receive_message(sender, message)
        else:
            _, role, field, value = event
            for _, peers, _ in arms:
                setattr(peers[role], field, value)

    views = [_host_views(daemon, sent) for daemon, _, sent in arms]
    return {
        "snapshot": {k: v for view in views for k, v in view["snapshot"].items()},
        "prefixes": frozenset().union(*(view["prefixes"] for view in views)),
        "withdrawn": {
            address: frozenset().union(*(view["withdrawn"][address] for view in views))
            for address in views[0]["withdrawn"]
        },
        "fallbacks": sum(view["fallbacks"] for view in views),
    }


#: What the reference judges on each host's sequential arm, in the order
#: a divergence is named by: the framing of every message sent, the
#: per-prefix attribute bytes each peer's stream leaves it with, the
#: prefixes each peer saw withdrawn, every peer's Adj-RIB-Out, the
#: Loc-RIB, extension fallbacks (none expected), origin-validation counts.
_REFERENCE_KEYS = (
    "framing", "attributes", "withdrawn", "adj_rib_out", "snapshot", "fallbacks", "validity"
)
#: Keys compared between the sequential and batched arms.  Batching
#: legitimately collapses transient downstream traffic (an announce
#: withdrawn inside one batch never hits the wire), so the withdraw
#: event stream and raw bytes are out; the Loc-RIB, the effective
#: advertised set, the fallback count and the per-route validity
#: counts must be identical.
_BATCH_KEYS = ("snapshot", "prefixes", "fallbacks", "validity")
#: Keys compared between the sequential and merged sharded arms.
#: Sharding preserves full per-prefix sequential semantics, so the
#: withdraw sets are back in; per-message extension run counts differ
#: (a split UPDATE runs RECEIVE once per owning shard), so fallbacks
#: compare, on every arm, as a boolean too.
_SHARD_KEYS = ("snapshot", "prefixes", "withdrawn")


def _first_key_diff(left: dict, right: dict, keys) -> Optional[str]:
    for key in keys:
        if left[key] != right[key]:
            return key
    return None


def run_host_case(case: HostCase) -> Optional[Divergence]:
    try:
        expected = _reference_views(_run_reference(case))
        for implementation in DAEMONS:
            sequential = _run_host_arm(case, implementation)
            # The judge first; then batching and sharding must be invisible.
            arms = (
                ("reference", lambda: expected, _REFERENCE_KEYS),
                ("batch", lambda: _run_host_arm(case, implementation, 8), _BATCH_KEYS),
                ("shard", lambda: _run_host_arm_sharded(case, implementation), _SHARD_KEYS),
            )
            for arm, run, keys in arms:
                other = run()
                key = _first_key_diff(sequential, other, keys)
                if key is None and bool(sequential["fallbacks"]) != bool(other["fallbacks"]):
                    key = "fallbacks"
                if key is not None:
                    return Divergence(
                        "host",
                        f"host:{arm}:{implementation}:{key}:{case.plugin}",
                        f"{implementation}: the sequential and {arm} arms disagree on "
                        f"{key!r} (plugin={case.plugin}, engine={case.engine})",
                    )
    except Exception as exc:  # noqa: BLE001
        return _crash("host", "host-oracle", exc)
    return None
