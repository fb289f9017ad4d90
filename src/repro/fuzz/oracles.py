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
from ..ebpf.helpers import HelperError, HelperTable
from ..ebpf.isa import decode_program
from ..ebpf.jit import translate
from ..ebpf.memory import SandboxViolation, VmMemory
from ..ebpf.vm import ExecutionError, VirtualMachine
from ..scale import BatchProcessor, PartitionMap, split_update
from ..sim.testbed import (
    DAEMONS,
    UPSTREAM,
    Collector,
    RunSpec,
    build_dut,
    normalise_snapshot,
    wire_dut,
)
from .gen import FUZZ_HELPER_IDS, HALLOC_BLOCK, CodecCase, EngineCase, HostCase

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

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "signature": self.signature, "detail": self.detail}

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
    raises :class:`HelperError` on a zero argument — covering the
    return/abort paths the xBGP helper glue exercises.
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
    table.register(FUZZ_HELPER_IDS["checkz"], "checkz", checkz)
    return table


def _engine_outcome(run, vm: VirtualMachine, memory: VmMemory, calls: list, inputs) -> tuple:
    """One VMM-style invocation: reset the heap, run, normalise.

    Budget blowouts are normalised to a bare marker: compiled code
    checks the budget per *block* while the interpreter checks per
    step, so the faulting pc / step counts legitimately differ
    (documented in ``VirtualMachine.run``); everything else must match
    exactly.
    """
    calls.clear()
    memory.reset_heap()
    try:
        result = run(*inputs)
    except ExecutionError as exc:
        if "budget" in str(exc):
            return ("budget",)
        return ("exec-error", str(exc), vm.steps_executed, vm.helper_calls, tuple(calls))
    except SandboxViolation as exc:
        return ("sandbox", str(exc), vm.steps_executed, vm.helper_calls, tuple(calls))
    except HelperError as exc:
        return ("helper-error", str(exc), vm.steps_executed, vm.helper_calls, tuple(calls))
    # The stack bytes are deliberately NOT part of the outcome: compiled
    # code promotes private 8-byte stack slots to Python locals (they
    # never materialise in ``stack.data``), and that privacy is the
    # point — registers are observable through the epilogue fold into
    # r0, heap blocks through the helper traffic below.
    return (
        "return",
        result,
        vm.steps_executed,
        vm.helper_calls,
        tuple(calls),
        memory.heap_used,
        bytes(memory.heap_region.data[: memory.heap_used]),
    )


#: ``interp`` is the reference; ``jit`` is the compiled tier as the VMM
#: gets it; ``dispatch`` is the dispatch-loop translator called directly,
#: the way the compiler calls it for a program it declines.  The
#: generator's programs all structure cleanly, so without the third arm
#: the dispatch loop shipped plugins run on would leave the oracle.
_ENGINE_ARMS = ("interp", "jit", "dispatch")


def _engine_arm(arm: str, program, case: EngineCase, shapes) -> Tuple[tuple, tuple]:
    """Two runs of ``case`` on one arm: on a fresh heap, then on one
    where every byte the first run allocated has been dirtied."""
    calls: list = []
    memory = VmMemory(heap_size=4096)
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
    return first, _engine_outcome(run, vm, memory, calls, case.inputs)


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
        for arm, (first, second) in outcomes.items():
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
        per_arm = {arm: outcomes[arm][0] for arm in _ENGINE_ARMS}
        if any(outcome[0] == "budget" for outcome in per_arm.values()):
            # Compiled code checks the budget per *block* (at the
            # leader), the interpreter per step — so near the budget
            # one arm may report the blowout while the other faults
            # first inside that block.  All arms must still abort.
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
# drive raw frames and mid-stream peer writes and keep the downstream
# wire bytes, which the testbed's replay has no business knowing about.


def _case_dut(case: HostCase, implementation: str, hot: bool):
    """The case's DUT: its plugin's extension arm, unwired."""
    feature = {None: "plain", "route_reflector": "route_reflection"}
    return build_dut(
        RunSpec(
            implementation,
            feature.get(case.plugin, case.plugin),
            "extension",
            roas=case.roas,
            coord=case.coord,
            tier=case.engine,
            hot_path=hot,
        )
    )


def _wire_host_daemon(case: HostCase, daemon):
    """Attach the oracle's upstream/downstream peers; return
    ``(peers, collector, downstream_bytes)``."""
    collector = Collector()
    downstream_bytes: List[bytes] = []

    def downstream_send(data: bytes) -> None:
        downstream_bytes.append(data)
        collector.receive(data)

    upstream, downstream = wire_dut(
        daemon,
        downstream_send,
        ibgp=case.session == "ibgp",
        rr_clients=case.plugin == "route_reflector",
    )
    return {"upstream": upstream, "downstream": downstream}, collector, downstream_bytes


def _host_arm_report(daemon, collector, downstream_bytes) -> Dict[str, object]:
    return {
        "snapshot": normalise_snapshot(daemon.loc_rib_snapshot()),
        "downstream": b"".join(downstream_bytes),
        "prefixes": frozenset(str(p) for p in collector.prefixes),
        "withdrawn": frozenset(str(p) for p in collector.withdrawn),
        "stats": dict(daemon.stats),
        "fallbacks": daemon.vmm.fallbacks,
    }


def _run_host_arm(case: HostCase, implementation: str, hot: bool) -> Dict[str, object]:
    daemon = _case_dut(case, implementation, hot)
    peers, collector, downstream_bytes = _wire_host_daemon(case, daemon)
    for event in case.events:
        if event[0] == "frame":
            daemon.receive_raw(UPSTREAM, event[1])
        else:
            _, role, field, value = event
            setattr(peers[role], field, value)
    return _host_arm_report(daemon, collector, downstream_bytes)


def _run_host_arm_batched(
    case: HostCase, implementation: str, hot: bool, batch_size: int = 8
) -> Dict[str, object]:
    """Same feed through :class:`~repro.scale.BatchProcessor`.

    Peer-config writes land mid-stream, so the pending batch is flushed
    first — the ordering contract the batch docstring demands."""
    daemon = _case_dut(case, implementation, hot)
    peers, collector, downstream_bytes = _wire_host_daemon(case, daemon)
    processor = BatchProcessor(daemon, batch_size=batch_size)
    for event in case.events:
        if event[0] == "frame":
            processor.receive_raw(UPSTREAM, event[1])
        else:
            processor.flush()
            _, role, field, value = event
            setattr(peers[role], field, value)
    processor.flush()
    return _host_arm_report(daemon, collector, downstream_bytes)


def _run_host_arm_sharded(
    case: HostCase, implementation: str, hot: bool, shards: int = 2
) -> Dict[str, object]:
    """Same feed split across shard daemons by prefix range.

    Peer-config writes and non-UPDATE control messages apply to every
    shard (each worker owns a full copy of the session state); UPDATE
    NLRI/withdrawals route to their owning shard.  Reports merge like
    :class:`~repro.scale.ShardedResult`."""
    parsed: List[tuple] = []
    prefixes: List = []
    for event in case.events:
        if event[0] == "frame":
            for message in split_stream(bytearray(event[1])):
                parsed.append(("message", message))
                if isinstance(message, UpdateMessage):
                    prefixes.extend(message.nlri)
                    prefixes.extend(message.withdrawn)
        else:
            parsed.append(event)
    pmap = PartitionMap(prefixes, shards)
    arms = []
    for _ in range(pmap.shards):
        daemon = _case_dut(case, implementation, hot)
        arms.append((daemon, _wire_host_daemon(case, daemon)))

    for event in parsed:
        if event[0] == "message":
            message = event[1]
            if isinstance(message, UpdateMessage) and not message.is_end_of_rib():
                for shard, part in split_update(message, pmap).items():
                    arms[shard][0].receive_message(UPSTREAM, part)
            else:
                for daemon, _ in arms:
                    daemon.receive_message(UPSTREAM, message)
        else:
            _, role, field, value = event
            for _, (peers, _, _) in arms:
                setattr(peers[role], field, value)

    snapshot: Dict[str, tuple] = {}
    advertised: set = set()
    withdrawn: set = set()
    fallbacks = 0
    for daemon, (_, collector, _) in arms:
        snapshot.update(normalise_snapshot(daemon.loc_rib_snapshot()))
        advertised.update(str(p) for p in collector.prefixes)
        withdrawn.update(str(p) for p in collector.withdrawn)
        fallbacks += daemon.vmm.fallbacks
    return {
        "snapshot": snapshot,
        "prefixes": frozenset(advertised),
        "withdrawn": frozenset(withdrawn),
        "fallbacks": fallbacks,
    }


#: Keys compared across *implementations* (FRR vs BIRD).  Export
#: batching and stats naming are host-specific, so the cross-host
#: contract is the Loc-RIB, the reachable export set and the absence
#: of extension fallbacks — §2.1's observable behaviour.
_CROSS_KEYS = ("snapshot", "prefixes", "withdrawn", "fallbacks")
#: Keys compared between the ``hot_path`` on and off arms (host caches
#: on / off) of one implementation — these must match bit-for-bit,
#: wire bytes included.
_ARM_KEYS = ("snapshot", "downstream", "prefixes", "withdrawn", "stats", "fallbacks")
#: Keys compared between the sequential and batched arms.  Batching
#: legitimately collapses transient downstream traffic (an announce
#: withdrawn inside one batch never hits the wire), so the withdraw
#: event stream and raw bytes are out; the Loc-RIB, the effective
#: advertised set and the fallback count must be identical.
_BATCH_KEYS = ("snapshot", "prefixes", "fallbacks")
#: Keys compared between the sequential and merged sharded arms.
#: Sharding preserves full per-prefix sequential semantics, so the
#: withdraw set is back in; per-message extension run counts differ
#: (a split UPDATE runs RECEIVE once per owning shard), so fallbacks
#: compare as a boolean, separately.
_SHARD_KEYS = ("snapshot", "prefixes", "withdrawn")


def _first_key_diff(left: dict, right: dict, keys) -> Optional[str]:
    for key in keys:
        if left[key] != right[key]:
            return key
    return None


def run_host_case(case: HostCase) -> Optional[Divergence]:
    try:
        arms = {
            (implementation, hot): _run_host_arm(case, implementation, hot)
            for implementation in DAEMONS
            for hot in (True, False)
        }
        for implementation in DAEMONS:
            key = _first_key_diff(
                arms[(implementation, True)], arms[(implementation, False)], _ARM_KEYS
            )
            if key is not None:
                return Divergence(
                    "host",
                    f"host:fast-legacy:{implementation}:{key}:{case.plugin}",
                    f"{implementation} fast vs legacy arm disagree on {key!r} "
                    f"(plugin={case.plugin}, engine={case.engine})",
                )
        key = _first_key_diff(arms[("frr", True)], arms[("bird", True)], _CROSS_KEYS)
        if key is not None:
            return Divergence(
                "host",
                f"host:cross:{key}:{case.plugin}",
                f"FRR and BIRD disagree on {key!r} "
                f"(plugin={case.plugin}, engine={case.engine})",
            )
        # Scale arms: batching and sharding must be invisible.
        for implementation in DAEMONS:
            sequential = arms[(implementation, True)]
            batched = _run_host_arm_batched(case, implementation, True)
            key = _first_key_diff(sequential, batched, _BATCH_KEYS)
            if key is not None:
                return Divergence(
                    "host",
                    f"host:batch:{implementation}:{key}:{case.plugin}",
                    f"{implementation} sequential vs batched arm disagree on "
                    f"{key!r} (plugin={case.plugin}, engine={case.engine})",
                )
            sharded = _run_host_arm_sharded(case, implementation, True)
            key = _first_key_diff(sequential, sharded, _SHARD_KEYS)
            if key is None and bool(sequential["fallbacks"]) != bool(sharded["fallbacks"]):
                key = "fallbacks"
            if key is not None:
                return Divergence(
                    "host",
                    f"host:shard:{implementation}:{key}:{case.plugin}",
                    f"{implementation} sequential vs sharded arm disagree on "
                    f"{key!r} (plugin={case.plugin}, engine={case.engine})",
                )
    except Exception as exc:  # noqa: BLE001
        return _crash("host", "host-oracle", exc)
    return None
