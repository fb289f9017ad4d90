"""Structure-aware input generation for the differential fuzzer.

Three case kinds, all derived deterministically from an integer seed:

* :func:`gen_codec_case` — a BGP UPDATE stream (announcements built by
  :mod:`repro.workload.rib_gen`, interleaved withdrawals, optional
  End-of-RIB) plus a mutation layer that corrupts frames (bit flips,
  truncation, length-field tweaks) to exercise rejection paths;
* :func:`gen_engine_case` — a small eBPF program emitted as assembler
  text and assembled with :func:`repro.ebpf.assembler.assemble`; the
  emitter tracks register initialisation and stack bounds so every
  generated program passes the static verifier, while still covering
  ALU ops, byte swaps, loops, branches, helper calls, heap traffic and
  loads/stores through a shared and a read-only region;
* :func:`gen_host_case` — a daemon-level scenario: a plugin manifest
  (or none), a session kind, and an event stream mixing UPDATE frames
  with mid-stream peer-configuration mutations (the events that must
  flush the host's marshalling caches); some cases add a second
  upstream whose contest for the same prefixes drives the decision
  process, and some reflection cases make it a non-client re-sending a
  client's attribute block byte for byte.

Generation is pure: the same seed always yields byte-identical cases,
so a campaign is reproducible from its master seed alone.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..bgp.messages import UpdateMessage
from ..bgp.prefix import parse_ipv4
from ..bgp.roa import Roa
from ..ebpf.assembler import assemble
from ..ebpf.isa import Instruction, encode_program
from ..ebpf.memory import SHARED_BASE
from ..ebpf.verifier import VerifierConfig, verify
from ..workload.rib_gen import RibGenerator, RouteSpec, build_updates, origins_of

__all__ = [
    "FUZZ_HELPER_IDS",
    "CodecCase",
    "EngineCase",
    "HostCase",
    "gen_codec_case",
    "gen_engine_case",
    "gen_host_case",
    "gen_oob_stack_source",
    "gen_oob_pointer_source",
]

#: Helper ids for the engine oracle's self-contained helper table
#: (:func:`repro.fuzz.oracles.make_fuzz_helpers`) — not the xBGP ABI.
FUZZ_HELPER_IDS = {"probe": 1, "halloc": 2, "peek": 3, "checkz": 4, "stop": 5}

#: Size of every ``halloc`` heap block; generated accesses stay inside.
HALLOC_BLOCK = 64

#: ``(base, size)`` of every engine-oracle VM's shared region (probed
#: inline by compiled code) and, right after it, a read-only region.
SHARED_REGION = (SHARED_BASE, 64)
READONLY_REGION = (SHARED_BASE + 64, 32)

_UPSTREAM = "10.0.1.2"
_UPSTREAM2 = "10.0.3.2"
_PEER_FIELDS = ("rr_client", "cluster_id")


# -- case containers ---------------------------------------------------


class CodecCase:
    """An UPDATE frame stream plus its reassembly chunking plan."""

    __slots__ = ("seed", "frames", "mutated", "chunks")

    def __init__(self, seed, frames: Sequence[bytes], mutated: bool, chunks: Sequence[int]):
        self.seed = seed
        self.frames: Tuple[bytes, ...] = tuple(frames)
        self.mutated = mutated
        self.chunks: Tuple[int, ...] = tuple(chunks)


class EngineCase:
    """An assembled program, inputs, budget, shared-region writability."""

    __slots__ = ("seed", "program", "inputs", "step_budget", "source", "shared_writable")

    def __init__(self, seed, program: bytes, inputs: Sequence[int], step_budget: int, source: str = "", shared_writable: bool = True):
        self.seed = seed
        self.program = program
        self.inputs: Tuple[int, ...] = tuple(inputs)
        self.step_budget = step_budget
        self.source = source
        self.shared_writable = shared_writable


class HostCase:
    """A daemon scenario: plugin, session and an event stream.

    ``events`` entries are ``("frame", bytes)`` — an UPDATE fed from
    the upstream peer — ``("frame", bytes, role)`` — one fed from a
    second upstream, ``"upstream2"`` (eBGP) or ``"upstream2-ibgp"`` —
    or ``("peer", role, field, value)`` — a mid-stream configuration
    change on the upstream/downstream
    :class:`~repro.bgp.peer.Neighbor` (exactly the mutations the
    ``pack_peer_info`` memo must notice).
    """

    __slots__ = ("seed", "plugin", "session", "events", "roas", "coord", "engine")

    def __init__(
        self,
        seed,
        plugin: Optional[str],
        session: str,
        events: Sequence[tuple],
        roas: Sequence[Roa] = (),
        coord: Optional[Tuple[float, float]] = None,
        engine: str = "jit",
    ):
        self.seed = seed
        self.plugin = plugin
        self.session = session
        self.events: Tuple[tuple, ...] = tuple(events)
        self.roas: Tuple[Roa, ...] = tuple(roas)
        self.coord = coord
        self.engine = engine


# -- shared building blocks --------------------------------------------


def _gen_routes(rng: random.Random, max_routes: int) -> List[RouteSpec]:
    generator = RibGenerator(
        n_routes=rng.randint(1, max_routes),
        n_ases=rng.randint(10, 40),  # AsTopology needs n_tier1 (8) + 2
        seed=rng.randrange(1 << 32),
        prepend_probability=round(rng.random() * 0.5, 3),
        med_probability=round(rng.random(), 3),
        community_probability=round(rng.random(), 3),
    )
    return generator.generate()


def _announce_frames(
    rng: random.Random, routes, session: str, sender: str = _UPSTREAM, asn: int = 0
) -> List[bytes]:
    updates = build_updates(
        routes,
        next_hop=parse_ipv4(sender),
        session=session,
        sender_asn=(asn or rng.randint(1, 64000)) if session == "ebgp" else None,
        max_prefixes_per_update=rng.randint(1, 16),
    )
    return [update.encode() for update in updates]


def _insert_withdrawals(rng: random.Random, frames: List[bytes], routes) -> None:
    prefixes = [spec.prefix for spec in routes]
    for _ in range(rng.randint(0, 3)):
        count = min(len(prefixes), rng.randint(1, 5))
        subset = rng.sample(prefixes, count)
        frame = UpdateMessage(withdrawn=subset).encode()
        frames.insert(rng.randint(0, len(frames)), frame)


# -- codec cases -------------------------------------------------------


def _mutate_frame(rng: random.Random, frame: bytes) -> bytes:
    data = bytearray(frame)
    strategy = rng.randrange(6)
    if strategy == 0 and data:  # flip a random byte
        index = rng.randrange(len(data))
        data[index] ^= 1 << rng.randrange(8)
    elif strategy == 1 and len(data) > 19:  # truncate the tail
        del data[rng.randrange(19, len(data)):]
    elif strategy == 2:  # insert garbage bytes
        index = rng.randrange(len(data) + 1)
        data[index:index] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
    elif strategy == 3 and len(data) >= 18:  # corrupt the header length
        delta = rng.choice((-7, -1, 1, 6, 4000))
        length = max(0, min(0xFFFF, int.from_bytes(data[16:18], "big") + delta))
        data[16:18] = length.to_bytes(2, "big")
    elif strategy == 4 and len(data) >= 21:  # corrupt withdrawn-length
        data[19] ^= 1 << rng.randrange(8)
    elif len(data) > 23:  # corrupt a body byte (attr flags / lengths)
        index = rng.randrange(23, len(data))
        data[index] ^= 1 << rng.randrange(8)
    return bytes(data)


def _chunk_plan(rng: random.Random) -> List[int]:
    """A cycle of chunk sizes for the stream-reassembly oracle."""
    return [rng.randint(1, 61) for _ in range(rng.randint(1, 8))]


def gen_codec_case(seed) -> CodecCase:
    rng = random.Random(f"codec-{seed}")
    routes = _gen_routes(rng, max_routes=40)
    session = rng.choice(("ibgp", "ebgp"))
    frames = _announce_frames(rng, routes, session)
    _insert_withdrawals(rng, frames, routes)
    if rng.random() < 0.5:
        frames.append(UpdateMessage.end_of_rib().encode())
    mutated = rng.random() < 0.45
    if mutated:
        for _ in range(rng.randint(1, 4)):
            index = rng.randrange(len(frames))
            frames[index] = _mutate_frame(rng, frames[index])
    return CodecCase(seed, frames, mutated, _chunk_plan(rng))


# -- engine cases ------------------------------------------------------

_ALU_BINOPS = (
    "add", "sub", "mul", "div", "mod", "or", "and", "xor",
    "lsh", "rsh", "arsh",
    "add32", "sub32", "mul32", "div32", "or32", "and32", "xor32",
    "lsh32", "rsh32", "mov32",
)
_SWAPS = ("be16", "be32", "be64", "le16", "le32", "le64")
_COND_JUMPS = ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jsgt", "jslt", "jset")
_MEM_WIDTHS = ((1, "b"), (2, "h"), (4, "w"), (8, "dw"))


class _ProgramEmitter:
    """Emits assembler text that passes the static verifier by
    construction: conservative register-init tracking, forward-only
    branches whose bodies write no new registers, bounded counter
    loops, and stack/heap accesses inside the verified bounds."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: List[str] = []
        self.inited = set(range(6)) | {10}
        self.heap_regs: List[int] = []
        self.labels = 0
        # (offset, size) stack slots already stored this program: loads
        # only read these, because xc-compiled plugins write before
        # reading and the engines deliberately differ on uninitialised
        # stack (the interpreter's bytes persist across runs, the JIT
        # zero-inits promoted slots per run).
        self.stack_written: List[Tuple[int, int]] = []

    def label(self) -> str:
        self.labels += 1
        return f"L{self.labels}"

    def _reg(self, writable: bool = False) -> int:
        pool = [r for r in self.inited if r != 10] if not writable else list(range(10))
        return self.rng.choice(pool)

    def emit_alu(self) -> None:
        rng = self.rng
        dst = rng.choice(sorted(r for r in self.inited if r != 10))
        if rng.random() < 0.15:
            self.lines.append(f"{rng.choice(_SWAPS)} r{dst}")
            return
        if rng.random() < 0.1:
            self.lines.append(f"neg r{dst}")
            return
        op = rng.choice(_ALU_BINOPS)
        if rng.random() < 0.5:
            src = rng.choice(sorted(r for r in self.inited if r != 10))
            self.lines.append(f"{op} r{dst}, r{src}")
        else:
            imm = rng.randrange(1, 64) if op.startswith(("div", "mod", "lsh", "rsh", "arsh")) else rng.randrange(-(1 << 15), 1 << 15)
            self.lines.append(f"{op} r{dst}, {imm}")

    def emit_mov_init(self) -> None:
        """Initialise an r6-r9 scratch register."""
        rng = self.rng
        candidates = [r for r in range(6, 10) if r not in self.heap_regs]
        if not candidates:
            self.emit_alu()
            return
        dst = rng.choice(candidates)
        if rng.random() < 0.3:
            self.lines.append(f"lddw r{dst}, {rng.randrange(1 << 63):#x}")
        else:
            self.lines.append(f"mov r{dst}, {rng.randrange(-(1 << 31), 1 << 31)}")
        self.inited.add(dst)

    def _stack_slot(self, size: int) -> int:
        count = 448 // size  # keep [-512, -456) free for the epilogue
        return -size * self.rng.randint(1, count)

    def emit_stack(self) -> None:
        rng = self.rng
        if rng.random() < 0.55 or not self.stack_written:
            size, suffix = rng.choice(_MEM_WIDTHS)
            offset = self._stack_slot(size)
            src = rng.choice(sorted(r for r in self.inited if r != 10))
            self.lines.append(f"stx{suffix} [r10{offset:+d}], r{src}")
            self.stack_written.append((offset, size))
        else:
            offset, size = rng.choice(self.stack_written)
            suffix = dict((s, x) for s, x in _MEM_WIDTHS)[size]
            dst = rng.choice(sorted(r for r in self.inited if r != 10))
            self.lines.append(f"ldx{suffix} r{dst}, [r10{offset:+d}]")

    def emit_helper(self) -> None:
        rng = self.rng
        kind = rng.choice(("probe", "halloc", "peek", "heap_rw", "checkz", "stop"))
        if kind == "probe":
            for reg in rng.sample(range(1, 6), rng.randint(0, 3)):
                self.lines.append(f"mov r{reg}, {rng.randrange(-(1 << 15), 1 << 15)}")
            self.lines.append("call probe")
        elif kind == "halloc":
            candidates = [r for r in range(6, 10) if r not in self.heap_regs]
            if not candidates:
                self.lines.append("call probe")
                return
            self.lines.append("call halloc")
            dst = rng.choice(candidates)
            self.lines.append(f"mov r{dst}, r0")
            self.heap_regs.append(dst)
            self.inited.add(dst)
        elif kind == "peek" and self.heap_regs:
            base = rng.choice(self.heap_regs)
            self.lines.append(f"mov r1, r{base}")
            self.lines.append(f"add r1, {rng.randrange(0, HALLOC_BLOCK - 8)}")
            self.lines.append(f"mov r2, {rng.randrange(0, 16)}")
            self.lines.append("call peek")
        elif kind == "heap_rw" and self.heap_regs:
            base = rng.choice(self.heap_regs)
            size, suffix = rng.choice(_MEM_WIDTHS)
            offset = rng.randrange(0, (HALLOC_BLOCK - size) // size + 1) * size
            if rng.random() < 0.5:
                src = rng.choice(sorted(r for r in self.inited if r != 10))
                self.lines.append(f"stx{suffix} [r{base}+{offset}], r{src}")
            else:
                dst = rng.choice(sorted(r for r in self.inited if r not in (10, base)))
                self.lines.append(f"ldx{suffix} r{dst}, [r{base}+{offset}]")
        elif kind == "checkz":
            imm = 0 if rng.random() < 0.12 else rng.randint(1, 7)
            self.lines.append(f"mov r1, {imm}")
            self.lines.append("call checkz")
        elif kind == "stop":
            # A terminal call that ends about half the runs: jset on a
            # live register's low bit skips it on the others.
            label = self.label()
            reg = rng.choice(sorted(r for r in self.inited if r != 10))
            self.lines.append(f"jset r{reg}, 1, {label}")
            self.lines.append(f"mov r1, r{reg}")
            self.lines.append("call stop")
            self.lines.append(f"{label}:")
        else:
            self.lines.append("call probe")

    def emit_branch(self) -> None:
        rng = self.rng
        label = self.label()
        cond = rng.choice(_COND_JUMPS)
        dst = rng.choice(sorted(r for r in self.inited if r != 10))
        if rng.random() < 0.5:
            operand = f"r{rng.choice(sorted(r for r in self.inited if r != 10))}"
        else:
            operand = str(rng.randrange(0, 1 << 15))
        self.lines.append(f"{cond} r{dst}, {operand}, {label}")
        for _ in range(rng.randint(1, 3)):
            self.emit_alu()  # writes only already-inited regs
        self.lines.append(f"{label}:")

    def emit_loop(self) -> None:
        rng = self.rng
        candidates = [r for r in range(6, 10) if r not in self.heap_regs]
        if not candidates:
            self.emit_alu()
            return
        counter = rng.choice(candidates)
        self.inited.add(counter)
        label = self.label()
        self.lines.append(f"mov r{counter}, {rng.randint(1, 40)}")
        self.lines.append(f"{label}:")
        for _ in range(rng.randint(1, 3)):
            self.emit_alu()
        self.lines.append(f"sub r{counter}, 1")
        self.lines.append(f"jne r{counter}, 0, {label}")

    def emit_region(self) -> None:
        """A load or store through the shared or the read-only region,
        often ending on its last byte, sometimes straddling it."""
        rng = self.rng
        candidates = [r for r in range(6, 10) if r not in self.heap_regs]
        if not candidates:
            return
        reg = rng.choice(candidates)
        self.inited.add(reg)
        base, length = rng.choice((SHARED_REGION, READONLY_REGION))
        size, suffix = rng.choice(_MEM_WIDTHS)
        offset = length - size
        if rng.random() < 0.6:
            offset = rng.randrange(offset + 1) if rng.random() < 0.85 else offset + rng.randrange(size)
        self.lines.append(f"lddw r{reg}, {base:#x}")
        if rng.random() < (0.1 if base == READONLY_REGION[0] else 0.5):
            src = rng.choice(sorted(r for r in self.inited if r != 10))
            self.lines.append(f"stx{suffix} [r{reg}+{offset}], r{src}")
        else:
            dst = rng.choice(sorted(r for r in self.inited if r not in (10, reg)))
            self.lines.append(f"ldx{suffix} r{dst}, [r{reg}+{offset}]")

    def emit_wild_pointer(self) -> None:
        """A dereference of an unmapped address: both engines must
        raise the same :class:`SandboxViolation`."""
        rng = self.rng
        candidates = [r for r in range(6, 10) if r not in self.heap_regs]
        if not candidates:
            return
        reg = rng.choice(candidates)
        self.inited.add(reg)
        address = 0x5000_0000 + rng.randrange(1 << 16)
        self.lines.append(f"lddw r{reg}, {address:#x}")
        size, suffix = rng.choice(_MEM_WIDTHS)
        self.lines.append(f"ldx{suffix} r0, [r{reg}+0]")

    def emit_epilogue(self) -> None:
        # Fold every live register into r0 and snapshot them to a
        # reserved stack window so the oracle's stack comparison sees
        # the full register file, then return.
        live = sorted(r for r in self.inited if r != 10)
        for index, reg in enumerate(live[:7]):
            self.lines.append(f"stxdw [r10-{456 + 8 * index}], r{reg}")
        self.lines.append("mov r0, 0")
        for reg in live:
            self.lines.append(f"add r0, r{reg}")
        self.lines.append("exit")

    def build(self) -> str:
        rng = self.rng
        for _ in range(rng.randint(1, 3)):
            self.emit_mov_init()
        emitters = (
            (self.emit_alu, 8),
            (self.emit_stack, 4),
            (self.emit_helper, 4),
            (self.emit_branch, 3),
            (self.emit_loop, 2),
            (self.emit_region, 2),
            (self.emit_mov_init, 1),
        )
        population = [fn for fn, weight in emitters for _ in range(weight)]
        for _ in range(rng.randint(6, 28)):
            rng.choice(population)()
        if rng.random() < 0.06:
            self.emit_wild_pointer()
        self.emit_epilogue()
        return "\n".join(self.lines) + "\n"


def gen_engine_case(seed) -> EngineCase:
    rng = random.Random(f"engine-{seed}")
    config = VerifierConfig(
        max_instructions=4096,
        allow_loops=True,
        allowed_helpers=set(FUZZ_HELPER_IDS.values()),
    )
    last_error = None
    for attempt in range(5):
        sub = random.Random(f"engine-{seed}-{attempt}")
        source = _ProgramEmitter(sub).build()
        try:
            program = assemble(source, FUZZ_HELPER_IDS)
            verify(program, config)
        except Exception as exc:  # generator bug — try a sibling seed
            last_error = exc
            continue
        inputs = tuple(rng.randrange(1 << 64) for _ in range(5))
        # Small budgets force budget blowouts through loops, checking
        # that both engines agree on the (normalised) outcome.
        step_budget = rng.choice((40, 120, 600, 4096))
        shared_writable = rng.random() < 0.75
        return EngineCase(seed, encode_program(program), inputs, step_budget, source, shared_writable)
    raise RuntimeError(f"engine generator produced unverifiable programs for seed {seed}: {last_error}")


def gen_oob_stack_source(seed) -> str:
    """A program with one statically out-of-bounds stack access; the
    verifier must reject it (unit-test fodder)."""
    rng = random.Random(f"oob-stack-{seed}")
    emitter = _ProgramEmitter(rng)
    emitter.emit_mov_init()
    for _ in range(rng.randint(0, 4)):
        emitter.emit_alu()
    size, suffix = rng.choice(_MEM_WIDTHS)
    bad_offsets = [
        -(512 + size * rng.randint(1, 8)),  # below the frame
        8 * rng.randint(1, 4),              # above r10
        0 if size > 0 else 8,               # offset+size crosses r10
        -(size - 1) if size > 1 else 8,     # straddles the top
    ]
    offset = rng.choice(bad_offsets)
    if rng.random() < 0.5:
        src = rng.choice(sorted(r for r in emitter.inited if r != 10))
        emitter.lines.append(f"stx{suffix} [r10{offset:+d}], r{src}")
    else:
        emitter.lines.append(f"ldx{suffix} r1, [r10{offset:+d}]")
    emitter.emit_epilogue()
    return "\n".join(emitter.lines) + "\n"


def gen_oob_pointer_source(seed) -> str:
    """A program whose heap pointer walks out of the sandbox: passes
    the static verifier but must fault identically on both engines."""
    rng = random.Random(f"oob-heap-{seed}")
    offset = rng.choice((1 << 20, 1 << 24)) + rng.randrange(1 << 12)
    size, suffix = rng.choice(_MEM_WIDTHS)
    return (
        "call halloc\n"
        "mov r6, r0\n"
        f"add r6, {offset}\n"
        f"ldx{suffix} r0, [r6+0]\n"
        "exit\n"
    )


# -- host cases --------------------------------------------------------

_PLUGINS = (None, "route_reflector", "origin_validation", "geoloc")


def gen_host_case(seed) -> HostCase:
    rng = random.Random(f"host-{seed}")
    plugin = rng.choice(_PLUGINS)
    session = "ibgp" if plugin == "route_reflector" else "ebgp"
    routes = _gen_routes(rng, max_routes=28)
    frames = _announce_frames(rng, routes, session)
    _insert_withdrawals(rng, frames, routes)
    if rng.random() < 0.4 and frames:  # duplicate re-advertisement
        frame = rng.choice(frames)
        frames.insert(rng.randint(0, len(frames)), frame)
    events: List[tuple] = [("frame", frame) for frame in frames]
    for _ in range(rng.randint(0, 2)):
        role = rng.choice(("upstream", "downstream"))
        field = rng.choice(_PEER_FIELDS)
        value = (rng.random() < 0.5) if field == "rr_client" else rng.randrange(1 << 32)
        events.insert(rng.randint(0, len(events)), ("peer", role, field, value))
    events.append(("frame", UpdateMessage.end_of_rib().encode()))

    roas: List[Roa] = []
    if plugin == "origin_validation":
        pairs = origins_of(routes)
        for prefix, asn in rng.sample(pairs, min(len(pairs), rng.randint(1, 12))):
            bad = rng.random() < 0.3
            roas.append(
                Roa(
                    prefix,
                    asn + 1 if bad else asn,
                    min(32, prefix.length + rng.randint(0, 4)),
                )
            )
    coord = None
    if plugin == "geoloc":
        coord = (round(rng.uniform(-60.0, 60.0), 4), round(rng.uniform(-170.0, 170.0), 4))
    engine = rng.choice(("jit", "interp"))
    if rng.random() < 0.4:
        # A second upstream contests some of the prefixes: the same path,
        # one hop shorter or one longer, with fresh ORIGIN and MED draws.
        # An iBGP one also gives an eBGP case both kinds of export target.
        kind = session if session == "ibgp" else rng.choice(("ebgp", "ibgp"))
        contest = []
        for spec in rng.sample(routes, rng.randint(1, len(routes))):
            path = spec.as_path
            path = (path[1:] or path, path, path[:1] + path)[rng.randrange(3)]
            med = rng.choice((None, spec.med, rng.randrange(100)))
            contest.append(spec._replace(as_path=path, med=med, origin=rng.randrange(3)))
        frames = _announce_frames(rng, contest, kind, _UPSTREAM2, 65300)
        _insert_withdrawals(rng, frames, contest)
        role = "upstream2" if kind == "ebgp" else "upstream2-ibgp"
        for frame in frames:  # all before the closing End-of-RIB
            events.insert(rng.randint(0, len(events) - 1), ("frame", frame, role))
    if plugin == "route_reflector" and len(routes) > 1 and rng.random() < 0.5:
        # A non-client sends one of the client's blocks for one prefix;
        # then the client withdraws that prefix while announcing another
        # with the same block, so one sweep exports the block from both.
        shared, other = rng.sample(routes, 2)
        block = build_updates([shared], parse_ipv4(_UPSTREAM))[0].attributes
        events.insert(0, ("peer", "upstream2-ibgp", "rr_client", False))
        events[-1:-1] = [
            ("frame", UpdateMessage(attributes=block, nlri=[shared.prefix]).encode(), "upstream2-ibgp"),
            ("frame", UpdateMessage([shared.prefix], block, [other.prefix]).encode()),
        ]
    return HostCase(seed, plugin, session, events, roas, coord, engine)
