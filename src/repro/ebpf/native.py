"""eBPF → specialized structured Python: the compiled tier.

``tier="jit"`` is this compiler.  It reconstructs *structured* control
flow from the verified program's CFG and emits a single specialized
Python function; the ``while True`` dispatch loop over basic-block
leaders (:mod:`repro.ebpf.jit`) is what it falls back on, per block or
per program, and nothing outside this module chooses between the two:

* forward conditional branches become ``if not cond:`` regions and
  if/else diamonds (detected from the trailing-``ja`` pattern xc's
  codegen produces), so straight-line plugin code runs with **zero
  dispatch** — no ``pc`` variable exists in the structured section;
* natural loops (contiguous back-edge regions) become ``while True:``
  with ``continue``/``break``, re-checking the instruction budget at
  the loop header every iteration exactly like a dispatch block entry;
* stack accesses whose address is provably ``FP + constant`` — either
  directly ``[r10 + off]`` (statically bounds-checked by the verifier)
  or through a register the per-block dataflow shows holds a copied
  frame pointer — are lowered to direct ``bytearray`` operations with
  **no runtime bounds re-checks**; 8-byte scalar slots promote to
  Python locals.  Heap and unprovable accesses keep the block
  emitter's probe sequence so fault behaviour (and the differential-
  fuzz oracle's view of it) is bit-identical;
* control flow the structurer cannot express (jumps into another
  loop's body, overlapping loop ranges…) *bails*: the generated code
  raises an in-function :class:`_Bail` caught by a handler whose body
  is the dispatch loop.  Python exception handlers share the
  function's locals, so registers, promoted slots and the step/helper
  counters survive the demotion and the run completes with identical
  semantics.  A program where more than half the blocks would live
  only in that tail — or one that is oversized or uses a pinned opcode
  — is *declined*: :func:`compile_program` emits the whole of it as a
  dispatch loop and records why in :attr:`NativeInfo.declined`
  (``xbgp profile`` and ``vmm.tiers()`` report it).

Step/helper accounting follows the dispatch loop's contract exactly:
one step per executed instruction (``lddw`` counts once), flushed
before every fault-capable operation and at every block boundary,
budget checked per block — so the engine fuzz oracle (interp ×
compiled × dispatch-only) holds result, steps, helper-call sequence
and heap image equal, with per-block budget granularity remaining the
single documented divergence.  Direct stack operations cannot fault,
which is what lets the structured section batch ``steps`` further than
the dispatch loop can.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .helpers import HelperTable
from .isa import (
    ALU_OPS,
    BPF_ALU,
    BPF_ALU64,
    BPF_JMP,
    BPF_JMP32,
    BPF_LDX,
    BPF_STX,
    BPF_X,
    JMP_OPS,
    OP_CALL,
    OP_EXIT,
    OP_JA,
    OP_LDDW,
    SIZE_BYTES,
    Instruction,
    class_of,
    is_load_store,
)
from .jit import (
    JitError,
    _JMP_NAMES,
    _M32,
    _M64,
    _BlockEmitter,
    _Writer,
    _count_insns,
    _emit_prologue,
    _finish,
    _leaders,
    _namespace,
    _promotable_slots,
    _reg,
    emit_dispatch_loop,
    terminal_ids,
    translate,
)
from .memory import VmMemory
from .vm import ExecutionError

__all__ = ["compile_program", "translate_native", "NativeUnsupported", "NativeInfo"]

#: Programs larger than this are declined: structured emission is
#: linear, but ``compile()`` time at attach grows with program size and
#: plugins this large are outside the xc-generated shape anyway.
MAX_PROGRAM_SLOTS = 16384

#: Opcodes pinned to the dispatch loop.  Empty by default — the
#: structurer covers the full ISA — but kept as an explicit seam so ISA
#: growth (or an operator chasing a suspected miscompile) can demote
#: individual opcodes without losing the program to the interpreter.
PINNED_OPCODES: frozenset = frozenset()


class NativeUnsupported(Exception):
    """The structurer declines the program; the message says why.

    :func:`compile_program` catches this and emits the dispatch-only
    form instead, recording the reason.
    """


class _Bail(Exception):
    """Raised *inside* the generated function to demote the rest of the
    run onto the dispatch tail.  Never escapes ``run``."""

    __slots__ = ("pc",)

    def __init__(self, pc: int):
        super().__init__(f"pc={pc}")
        self.pc = pc


class NativeInfo:
    """What the compiler did with one program (profiler, CLI, fuzz report).

    ``structured_blocks`` run with no dispatch; ``bail_blocks`` are
    reachable only through the dispatch loop — the tail of a partly
    structured program, or every block of a declined one, in which case
    ``declined`` holds the structurer's reason.
    """

    __slots__ = (
        "structured_blocks",
        "bail_blocks",
        "bail_sites",
        "loops",
        "direct_stack_ops",
        "source",
        "declined",
    )

    def __init__(
        self,
        structured_blocks: List[int],
        bail_blocks: List[int],
        bail_sites: int = 0,
        loops: int = 0,
        direct_stack_ops: int = 0,
        source: str = "",
        declined: Optional[str] = None,
    ):
        self.structured_blocks = structured_blocks
        self.bail_blocks = bail_blocks
        self.bail_sites = bail_sites
        self.loops = loops
        self.direct_stack_ops = direct_stack_ops
        self.source = source
        self.declined = declined

    @property
    def shape(self) -> str:
        """``structured`` (no dispatch loop emitted), ``tail`` (structured
        with a dispatch tail) or ``dispatch`` (declined: dispatch only)."""
        if self.declined is not None:
            return "dispatch"
        return "tail" if self.bail_sites else "structured"

    def summary(self) -> Dict[str, object]:
        """The JSON-able attribution ``vmm.tiers()`` and profiles carry."""
        return {
            "shape": self.shape,
            "structured_blocks": len(self.structured_blocks),
            "tail_blocks": 0 if self.declined else len(self.bail_blocks),
            "dispatch_only_blocks": len(self.bail_blocks) if self.declined else 0,
            "bail_sites": self.bail_sites,
            "loops": self.loops,
            "direct_stack_ops": self.direct_stack_ops,
            "declined": self.declined,
        }


def _scan_supported(program: Sequence[Instruction]) -> None:
    """Reject unknown/pinned opcodes before any structural work."""
    index = 0
    count = len(program)
    while index < count:
        insn = program[index]
        opcode = insn.opcode
        if opcode in PINNED_OPCODES:
            raise NativeUnsupported(f"opcode {opcode:#x} pinned to the dispatch loop")
        width = 2 if opcode == OP_LDDW else 1
        klass = class_of(opcode)
        if opcode in (OP_LDDW, OP_EXIT, OP_CALL, OP_JA):
            pass
        elif klass in (BPF_JMP, BPF_JMP32):
            if (opcode & 0xF0) not in _JMP_NAMES:
                raise NativeUnsupported(f"unknown jump opcode {opcode:#x} at {index}")
        elif klass in (BPF_ALU, BPF_ALU64):
            if (opcode & 0xF0) not in {code for code in ALU_OPS.values()}:
                raise NativeUnsupported(f"unknown ALU opcode {opcode:#x} at {index}")
        elif is_load_store(opcode):
            if SIZE_BYTES.get(opcode & 0x18) is None:
                raise NativeUnsupported(f"bad size in opcode {opcode:#x} at {index}")
        else:
            raise NativeUnsupported(f"unknown opcode {opcode:#x} at {index}")
        index += width


def _find_loops(program: Sequence[Instruction]) -> Dict[int, int]:
    """Back-edge targets → one past the last back-edge source.

    ``loops[h] = e`` means every jump targeting ``h`` from behind sits
    in ``[h, e)``; if that whole range nests inside the region being
    emitted, the loop is expressible as ``while True:``.
    """
    loops: Dict[int, int] = {}
    index = 0
    count = len(program)
    while index < count:
        insn = program[index]
        opcode = insn.opcode
        width = 2 if opcode == OP_LDDW else 1
        klass = class_of(opcode)
        if (
            klass in (BPF_JMP, BPF_JMP32)
            and opcode not in (OP_CALL, OP_EXIT)
        ):
            target = index + 1 + insn.offset
            if target <= index:
                loops[target] = max(loops.get(target, 0), index + 1)
        index += width
    return loops


def _insn_starts(program: Sequence[Instruction]) -> Set[int]:
    starts: Set[int] = set()
    index = 0
    while index < len(program):
        starts.add(index)
        index += 2 if program[index].opcode == OP_LDDW else 1
    return starts


class _NativeEmitter(_BlockEmitter):
    """The block emitter plus FP-provenance direct stack lowering.

    Tracks, per basic block, which registers hold ``FP + constant``
    (seeded by ``mov rX, r10``, propagated through 64-bit ``mov``/
    ``add imm``/``sub imm``, killed by anything else).  Loads/stores
    through such registers — and through ``r10`` itself, whose offsets
    the verifier bounds statically — compile to direct ``stk`` buffer
    operations with no runtime checks.  Everything else falls back to
    the inherited probe sequence, keeping fault behaviour identical to
    the dispatch loop's.
    """

    def __init__(self, program, slots, profiled, stack_size, shared, terminal):
        super().__init__(program, slots, profiled, shared, terminal)
        self.stack_size = stack_size
        self.fp_delta: Dict[int, int] = {}
        #: promoted-slot offset -> FP delta, for pointers that round-trip
        #: through a stack slot (xc keeps every local in one): the slot
        #: is a Python local, so provenance survives the store/reload.
        self.slot_delta: Dict[int, int] = {}
        self.direct_stack_ops = 0

    def begin_block(self, leader: int) -> None:
        self.block_leader = leader
        self.mirrors.reset()
        self.fp_delta.clear()
        self.slot_delta.clear()

    # -- FP provenance ---------------------------------------------------

    def untrack(self, register: int) -> None:
        self.fp_delta.pop(register, None)

    def untrack_many(self, registers) -> None:
        for register in registers:
            self.fp_delta.pop(register, None)

    def track_alu(self, insn: Instruction, klass: int) -> None:
        """Update FP provenance after an ALU op wrote ``insn.dst``."""
        op = insn.opcode & 0xF0
        if klass == BPF_ALU64:
            if op == ALU_OPS["mov"] and insn.opcode & BPF_X:
                if insn.src == 10:
                    self.fp_delta[insn.dst] = 0
                    return
                delta = self.fp_delta.get(insn.src)
                if delta is not None:
                    self.fp_delta[insn.dst] = delta
                    return
            elif op in (ALU_OPS["add"], ALU_OPS["sub"]) and not (
                insn.opcode & BPF_X
            ):
                delta = self.fp_delta.get(insn.dst)
                if delta is not None:
                    self.fp_delta[insn.dst] = delta + (
                        insn.imm if op == ALU_OPS["add"] else -insn.imm
                    )
                    return
        self.untrack(insn.dst)

    def _overlaps_slot(self, total: int, size: int) -> bool:
        return any(s < total + size and total < s + 8 for s in self.slots)

    # -- lowering --------------------------------------------------------

    def _emit_load_store(self, w, indent, insn, klass) -> None:
        size = SIZE_BYTES[insn.opcode & 0x18]
        base = insn.src if klass == BPF_LDX else insn.dst
        offset = insn.offset
        # Exactly the accesses the base class routes to promoted slot
        # locals must keep doing so; everything else may direct-lower.
        slot_handled = base == 10 and offset in self.slots
        if slot_handled:
            super()._emit_load_store(w, indent, insn, klass)
            if klass == BPF_LDX:
                delta = self.slot_delta.get(offset)
                if delta is not None:
                    self.fp_delta[insn.dst] = delta
                else:
                    self.untrack(insn.dst)
            elif klass == BPF_STX:
                delta = self.fp_delta.get(insn.src)
                if delta is not None:
                    self.slot_delta[offset] = delta
                else:
                    self.slot_delta.pop(offset, None)
            else:  # BPF_ST: an immediate is never an FP pointer
                self.slot_delta.pop(offset, None)
            return
        if not self.profiled:
            delta = 0 if base == 10 else self.fp_delta.get(base)
            if delta is not None:
                total = delta + offset
                if (
                    -self.stack_size <= total
                    and total + size <= 0
                    and not self._overlaps_slot(total, size)
                ):
                    self._emit_direct_stack(
                        w, indent, insn, klass, size, self.stack_size + total
                    )
                    if klass == BPF_LDX:
                        self.mirrors.kill_reg(insn.dst)
                        self.untrack(insn.dst)
                    return
        super()._emit_load_store(w, indent, insn, klass)
        if klass == BPF_LDX:
            self.untrack(insn.dst)

    def _emit_direct_stack(self, w, indent, insn, klass, size, o) -> None:
        # Verifier/dataflow proved [o, o+size) ⊆ the stack buffer: no
        # probe, no flush (direct buffer ops cannot fault).
        self.direct_stack_ops += 1
        if klass == BPF_LDX:
            dst = _reg(insn.dst)
            if size == 1:
                w.emit(indent, f"{dst} = stk[{o}]")
            else:
                w.emit(indent, f"{dst} = int_from(stk[{o}:{o + size}], 'little')")
            return
        if klass == BPF_STX:
            src = _reg(insn.src)
            if size == 1:
                w.emit(indent, f"stk[{o}] = {src} & 0xff")
            elif size == 8:
                # registers are invariantly masked to 64 bits
                w.emit(indent, f"stk[{o}:{o + 8}] = {src}.to_bytes(8, 'little')")
            else:
                mask = (1 << (8 * size)) - 1
                w.emit(
                    indent,
                    f"stk[{o}:{o + size}] = ({src} & {mask})"
                    f".to_bytes({size}, 'little')",
                )
            return
        # BPF_ST: the stored bytes are a translate-time constant.
        data = ((insn.imm & _M64) & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )
        if size == 1:
            w.emit(indent, f"stk[{o}] = {data[0]}")
        else:
            w.emit(indent, f"stk[{o}:{o + size}] = {data!r}")


class _Structurer:
    """Walks the program in layout order, emitting structured Python."""

    def __init__(
        self,
        program: Sequence[Instruction],
        leaders: List[int],
        loops: Dict[int, int],
        insn_starts: Set[int],
        emitter: _NativeEmitter,
        step_budget: int,
        w: _Writer,
        profiled: bool,
    ):
        self.program = program
        self.leaders = leaders
        self.leader_set = set(leaders)
        self.loops = loops
        self.insn_starts = insn_starts
        self.emitter = emitter
        self.step_budget = step_budget
        self.w = w
        self.profiled = profiled
        count = len(program)
        self.block_count = {
            leader: _count_insns(
                program,
                leader,
                leaders[i + 1] if i + 1 < len(leaders) else count,
            )
            for i, leader in enumerate(leaders)
        }
        self.structured: Set[int] = set()
        self.active_headers: Set[int] = set()
        self.bail_sites = 0
        self.bail_targets: Set[int] = set()
        self.loop_count = 0
        self.preds = self._predecessors()
        self.last = -1  # the instruction emitted last (-1: the entry)

    def _predecessors(self) -> Dict[int, List[int]]:
        """CFG edges into each instruction, by source (-1: the entry)."""
        program = self.program
        count = len(program)
        preds: Dict[int, List[int]] = {0: [-1]}
        index = 0
        while index < count:
            insn = program[index]
            opcode = insn.opcode
            after = index + (2 if opcode == OP_LDDW else 1)
            if opcode == OP_EXIT:
                pass
            elif opcode == OP_JA:
                preds.setdefault(index + 1 + insn.offset, []).append(index)
            elif (
                class_of(opcode) in (BPF_JMP, BPF_JMP32)
                and opcode != OP_CALL
            ):
                preds.setdefault(index + 1 + insn.offset, []).append(index)
                preds.setdefault(after, []).append(index)
            else:
                preds.setdefault(after, []).append(index)
            index = after
        return preds

    def _bail(self, w: _Writer, indent: int, target: int) -> None:
        self.emitter._flush_steps(w, indent)
        w.emit(indent, f"raise Bail({target})")
        self.bail_sites += 1
        self.bail_targets.add(target)

    def _enter_leader(self, w: _Writer, indent: int, leader: int) -> None:
        em = self.emitter
        header = leader in self.active_headers
        if (
            not header
            and not self.profiled
            and self.preds.get(leader) == [self.last]
        ):
            # The leader's only predecessor is the instruction just
            # emitted, so its mirror state, FP provenance and pending
            # step count still hold.  Fuse the blocks — no flush, no
            # reset — which turns branch arms into straight-line code.
            # Joins, loop headers and leaders entered from further back
            # (an else arm, the code after a loop) still reset, and
            # profiled translations never fuse so per-block counters
            # stay exact.
            self.structured.add(leader)
            return
        em._flush_steps(w, indent)
        if header:
            # The budget guard lives only where a run can actually
            # diverge from the interpreter's abort decision: loop
            # headers (the sole way step counts grow unboundedly),
            # helper-call sites and exit.  Straight-line blocks are
            # bounded by the verifier's max_instructions, so skipping
            # their per-leader checks never lets an over-budget run
            # return — it is caught at the next header or at exit with
            # the exact step count (the known per-block-vs-per-step
            # abort-point skew the oracle already normalises).
            w.emit(
                indent,
                f"if steps + {self.block_count[leader]} > {self.step_budget}: "
                f"raise ExecBudget({leader})",
            )
        if self.profiled:
            w.emit(indent, f"PB[{leader}] += 1")
        em.begin_block(leader)
        self.structured.add(leader)

    def emit_range(self, i: int, end: int, ctx: Dict[int, str], indent: int) -> bool:
        """Emit execution from slot ``i`` until ``end``.

        ``ctx`` maps jump targets of the innermost enclosing loop to the
        Python statement realising them (``continue`` for the header,
        ``break`` for the loop end).  Returns True when every path
        terminates (exit/bail/loop action) before reaching ``end``.
        """
        if indent > 80:
            # CPython's parser caps indentation at 100 levels; long
            # early-return chains nest an else per return.  Demote the
            # whole program rather than risk a SyntaxError.
            raise NativeUnsupported("structured control flow nests too deeply")
        w = self.w
        em = self.emitter
        program = self.program
        while i < end:
            loop_end = self.loops.get(i)
            if loop_end is not None and i not in self.active_headers:
                em._flush_steps(w, indent)
                if loop_end > end:
                    # Loop body crosses the current region (overlapping
                    # loops / jump into a sibling loop): demote.
                    self._bail(w, indent, i)
                    return True
                self.loop_count += 1
                w.emit(indent, "while True:")
                self.active_headers.add(i)
                inner = {i: "continue", loop_end: "break"}
                terminated = self.emit_range(i, loop_end, inner, indent + 1)
                self.active_headers.discard(i)
                if not terminated:
                    w.emit(indent + 1, "break")
                i = loop_end
                continue
            if i in self.leader_set:
                self._enter_leader(w, indent, i)
            self.last = i
            insn = program[i]
            opcode = insn.opcode
            klass = class_of(opcode)
            em._pending += 1

            if opcode == OP_LDDW:
                value = (insn.imm & _M32) | ((program[i + 1].imm & _M32) << 32)
                w.emit(indent, f"{_reg(insn.dst)} = {value}")
                em.mirrors.kill_reg(insn.dst)
                em.untrack(insn.dst)
                i += 2
                continue

            if opcode == OP_EXIT:
                em._flush_steps(w, indent)
                # ``steps`` is exact here (the exit pre-counted): abort
                # iff the interpreter would have aborted somewhere.
                w.emit(
                    indent,
                    f"if steps > {self.step_budget}: raise ExecBudget({i})",
                )
                w.emit(indent, "vm.steps_executed = steps; vm.helper_calls = hc")
                w.emit(indent, "return r0")
                return True

            if opcode == OP_CALL:
                em._flush_steps(w, indent)
                # Never run a helper (observable side effects) on a run
                # the interpreter would already have aborted.
                w.emit(
                    indent,
                    f"if steps > {self.step_budget}: raise ExecBudget({i})",
                )
                em.emit_call(w, indent, insn.imm)
                em.untrack_many(range(0, 6))
                i += 1
                continue

            if opcode == OP_JA:
                target = i + 1 + insn.offset
                action = ctx.get(target)
                if action is not None:
                    em._flush_steps(w, indent)
                    w.emit(indent, action)
                    return True
                if i < target <= end:
                    # Forward skip: [i+1, target) is unreachable from the
                    # structured section — the walker just moves on (the
                    # ja itself is already counted in _pending).
                    i = target
                    continue
                # Backward to a non-active header, or forward out of the
                # region: demote onto the dispatch tail.
                self._bail(w, indent, target)
                return True

            if klass in (BPF_JMP, BPF_JMP32):
                target = i + 1 + insn.offset
                cond = em.cond_expr(insn, klass)
                action = ctx.get(target)
                if action is not None:
                    em._flush_steps(w, indent)
                    w.emit(indent, f"if {cond}:")
                    w.emit(indent + 1, action)
                    i += 1
                    continue
                if target == i + 1:
                    # Branch to fall-through: the condition is dead but
                    # the instruction still costs a step.
                    i += 1
                    continue
                if i + 1 < target <= end:
                    em._flush_steps(w, indent)
                    # if/else diamond: the skipped region ends in an
                    # unconditional forward ja over the taken region.
                    join = None
                    j = target - 1
                    if j > i and j in self.insn_starts and program[j].opcode == OP_JA:
                        u = j + 1 + program[j].offset
                        if target < u <= end and ctx.get(u) is None:
                            join = u
                    if join is not None:
                        w.emit(indent, f"if not ({cond}):")
                        then_done = self.emit_range(i + 1, j, ctx, indent + 1)
                        if not then_done:
                            em._pending += 1  # the folded ja
                            em._flush_steps(w, indent + 1)
                        w.emit(indent, "else:")
                        self.emit_range(target, join, ctx, indent + 1)
                        i = join
                        continue
                    w.emit(indent, f"if not ({cond}):")
                    self.emit_range(i + 1, target, ctx, indent + 1)
                    i = target
                    continue
                # Target outside the region and not a loop action:
                # conditional demotion onto the dispatch tail.
                em._flush_steps(w, indent)
                w.emit(indent, f"if {cond}:")
                w.emit(indent + 1, f"raise Bail({target})")
                self.bail_sites += 1
                self.bail_targets.add(target)
                i += 1
                continue

            if klass in (BPF_ALU, BPF_ALU64):
                em._emit_alu(w, indent, insn, klass)
                em.mirrors.kill_reg(insn.dst)
                em.track_alu(insn, klass)
                i += 1
                continue

            if is_load_store(opcode):
                em._emit_load_store(w, indent, insn, klass)
                i += 1
                continue

            raise NativeUnsupported(f"unhandled opcode {opcode:#x} at {i}")

        em._flush_steps(w, indent)
        return False


def translate_native(
    program: Sequence[Instruction],
    helpers: HelperTable,
    memory: VmMemory,
    step_budget: int,
    vm,
    trusted_layout: bool = False,
    profile=None,
) -> Tuple[object, NativeInfo]:
    """Compile ``program`` to a structured ``run(r1..r5) -> r0``.

    Returns ``(run, info)`` or raises :class:`NativeUnsupported` when
    the program is outside the structurer's envelope (unknown/pinned
    opcode, oversized, or control flow so irregular that most blocks
    would only be reachable through the dispatch tail).  Semantics,
    step/helper accounting and fault behaviour are identical to the
    interpreter and the dispatch loop; see the module docstring.
    """
    count = len(program)
    if count == 0:
        raise NativeUnsupported("empty program")
    if count > MAX_PROGRAM_SLOTS:
        raise NativeUnsupported(
            f"program too large to structure ({count} > {MAX_PROGRAM_SLOTS} slots)"
        )
    _scan_supported(program)

    leaders = _leaders(program)
    loops = _find_loops(program)
    insn_starts = _insn_starts(program)
    slots = _promotable_slots(program, trusted_layout) if profile is None else set()
    namespace = _namespace(helpers, memory, step_budget, vm, profile)
    namespace["Bail"] = _Bail
    namespace["XErr"] = ExecutionError
    terminal = terminal_ids(helpers)
    emitter = _NativeEmitter(
        program,
        slots,
        profiled=profile is not None,
        stack_size=len(memory.stack.data),
        shared=memory.shared_region,
        terminal=terminal,
    )

    w = _Writer()
    _emit_prologue(w, slots)
    w.emit(2, "try:")

    structurer = _Structurer(
        program, leaders, loops, insn_starts, emitter, step_budget, w,
        profiled=profile is not None,
    )
    terminated = structurer.emit_range(0, count, {}, 3)
    if not terminated:
        # The verifier rejects fall-off-the-end programs; defensive.
        w.emit(3, f'raise XErr({count}, "program counter out of range")')

    if structurer.bail_sites:
        bail_blocks = [l for l in leaders if l not in structurer.structured]
        if 2 * len(bail_blocks) > len(leaders):
            raise NativeUnsupported(
                "control flow too irregular to structure: "
                f"{len(bail_blocks)}/{len(leaders)} blocks reachable only "
                "through the dispatch tail"
            )
        # Demoted control flow: a dispatch loop sharing this function's
        # locals (registers, slots, steps/hc all survive the raise).
        # Full leader list so fall-through inlining stays valid.
        w.emit(2, "except Bail as _b:")
        w.emit(3, "pc = _b.pc")
        w.emit(3, "while True:")
        tail = _BlockEmitter(
            program, slots, profiled=profile is not None, shared=memory.shared_region,
            terminal=terminal,
        )
        emit_dispatch_loop(
            w, program, leaders, tail, step_budget, 4, profile is not None
        )
    else:
        bail_blocks = []
        w.emit(2, "except Bail:")  # unreachable: no bail sites were emitted
        w.emit(3, "raise")

    try:
        run, source = _finish(w, namespace, "<ebpf-native>")
    except JitError as exc:  # pragma: no cover - would be a bug
        raise NativeUnsupported(str(exc)) from exc

    info = NativeInfo(
        structured_blocks=sorted(structurer.structured),
        bail_blocks=bail_blocks,
        bail_sites=structurer.bail_sites,
        loops=structurer.loop_count,
        direct_stack_ops=emitter.direct_stack_ops,
        source=source,
    )
    return run, info


def compile_program(
    program: Sequence[Instruction],
    helpers: HelperTable,
    memory: VmMemory,
    step_budget: int,
    vm,
    trusted_layout: bool = False,
    profile=None,
) -> Tuple[object, NativeInfo]:
    """The compiled tier: ``(run, info)`` for any verified program.

    Structured where the control flow allows, a dispatch tail for the
    blocks it does not, and the dispatch-only form for a program the
    structurer declines — decided here from the program alone.
    """
    try:
        return translate_native(
            program, helpers, memory, step_budget, vm, trusted_layout, profile
        )
    except NativeUnsupported as exc:
        run = translate(
            program, helpers, memory, step_budget, vm, trusted_layout, profile
        )
        return run, NativeInfo([], _leaders(program), declined=str(exc))
