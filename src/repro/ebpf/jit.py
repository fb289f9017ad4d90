"""eBPF → Python translation: block emitter and dispatch loop.

The paper poses *"How to implement this instruction set efficiently —
so as to minimize the overhead?"*.  On a Python substrate the naive
interpreter's per-instruction dispatch dominates everything, so the
compiled tier (``tier="jit"``) translates a verified program into one
Python function.  :mod:`repro.ebpf.native` is that tier's entry point
and owns its control flow; this module owns what every compiled form
shares:

* basic blocks become straight-line Python statements
  (:class:`_BlockEmitter`);
* 8-byte stack slots addressed as ``[r10 ± const]`` are **promoted to
  Python locals** when the program never materialises a stack address
  (no ``mov rX, r10``-style ALU use of r10 and no sub-word stack
  access) — the common case for xc-generated code.  A per-block
  copy-propagation pass then elides redundant slot↔register transfers;
* loads and stores through pointers inline bounds-checked ``bytearray``
  fast paths for the heap, the stack and the program's shared region
  (:attr:`VmMemory.shared_region`; stores only while it is writable),
  falling back to :class:`VmMemory` for every other address;
* helper calls dispatch directly to the bound Python callables, and
  a call to a *terminal* helper publishes the counters and returns
  :data:`~repro.ebpf.helpers.TERMINATED` right there;
* control flow the structurer cannot express runs on a ``while True``
  dispatch loop over block leaders (:func:`emit_dispatch_loop`): the
  tail of a partly structured program, and the whole of one the
  structurer declines (:func:`translate`).

Semantics are identical to :class:`repro.ebpf.vm.VirtualMachine` (the
property tests and the engine fuzz oracle check translated-vs-
interpreted equivalence); the instruction budget is enforced per basic
block.  ``steps``/``hc`` accounting matches the interpreter exactly —
one step per executed instruction (``lddw`` counts once), flushed
before every operation that can fault or delegate — so both tiers
report identical ``steps_executed``/``helper_calls`` on returning,
``next()``-ing and faulting runs.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set

from .helpers import TERMINATED, HelperTable
from .isa import (
    ALU_OPS,
    BPF_ALU,
    BPF_ALU64,
    BPF_JMP,
    BPF_JMP32,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_ST,
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
from .memory import MemoryRegion, VmMemory
from .vm import ExecutionError

__all__ = ["translate", "helper_globals", "JitError"]

_M64 = (1 << 64) - 1

#: Leader ranges at or below this size dispatch via a flat if/elif run;
#: larger ranges split into a balanced binary search on ``pc``.
_LINEAR_DISPATCH_MAX = 4

#: How many successor blocks a dispatch leaf inlines when control just
#: falls through (no taken jump).  Straight-line runs and not-taken
#: conditionals then execute without bouncing through the dispatch
#: loop; only *taken* jumps pay the O(log blocks) search.  Bounded so
#: generated-code size stays linear-ish in the program size.
_FALLTHROUGH_INLINE_MAX = 6
_M32 = (1 << 32) - 1

_ALU_NAMES = {code: name for name, code in ALU_OPS.items()}
_JMP_NAMES = {code: name for name, code in JMP_OPS.items()}
_COND = {
    "jeq": "==",
    "jne": "!=",
    "jgt": ">",
    "jge": ">=",
    "jlt": "<",
    "jle": "<=",
}
_SIGNED_COND = {"jsgt": ">", "jsge": ">=", "jslt": "<", "jsle": "<="}


class JitError(Exception):
    """Translation failed (malformed program — verifier should have
    caught it, so this indicates an internal inconsistency)."""


def _leaders(program: Sequence[Instruction]) -> List[int]:
    leaders: Set[int] = {0}
    index = 0
    count = len(program)
    while index < count:
        instruction = program[index]
        opcode = instruction.opcode
        width = 2 if opcode == OP_LDDW else 1
        klass = class_of(opcode)
        if klass in (BPF_JMP, BPF_JMP32) and opcode != OP_CALL:
            if opcode == OP_EXIT:
                if index + 1 < count:
                    leaders.add(index + 1)
            else:
                leaders.add(index + 1 + instruction.offset)
                if index + 1 < count:
                    leaders.add(index + 1)
        index += width
    return sorted(leader for leader in leaders if 0 <= leader < count)


def _count_insns(program: Sequence[Instruction], start: int, end: int) -> int:
    """Instructions (not slots) in ``[start, end)`` — ``lddw`` is one."""
    total = 0
    index = start
    while index < end:
        total += 1
        index += 2 if program[index].opcode == OP_LDDW else 1
    return total


#: Matches repro.xc.codegen.SCALAR_LIMIT: with a trusted layout, stack
#: offsets in (-SCALAR_LIMIT, 0) are scalar slots never aliased by
#: pointers, so they can live in Python locals.
SCALAR_LIMIT = 384


def _promotable_slots(
    program: Sequence[Instruction], trusted_layout: bool = False
) -> Set[int]:
    """Offsets of [r10+off] 8-byte slots safe to keep in Python locals.

    Without a trusted layout: empty (no promotion) when the program
    materialises a stack address or touches the stack with sub-word
    granularity, since a pointer could then alias any slot.

    With ``trusted_layout`` (bytecode produced by :mod:`repro.xc`,
    whose frame segregates address-taken blocks below ``-SCALAR_LIMIT``)
    the scalar half is promoted even when stack addresses escape.
    """
    slots: Set[int] = set()
    escape = False
    for instruction in program:
        opcode = instruction.opcode
        klass = class_of(opcode)
        if klass in (BPF_ALU, BPF_ALU64):
            if opcode & BPF_X and instruction.src == 10:
                escape = True
            continue
        if klass in (BPF_JMP, BPF_JMP32):
            if opcode & BPF_X and instruction.src == 10:
                escape = True
            continue
        if is_load_store(opcode) and opcode != OP_LDDW:
            size = SIZE_BYTES[opcode & 0x18]
            base = instruction.src if klass == BPF_LDX else instruction.dst
            if klass == BPF_STX and instruction.src == 10:
                escape = True
            if base == 10:
                offset = instruction.offset
                if trusted_layout:
                    if size == 8 and -SCALAR_LIMIT < offset < 0:
                        slots.add(offset)
                    # block-region / sub-word accesses stay in memory
                elif size != 8:
                    return set()
                else:
                    slots.add(offset)
    if escape and not trusted_layout:
        return set()
    return slots


def _slot_var(offset: int) -> str:
    return f"s_m{-offset}" if offset < 0 else f"s_p{offset}"


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)


class _Mirrors:
    """Per-block copy propagation between registers and promoted slots."""

    def __init__(self) -> None:
        self._reg_of: Dict[int, int] = {}  # slot offset -> register
        self._slot_of: Dict[int, int] = {}  # register -> slot offset

    def reset(self) -> None:
        self._reg_of.clear()
        self._slot_of.clear()

    def kill_reg(self, register: int) -> None:
        slot = self._slot_of.pop(register, None)
        if slot is not None and self._reg_of.get(slot) == register:
            del self._reg_of[slot]

    def kill_regs(self, registers) -> None:
        for register in registers:
            self.kill_reg(register)

    def bind(self, register: int, slot: int) -> None:
        self.kill_reg(register)
        old = self._reg_of.get(slot)
        if old is not None:
            self._slot_of.pop(old, None)
        self._reg_of[slot] = register
        self._slot_of[register] = slot

    def holds(self, register: int, slot: int) -> bool:
        return self._reg_of.get(slot) == register


def emit_dispatch_loop(
    w: "_Writer",
    program: Sequence[Instruction],
    leaders: List[int],
    emitter: "_BlockEmitter",
    step_budget: int,
    indent: int,
    profiled: bool,
) -> None:
    """Emit the ``pc``-dispatch body over ``leaders``.

    The caller provides the enclosing ``while True:`` loop; this emits a
    balanced binary search over block leaders with fall-through inlining.
    Shared between :func:`translate` (whole-program dispatch) and the
    structured compiler's tail (:mod:`repro.ebpf.native`), which demotes
    unstructurable control flow onto exactly this loop.
    """
    count = len(program)

    def emit_leaf(block_index: int, ind: int) -> None:
        # Emit the block, then keep inlining fall-through successors (up
        # to _FALLTHROUGH_INLINE_MAX) so straight-line control flow
        # never re-enters the dispatch loop.  Inlined blocks may also
        # exist as their own dispatch leaves (they are jump targets);
        # the duplication trades code size for dispatch rounds.
        index = block_index
        while True:
            leader = leaders[index]
            end = leaders[index + 1] if index + 1 < len(leaders) else count
            # Budget checked against the whole block up front (bounds
            # loops without per-instruction tests); steps themselves
            # accrue incrementally inside the block so mid-block faults
            # report the same count the interpreter would.
            block_insns = _count_insns(program, leader, end)
            w.emit(
                ind,
                f"if steps + {block_insns} > {step_budget}: raise ExecBudget({leader})",
            )
            if profiled:
                # Entry counter after the budget check: entries count
                # blocks that actually started executing.
                w.emit(ind, f"PB[{leader}] += 1")
            emitter.block_leader = leader
            last = (
                index + 1 >= len(leaders)
                or index - block_index >= _FALLTHROUGH_INLINE_MAX
            )
            terminated = emitter.emit_block(
                w, leader, end, indent=ind, fallthrough=last
            )
            if terminated or last:
                return
            index += 1

    def emit_dispatch(lo: int, hi: int, ind: int) -> None:
        # Balanced binary search over block leaders: every jump costs
        # O(log blocks) comparisons instead of the O(blocks) scan of a
        # flat if/elif chain — the dominant dispatch cost for programs
        # with many basic blocks.
        span = hi - lo
        if span <= _LINEAR_DISPATCH_MAX:
            for block_index in range(lo, hi):
                keyword = "if" if block_index == lo else "elif"
                w.emit(ind, f"{keyword} pc == {leaders[block_index]}:")
                emit_leaf(block_index, ind + 1)
            w.emit(ind, "else:")
            w.emit(ind + 1, "raise ExecBudget(pc)")
            return
        mid = lo + span // 2
        w.emit(ind, f"if pc < {leaders[mid]}:")
        emit_dispatch(lo, mid, ind + 1)
        w.emit(ind, "else:")
        emit_dispatch(mid, hi, ind + 1)

    emit_dispatch(0, len(leaders), indent)


def helper_globals(helpers: HelperTable) -> Dict[str, object]:
    """``H<id>`` -> callable: the globals translated code calls its
    helpers through (:meth:`VirtualMachine.set_helpers` swaps them)."""
    return {f"H{helper_id}": helpers.get(helper_id).fn for helper_id in helpers.ids()}


def terminal_ids(helpers: HelperTable) -> Set[int]:
    """Ids of the helpers whose call ends the run."""
    return {helper_id for helper_id in helpers.ids() if helpers.get(helper_id).terminal}


def _namespace(
    helpers: HelperTable, memory: VmMemory, step_budget: int, vm, profile
) -> Dict[str, object]:
    """The globals every translated function runs against.

    Direct heap/stack/shared views: VmMemory guarantees these regions'
    buffers survive resets (mutated in place, never replaced) and that
    no region is ever detached, so the translated function binds them
    once here and reuses them for the VM's whole lifetime.
    ``ExecBudget(pc)`` builds the same :class:`ExecutionError` the
    interpreter raises on a blown budget.
    """
    heap = memory.heap_region
    stack = memory.stack
    shared = memory.shared_region
    message = f"instruction budget ({step_budget}) exceeded"
    namespace: Dict[str, object] = {
        "__builtins__": {},
        "int_from": int.from_bytes,
        "mem_read": memory.read,
        "mem_write": memory.write,
        "vm": vm,
        "TERMINATED": TERMINATED,
        "ExecBudget": lambda pc: ExecutionError(pc, message),
        "BaseException": BaseException,
        "FP": memory.frame_pointer(),
        "HB": heap.base,
        "HS": len(heap.data),
        "heap": heap.data,
        "SB": stack.base,
        "SS": len(stack.data),
        "stk": stack.data,
    }
    if shared is not None:
        namespace.update(MB=shared.base, MS=len(shared.data), shm=shared.data)
    namespace.update(helper_globals(helpers))
    if profile is not None:
        namespace["PB"] = profile.block_entries
        namespace["PI"] = profile.block_insns
        namespace["HT"] = profile.helper_seconds
        namespace["HK"] = profile.helper_count
        namespace["PSL"] = profile.stack_low
        namespace["perf"] = perf_counter
    return namespace


def _emit_prologue(w: "_Writer", slots: Set[int]) -> None:
    """``def run(...)``: registers, promoted slots and the counters."""
    w.emit(0, "def run(r1=0, r2=0, r3=0, r4=0, r5=0):")
    w.emit(1, "r0 = r6 = r7 = r8 = r9 = 0")
    w.emit(1, f"r1 &= {_M64}; r2 &= {_M64}; r3 &= {_M64}; r4 &= {_M64}; r5 &= {_M64}")
    w.emit(1, "r10 = FP")
    for offset in sorted(slots):
        w.emit(1, f"{_slot_var(offset)} = 0")
    w.emit(1, "steps = 0")
    w.emit(1, "hc = 0")
    w.emit(1, "try:")


def _finish(w: "_Writer", namespace: Dict[str, object], filename: str):
    """Close the function and compile it; returns ``(run, source)``.

    Aborted runs (budget, sandbox fault, helper error) still publish
    their counters before the exception propagates.
    """
    w.emit(1, "except BaseException:")
    w.emit(2, "vm.steps_executed = steps; vm.helper_calls = hc")
    w.emit(2, "raise")
    source = "\n".join(w.lines)
    try:
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    except SyntaxError as exc:  # pragma: no cover - would be a bug
        raise JitError(f"generated bad code: {exc}\n{source}") from exc
    return namespace["run"], source


def translate(
    program: Sequence[Instruction],
    helpers: HelperTable,
    memory: VmMemory,
    step_budget: int,
    vm,
    trusted_layout: bool = False,
    profile=None,
) -> Callable[..., int]:
    """Translate ``program`` into a dispatch-loop ``run(r1..r5) -> r0``.

    This is the dispatch-only form of the compiled tier: what
    :func:`repro.ebpf.native.compile_program` emits for a program its
    structurer declines, and (through :func:`emit_dispatch_loop`) the
    tail of a program it structures in part.

    ``vm`` is passed through to helper functions (they read ``vm.ctx``).  ``trusted_layout`` asserts the xc frame
    convention (scalars above ``-SCALAR_LIMIT``, blocks below), enabling
    scalar-slot promotion in programs that take stack addresses.

    With a ``profile`` (:class:`repro.telemetry.profiler.VmProfile`)
    the generated code additionally maintains per-block entry and
    instruction counters (incremented exactly where ``steps`` flushes,
    so their sum equals ``steps_executed`` at every observable point),
    times each helper call, and tracks the stack high watermark.  Slot
    promotion is disabled in profiled translations so stack traffic is
    observable; step accounting is identical either way.
    """
    leaders = _leaders(program)
    slots = _promotable_slots(program, trusted_layout) if profile is None else set()
    emitter = _BlockEmitter(
        program, slots, profiled=profile is not None, shared=memory.shared_region,
        terminal=terminal_ids(helpers),
    )
    w = _Writer()
    _emit_prologue(w, slots)
    w.emit(2, "pc = 0")
    w.emit(2, "while True:")
    emit_dispatch_loop(
        w, program, leaders, emitter, step_budget, 3, profile is not None
    )
    run, _source = _finish(
        w, _namespace(helpers, memory, step_budget, vm, profile), "<ebpf-jit>"
    )
    return run


def _reg(index: int) -> str:
    return f"r{index}"


def _sx(expr: str, bits: int) -> str:
    sign = 1 << (bits - 1)
    return f"(({expr}) - {1 << bits} if ({expr}) >= {sign} else ({expr}))"


class _BlockEmitter:
    def __init__(
        self,
        program: Sequence[Instruction],
        slots: Set[int],
        profiled: bool = False,
        shared: Optional[MemoryRegion] = None,
        terminal: Set[int] = frozenset(),
    ):
        self.program = program
        self.slots = slots
        self.profiled = profiled
        #: Ids of the terminal helpers: a call to one ends the run.
        self.terminal = terminal
        #: The program's shared region, probed inline after heap and stack.
        self.shared = shared
        #: Leader of the block currently being emitted; maintained by
        #: the caller so profiled step flushes charge the right block.
        self.block_leader = 0
        self.mirrors = _Mirrors()
        #: Steps accrued since the last flush.  Straight-line ALU work
        #: batches into one ``steps += n``; a flush is forced before any
        #: operation that can fault/delegate (helper call, memory
        #: access) or leave the block, keeping ``steps`` exactly equal
        #: to the interpreter's count at every observable point.
        self._pending = 0

    def _flush_steps(self, w: _Writer, indent: int) -> None:
        if self._pending:
            if self.profiled:
                # Mirror every steps flush into the per-block counter so
                # sum(PI) == steps at each observable point.
                w.emit(
                    indent,
                    f"steps += {self._pending}; "
                    f"PI[{self.block_leader}] += {self._pending}",
                )
            else:
                w.emit(indent, f"steps += {self._pending}")
            self._pending = 0

    # -- memory fast paths ------------------------------------------------

    def _probes(self, w: _Writer, indent: int, size: int, access, fallback: str, write: bool) -> None:
        """Inline bounds-checked probes of the heap, the stack and the
        program's shared region (for a store, only a writable one), in
        turn, each running ``access(buffer)``; ``fallback`` takes every
        other address, so faults are :class:`VmMemory`'s own."""
        regions = [("HB", "HS", "heap"), ("SB", "SS", "stk")]
        if not self.slots:
            # With promoted slots, computed addresses are almost always
            # heap pointers (helper results); without, stack traffic is.
            regions.reverse()
        if self.shared is not None and (self.shared.writable or not write):
            regions.append(("MB", "MS", "shm"))
        for base, limit, buf in regions:
            w.emit(indent, f"_o = _a - {base}")
            w.emit(indent, f"if 0 <= _o and _o + {size} <= {limit}:")
            w.emit(indent + 1, access(buf))
            if self.profiled and buf == "stk":
                w.emit(indent + 1, "if _o < PSL[0]: PSL[0] = _o")
            w.emit(indent, "else:")
            indent += 1
        w.emit(indent, fallback)

    def _mem_read(self, w: _Writer, indent: int, dst: str, addr: str, size: int) -> None:
        w.emit(indent, f"_a = {addr}")
        self._probes(
            w, indent, size, lambda buf: self._read_expr(dst, buf, size),
            f"{dst} = mem_read(_a, {size})", write=False,
        )

    @staticmethod
    def _read_expr(dst: str, buf: str, size: int) -> str:
        if size == 1:
            return f"{dst} = {buf}[_o]"
        return f"{dst} = int_from({buf}[_o:_o+{size}], 'little')"

    def _mem_write(self, w: _Writer, indent: int, addr: str, value: str, size: int) -> None:
        w.emit(indent, f"_a = {addr}")
        w.emit(indent, f"_v = {value}")
        self._probes(
            w, indent, size, lambda buf: self._write_stmt(buf, size),
            f"mem_write(_a, {size}, _v)", write=True,
        )

    @staticmethod
    def _write_stmt(buf: str, size: int) -> str:
        if size == 1:
            return f"{buf}[_o] = _v & 0xff"
        return (
            f"{buf}[_o:_o+{size}] = (_v & {(1 << (8 * size)) - 1})"
            f".to_bytes({size}, 'little')"
        )

    # -- block emission -------------------------------------------------------

    def emit_block(
        self, w: _Writer, start: int, end: int, indent: int = 3, fallthrough: bool = True
    ) -> bool:
        """Emit one basic block; returns whether it ended control flow.

        With ``fallthrough=False`` the caller inlines the successor
        block directly after this one, so the ``pc = end; continue``
        tail is suppressed (steps are still flushed).
        """
        program = self.program
        mirrors = self.mirrors
        mirrors.reset()
        self._pending = 0
        index = start
        terminated = False
        while index < end:
            insn = program[index]
            opcode = insn.opcode
            klass = class_of(opcode)
            dst = _reg(insn.dst)
            # Pre-count this instruction (the interpreter increments
            # before executing, so a faulting op includes itself).
            self._pending += 1

            if opcode == OP_LDDW:
                value = (insn.imm & _M32) | ((program[index + 1].imm & _M32) << 32)
                w.emit(indent, f"{dst} = {value}")
                mirrors.kill_reg(insn.dst)
                index += 2
                continue

            if opcode == OP_EXIT:
                self._flush_steps(w, indent)
                w.emit(indent, "vm.steps_executed = steps; vm.helper_calls = hc")
                w.emit(indent, "return r0")
                terminated = True
                index += 1
                continue

            if opcode == OP_CALL:
                self._flush_steps(w, indent)
                self.emit_call(w, indent, insn.imm)
                index += 1
                continue

            if opcode == OP_JA:
                self._flush_steps(w, indent)
                w.emit(indent, f"pc = {index + 1 + insn.offset}")
                w.emit(indent, "continue")
                terminated = True
                index += 1
                continue

            if klass in (BPF_JMP, BPF_JMP32):
                self._flush_steps(w, indent)
                self._emit_cond_jump(w, indent, insn, index, klass)
                index += 1
                continue

            if klass in (BPF_ALU, BPF_ALU64):
                self._emit_alu(w, indent, insn, klass)
                mirrors.kill_reg(insn.dst)
                index += 1
                continue

            if is_load_store(opcode):
                self._emit_load_store(w, indent, insn, klass)
                index += 1
                continue

            raise JitError(f"unhandled opcode {opcode:#x} at {index}")

        if not terminated and end <= len(self.program):
            self._flush_steps(w, indent)
            if fallthrough:
                w.emit(indent, f"pc = {end}")
                w.emit(indent, "continue")
        return terminated

    def emit_call(self, w: _Writer, indent: int, helper_id: int) -> None:
        """A helper call (steps already flushed): count, call, clobber —
        or, for a terminal helper, count, call, publish the counters and
        return (what the emitters put after it is dead code)."""
        terminal = helper_id in self.terminal
        w.emit(indent, "hc += 1")
        call = f"H{helper_id}(vm, r1, r2, r3, r4, r5)"
        if not terminal:
            call = f"r0 = {call} & {_M64}"
        if self.profiled:
            w.emit(indent, "_t = perf()")
            w.emit(indent, call)
            w.emit(indent, f"HT[{helper_id}] += perf() - _t")
            w.emit(indent, f"HK[{helper_id}] += 1")
        else:
            w.emit(indent, call)
        if terminal:
            w.emit(indent, "vm.steps_executed = steps; vm.helper_calls = hc")
            w.emit(indent, "return TERMINATED")
            return
        w.emit(indent, "r1 = r2 = r3 = r4 = r5 = 0")
        self.mirrors.kill_regs(range(0, 6))

    @staticmethod
    def cond_expr(insn: Instruction, klass: int) -> str:
        """The Python condition under which a conditional jump is taken."""
        name = _JMP_NAMES[insn.opcode & 0xF0]
        wide = klass == BPF_JMP
        mask = _M64 if wide else _M32
        bits = 64 if wide else 32
        dst = _reg(insn.dst)
        left = dst if wide else f"({dst} & {_M32})"
        if insn.opcode & BPF_X:
            right = _reg(insn.src) if wide else f"({_reg(insn.src)} & {_M32})"
        else:
            right = str(insn.imm & mask)
        if name in _COND:
            return f"{left} {_COND[name]} {right}"
        if name == "jset":
            return f"({left} & {right})"
        if name in _SIGNED_COND:
            return f"{_sx(left, bits)} {_SIGNED_COND[name]} {_sx(right, bits)}"
        raise JitError(f"bad jump {insn.opcode:#x}")  # pragma: no cover

    def _emit_cond_jump(self, w, indent, insn, index, klass) -> None:
        w.emit(indent, f"if {self.cond_expr(insn, klass)}:")
        w.emit(indent + 1, f"pc = {index + 1 + insn.offset}")
        w.emit(indent + 1, "continue")

    def _emit_load_store(self, w, indent, insn, klass) -> None:
        size = SIZE_BYTES[insn.opcode & 0x18]
        mirrors = self.mirrors
        if klass == BPF_LDX:
            if insn.src == 10 and insn.offset in self.slots:
                if mirrors.holds(insn.dst, insn.offset):
                    return  # register already holds the slot's value
                w.emit(indent, f"{_reg(insn.dst)} = {_slot_var(insn.offset)}")
                mirrors.bind(insn.dst, insn.offset)
            else:
                self._flush_steps(w, indent)  # access may fault mid-block
                self._mem_read(
                    w,
                    indent,
                    _reg(insn.dst),
                    f"(r{insn.src} + {insn.offset}) & {_M64}",
                    size,
                )
                mirrors.kill_reg(insn.dst)
            return
        if klass == BPF_STX:
            if insn.dst == 10 and insn.offset in self.slots:
                if mirrors.holds(insn.src, insn.offset):
                    return  # slot already holds this register's value
                w.emit(indent, f"{_slot_var(insn.offset)} = {_reg(insn.src)}")
                mirrors.bind(insn.src, insn.offset)
            else:
                self._flush_steps(w, indent)
                self._mem_write(
                    w,
                    indent,
                    f"(r{insn.dst} + {insn.offset}) & {_M64}",
                    _reg(insn.src),
                    size,
                )
            return
        # BPF_ST: immediate store.
        if insn.dst == 10 and insn.offset in self.slots:
            w.emit(indent, f"{_slot_var(insn.offset)} = {insn.imm & _M64}")
            old = self.mirrors._reg_of.pop(insn.offset, None)  # noqa: SLF001
            if old is not None:
                self.mirrors._slot_of.pop(old, None)  # noqa: SLF001
        else:
            self._flush_steps(w, indent)
            self._mem_write(
                w,
                indent,
                f"(r{insn.dst} + {insn.offset}) & {_M64}",
                str(insn.imm & _M64),
                size,
            )

    def _emit_alu(self, w: _Writer, indent: int, insn: Instruction, klass: int) -> None:
        name = _ALU_NAMES[insn.opcode & 0xF0]
        wide = klass == BPF_ALU64
        mask = _M64 if wide else _M32
        bits = 64 if wide else 32
        dst = _reg(insn.dst)

        if name == "end":
            width = insn.imm
            if insn.opcode & BPF_X:  # be
                w.emit(
                    indent,
                    f"{dst} = int_from((({dst}) & {(1 << width) - 1})"
                    f".to_bytes({width // 8}, 'little'), 'big')",
                )
            else:  # le: truncate
                w.emit(indent, f"{dst} = {dst} & {(1 << width) - 1}")
            return

        if insn.opcode & BPF_X:
            operand = _reg(insn.src) if wide else f"({_reg(insn.src)} & {_M32})"
        else:
            operand = str(insn.imm & mask)
        value = dst if wide else f"({dst} & {_M32})"

        if name == "mov":
            w.emit(indent, f"{dst} = {operand}")
            return
        if name in ("add", "sub", "mul", "or", "and", "xor"):
            op = {"add": "+", "sub": "-", "mul": "*", "or": "|", "and": "&", "xor": "^"}[
                name
            ]
            w.emit(indent, f"{dst} = ({value} {op} {operand}) & {mask}")
            return
        if name == "div":
            w.emit(indent, f"_d = {operand}")
            w.emit(indent, f"{dst} = ({value} // _d) & {mask} if _d else 0")
            return
        if name == "mod":
            w.emit(indent, f"_d = {operand}")
            w.emit(indent, f"{dst} = ({value} % _d) & {mask} if _d else {value}")
            return
        if name == "lsh":
            w.emit(indent, f"{dst} = ({value} << ({operand} % {bits})) & {mask}")
            return
        if name == "rsh":
            w.emit(indent, f"{dst} = ({value} & {mask}) >> ({operand} % {bits})")
            return
        if name == "arsh":
            w.emit(indent, f"{dst} = ({_sx(value, bits)} >> ({operand} % {bits})) & {mask}")
            return
        if name == "neg":
            w.emit(indent, f"{dst} = (-{value}) & {mask}")
            return
        raise JitError(f"unhandled ALU {name}")
