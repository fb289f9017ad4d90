"""The eBPF interpreter.

Registers are Python integers masked to 64 bits; memory access goes
through :class:`repro.ebpf.memory.VmMemory`, so a program can only
touch its stack, its argument block, the helper-managed heap and any
shared regions the VMM attached.  Runtime protections on top of the
static verifier: an instruction budget (bounds even ``allow_loops``
programs) and kernel-style division semantics (x/0 == 0, x%0 == x).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

from .helpers import HelperError, HelperTable
from .isa import (
    ALU_OPS,
    BPF_ALU,
    BPF_ALU64,
    BPF_JMP,
    BPF_JMP32,
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
)
from .memory import SandboxViolation, VmMemory

__all__ = ["VirtualMachine", "ExecutionError", "DEFAULT_STEP_BUDGET"]

_U64 = 0xFFFFFFFFFFFFFFFF
_U32 = 0xFFFFFFFF

DEFAULT_STEP_BUDGET = 1_000_000


class ExecutionError(Exception):
    """Raised when a program faults at runtime (budget, bad call…)."""

    def __init__(self, pc: int, message: str):
        super().__init__(f"pc={pc}: {message}")
        self.pc = pc


def _signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _bswap(value: int, bits: int) -> int:
    return int.from_bytes(
        (value & ((1 << bits) - 1)).to_bytes(bits // 8, "little"), "big"
    )


class VirtualMachine:
    """One loaded program plus its sandbox, runnable many times."""

    def __init__(
        self,
        program: Sequence[Instruction],
        helpers: Optional[HelperTable] = None,
        memory: Optional[VmMemory] = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        trusted_layout: bool = False,
        tier: str = "interp",
    ):
        if tier not in ("interp", "jit"):
            raise ValueError(f"bad tier {tier!r}")
        self.program = list(program)
        self.helpers = helpers or HelperTable()
        self.memory = memory or VmMemory()
        self.step_budget = step_budget
        self.steps_executed = 0
        self.helper_calls = 0
        #: ``"interp"`` (this module's loop, the semantic reference) or
        #: ``"jit"`` (the compiled tier, :mod:`repro.ebpf.native`).
        self.tier = tier
        self.trusted_layout = trusted_layout
        self._compiled = None
        #: :class:`repro.ebpf.native.NativeInfo` once the compiled tier
        #: has translated the program: what was structured, what runs
        #: on the dispatch loop, and why if the structurer declined.
        self.compile_info = None
        #: Optional :class:`repro.telemetry.profiler.VmProfile` fed by
        #: profiled runs; installed/cleared via :meth:`set_profile`.
        self.profile = None
        #: Execution context / per-extension state, bound by the VMM
        #: around each run.  Initialised here so helper implementations
        #: can read them with plain attribute access.
        self.ctx = None
        self.program_state = None

    def prepare(self):
        """Translate now (compiled tier) so the first run pays no compile cost.

        Returns the callable that runs the program — ``run(r1..r5)`` —
        which on the compiled tier is the translated function itself,
        so a caller that runs the program many times can skip
        :meth:`run`'s dispatch.  Stale after :meth:`set_profile`.
        """
        if self.tier == "interp":
            return self.run
        if self._compiled is None:
            from .native import compile_program

            self._compiled, self.compile_info = compile_program(
                self.program,
                self.helpers,
                self.memory,
                self.step_budget,
                self,
                trusted_layout=self.trusted_layout,
                profile=self.profile,
            )
        return self._compiled

    def set_profile(self, profile) -> None:
        """Install (or, with ``None``, remove) a hotspot profile.

        Interpreter mode merely flips :meth:`run` onto the profiled
        loop; the compiled tier re-translates so the block counters are
        compiled into the generated function (and compiled back out on
        removal).
        """
        if profile is self.profile:
            return
        self.profile = profile
        if self.tier != "interp":
            self._compiled = None
            self.prepare()

    def run(self, r1: int = 0, r2: int = 0, r3: int = 0, r4: int = 0, r5: int = 0) -> int:
        """Execute until ``exit``; return r0.

        May raise :class:`ExecutionError`, :class:`SandboxViolation` or
        :class:`HelperError` — the VMM treats all three as "extension
        code failed, fall back to native".

        ``steps_executed`` and ``helper_calls`` report this run's
        instruction/helper counts afterwards — on returning, delegating
        (``next()``) and faulting runs alike, and identically under
        both tiers (a budget blowout under the compiled tier reports
        the instructions executed before the block that blew the
        budget).

        Under ``tier="jit"`` the program runs as translated Python —
        same semantics, far faster dispatch; see :mod:`repro.ebpf.native`.
        """
        if self.tier != "interp":
            return self.prepare()(r1, r2, r3, r4, r5)
        self.steps_executed = 0
        self.helper_calls = 0
        if self.profile is not None:
            return self._run_profiled(r1, r2, r3, r4, r5)
        regs = [0] * 11
        regs[1], regs[2], regs[3], regs[4], regs[5] = (
            r1 & _U64,
            r2 & _U64,
            r3 & _U64,
            r4 & _U64,
            r5 & _U64,
        )
        regs[10] = self.memory.frame_pointer()
        program = self.program
        count = len(program)
        memory = self.memory
        budget = self.step_budget
        steps = 0
        helper_calls = 0
        pc = 0

        try:
            while True:
                if pc >= count or pc < 0:
                    raise ExecutionError(pc, "program counter out of range")
                steps += 1
                if steps > budget:
                    raise ExecutionError(pc, f"instruction budget ({budget}) exceeded")
                insn = program[pc]
                opcode = insn.opcode

                if opcode == OP_EXIT:
                    self.steps_executed = steps
                    self.helper_calls = helper_calls
                    return regs[0]

                klass = class_of(opcode)

                # -- lddw ----------------------------------------------------
                if opcode == OP_LDDW:
                    high = program[pc + 1].imm & _U32
                    regs[insn.dst] = (insn.imm & _U32) | (high << 32)
                    pc += 2
                    continue

                # -- ALU ----------------------------------------------------
                if klass == BPF_ALU64 or klass == BPF_ALU:
                    is64 = klass == BPF_ALU64
                    op = opcode & 0xF0
                    if op == ALU_OPS["end"]:
                        width = insn.imm
                        if opcode & BPF_X:  # be
                            regs[insn.dst] = _bswap(regs[insn.dst], width)
                        else:  # le: truncate
                            regs[insn.dst] = regs[insn.dst] & ((1 << width) - 1)
                        pc += 1
                        continue
                    if opcode & BPF_X:
                        operand = regs[insn.src]
                    else:
                        operand = insn.imm & _U64  # sign-extended imm
                    if not is64:
                        operand &= _U32
                    value = regs[insn.dst] if is64 else regs[insn.dst] & _U32
                    mask = _U64 if is64 else _U32
                    bits = 64 if is64 else 32
                    if op == ALU_OPS["add"]:
                        value = (value + operand) & mask
                    elif op == ALU_OPS["sub"]:
                        value = (value - operand) & mask
                    elif op == ALU_OPS["mul"]:
                        value = (value * operand) & mask
                    elif op == ALU_OPS["div"]:
                        divisor = operand & mask
                        value = (value // divisor) & mask if divisor else 0
                    elif op == ALU_OPS["mod"]:
                        divisor = operand & mask
                        value = (value % divisor) & mask if divisor else value
                    elif op == ALU_OPS["or"]:
                        value = (value | operand) & mask
                    elif op == ALU_OPS["and"]:
                        value = (value & operand) & mask
                    elif op == ALU_OPS["lsh"]:
                        value = (value << (operand % bits)) & mask
                    elif op == ALU_OPS["rsh"]:
                        value = (value & mask) >> (operand % bits)
                    elif op == ALU_OPS["neg"]:
                        value = (-value) & mask
                    elif op == ALU_OPS["xor"]:
                        value = (value ^ operand) & mask
                    elif op == ALU_OPS["mov"]:
                        value = operand & mask
                    elif op == ALU_OPS["arsh"]:
                        value = (_signed(value, bits) >> (operand % bits)) & mask
                    else:
                        raise ExecutionError(pc, f"bad ALU opcode {opcode:#x}")
                    regs[insn.dst] = value  # 32-bit ops zero-extend
                    pc += 1
                    continue

                # -- jumps ----------------------------------------------------
                if klass == BPF_JMP or klass == BPF_JMP32:
                    if opcode == OP_JA:
                        pc += 1 + insn.offset
                        continue
                    if opcode == OP_CALL:
                        helper = self.helpers.get(insn.imm)
                        if helper is None:
                            raise ExecutionError(pc, f"unknown helper {insn.imm}")
                        helper_calls += 1
                        result = helper.fn(self, regs[1], regs[2], regs[3], regs[4], regs[5])
                        regs[0] = int(result) & _U64
                        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
                        pc += 1
                        continue
                    op = opcode & 0xF0
                    wide = klass == BPF_JMP
                    mask = _U64 if wide else _U32
                    bits = 64 if wide else 32
                    left = regs[insn.dst] & mask
                    if opcode & BPF_X:
                        right = regs[insn.src] & mask
                    else:
                        right = insn.imm & mask
                    taken = False
                    if op == JMP_OPS["jeq"]:
                        taken = left == right
                    elif op == JMP_OPS["jne"]:
                        taken = left != right
                    elif op == JMP_OPS["jgt"]:
                        taken = left > right
                    elif op == JMP_OPS["jge"]:
                        taken = left >= right
                    elif op == JMP_OPS["jlt"]:
                        taken = left < right
                    elif op == JMP_OPS["jle"]:
                        taken = left <= right
                    elif op == JMP_OPS["jset"]:
                        taken = bool(left & right)
                    elif op == JMP_OPS["jsgt"]:
                        taken = _signed(left, bits) > _signed(right, bits)
                    elif op == JMP_OPS["jsge"]:
                        taken = _signed(left, bits) >= _signed(right, bits)
                    elif op == JMP_OPS["jslt"]:
                        taken = _signed(left, bits) < _signed(right, bits)
                    elif op == JMP_OPS["jsle"]:
                        taken = _signed(left, bits) <= _signed(right, bits)
                    else:
                        raise ExecutionError(pc, f"bad JMP opcode {opcode:#x}")
                    pc += 1 + (insn.offset if taken else 0)
                    continue

                # -- loads / stores ------------------------------------------
                size = SIZE_BYTES.get(opcode & 0x18)
                if size is None:
                    raise ExecutionError(pc, f"bad size in opcode {opcode:#x}")
                if klass == BPF_LDX:
                    address = (regs[insn.src] + insn.offset) & _U64
                    regs[insn.dst] = memory.read(address, size)
                elif klass == BPF_STX:
                    address = (regs[insn.dst] + insn.offset) & _U64
                    memory.write(address, size, regs[insn.src])
                elif klass == BPF_ST:
                    address = (regs[insn.dst] + insn.offset) & _U64
                    memory.write(address, size, insn.imm & _U64)
                else:
                    raise ExecutionError(pc, f"unknown opcode {opcode:#x}")
                pc += 1
        except Exception:
            # Aborted runs — faults, but also NextRequested escaping a
            # helper — still report how far they got, so telemetry can
            # charge budget blowouts and delegations their instructions.
            self.steps_executed = steps
            self.helper_calls = helper_calls
            raise

    def _run_profiled(
        self, r1: int = 0, r2: int = 0, r3: int = 0, r4: int = 0, r5: int = 0
    ) -> int:
        """The interpreter loop with hotspot accounting.

        A structural copy of :meth:`run`'s interpreter half, plus: an
        exact per-PC execution count (bumped with ``steps``, so
        ``sum(pc_counts) == steps_executed`` on every outcome, faults
        included), per-helper wall-clock attribution, and the stack
        high-watermark.  Kept as a separate loop so unprofiled runs pay
        nothing; the engine-parity tests pin it against :meth:`run`.
        """
        profile = self.profile
        pc_counts = profile.pc_counts
        helper_seconds = profile.helper_seconds
        helper_count = profile.helper_count
        stack_low = profile.stack_low
        stack_base = self.memory.stack.base
        stack_size = len(self.memory.stack.data)
        regs = [0] * 11
        regs[1], regs[2], regs[3], regs[4], regs[5] = (
            r1 & _U64,
            r2 & _U64,
            r3 & _U64,
            r4 & _U64,
            r5 & _U64,
        )
        regs[10] = self.memory.frame_pointer()
        program = self.program
        count = len(program)
        memory = self.memory
        budget = self.step_budget
        steps = 0
        helper_calls = 0
        pc = 0

        try:
            while True:
                if pc >= count or pc < 0:
                    raise ExecutionError(pc, "program counter out of range")
                steps += 1
                pc_counts[pc] += 1
                if steps > budget:
                    raise ExecutionError(pc, f"instruction budget ({budget}) exceeded")
                insn = program[pc]
                opcode = insn.opcode

                if opcode == OP_EXIT:
                    self.steps_executed = steps
                    self.helper_calls = helper_calls
                    return regs[0]

                klass = class_of(opcode)

                if opcode == OP_LDDW:
                    high = program[pc + 1].imm & _U32
                    regs[insn.dst] = (insn.imm & _U32) | (high << 32)
                    pc += 2
                    continue

                if klass == BPF_ALU64 or klass == BPF_ALU:
                    is64 = klass == BPF_ALU64
                    op = opcode & 0xF0
                    if op == ALU_OPS["end"]:
                        width = insn.imm
                        if opcode & BPF_X:  # be
                            regs[insn.dst] = _bswap(regs[insn.dst], width)
                        else:  # le: truncate
                            regs[insn.dst] = regs[insn.dst] & ((1 << width) - 1)
                        pc += 1
                        continue
                    if opcode & BPF_X:
                        operand = regs[insn.src]
                    else:
                        operand = insn.imm & _U64
                    if not is64:
                        operand &= _U32
                    value = regs[insn.dst] if is64 else regs[insn.dst] & _U32
                    mask = _U64 if is64 else _U32
                    bits = 64 if is64 else 32
                    if op == ALU_OPS["add"]:
                        value = (value + operand) & mask
                    elif op == ALU_OPS["sub"]:
                        value = (value - operand) & mask
                    elif op == ALU_OPS["mul"]:
                        value = (value * operand) & mask
                    elif op == ALU_OPS["div"]:
                        divisor = operand & mask
                        value = (value // divisor) & mask if divisor else 0
                    elif op == ALU_OPS["mod"]:
                        divisor = operand & mask
                        value = (value % divisor) & mask if divisor else value
                    elif op == ALU_OPS["or"]:
                        value = (value | operand) & mask
                    elif op == ALU_OPS["and"]:
                        value = (value & operand) & mask
                    elif op == ALU_OPS["lsh"]:
                        value = (value << (operand % bits)) & mask
                    elif op == ALU_OPS["rsh"]:
                        value = (value & mask) >> (operand % bits)
                    elif op == ALU_OPS["neg"]:
                        value = (-value) & mask
                    elif op == ALU_OPS["xor"]:
                        value = (value ^ operand) & mask
                    elif op == ALU_OPS["mov"]:
                        value = operand & mask
                    elif op == ALU_OPS["arsh"]:
                        value = (_signed(value, bits) >> (operand % bits)) & mask
                    else:
                        raise ExecutionError(pc, f"bad ALU opcode {opcode:#x}")
                    regs[insn.dst] = value
                    pc += 1
                    continue

                if klass == BPF_JMP or klass == BPF_JMP32:
                    if opcode == OP_JA:
                        pc += 1 + insn.offset
                        continue
                    if opcode == OP_CALL:
                        helper = self.helpers.get(insn.imm)
                        if helper is None:
                            raise ExecutionError(pc, f"unknown helper {insn.imm}")
                        helper_calls += 1
                        started = perf_counter()
                        result = helper.fn(
                            self, regs[1], regs[2], regs[3], regs[4], regs[5]
                        )
                        helper_seconds[insn.imm] += perf_counter() - started
                        helper_count[insn.imm] += 1
                        regs[0] = int(result) & _U64
                        regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
                        pc += 1
                        continue
                    op = opcode & 0xF0
                    wide = klass == BPF_JMP
                    mask = _U64 if wide else _U32
                    bits = 64 if wide else 32
                    left = regs[insn.dst] & mask
                    if opcode & BPF_X:
                        right = regs[insn.src] & mask
                    else:
                        right = insn.imm & mask
                    taken = False
                    if op == JMP_OPS["jeq"]:
                        taken = left == right
                    elif op == JMP_OPS["jne"]:
                        taken = left != right
                    elif op == JMP_OPS["jgt"]:
                        taken = left > right
                    elif op == JMP_OPS["jge"]:
                        taken = left >= right
                    elif op == JMP_OPS["jlt"]:
                        taken = left < right
                    elif op == JMP_OPS["jle"]:
                        taken = left <= right
                    elif op == JMP_OPS["jset"]:
                        taken = bool(left & right)
                    elif op == JMP_OPS["jsgt"]:
                        taken = _signed(left, bits) > _signed(right, bits)
                    elif op == JMP_OPS["jsge"]:
                        taken = _signed(left, bits) >= _signed(right, bits)
                    elif op == JMP_OPS["jslt"]:
                        taken = _signed(left, bits) < _signed(right, bits)
                    elif op == JMP_OPS["jsle"]:
                        taken = _signed(left, bits) <= _signed(right, bits)
                    else:
                        raise ExecutionError(pc, f"bad JMP opcode {opcode:#x}")
                    pc += 1 + (insn.offset if taken else 0)
                    continue

                size = SIZE_BYTES.get(opcode & 0x18)
                if size is None:
                    raise ExecutionError(pc, f"bad size in opcode {opcode:#x}")
                if klass == BPF_LDX:
                    address = (regs[insn.src] + insn.offset) & _U64
                    regs[insn.dst] = memory.read(address, size)
                elif klass == BPF_STX:
                    address = (regs[insn.dst] + insn.offset) & _U64
                    memory.write(address, size, regs[insn.src])
                elif klass == BPF_ST:
                    address = (regs[insn.dst] + insn.offset) & _U64
                    memory.write(address, size, insn.imm & _U64)
                else:
                    raise ExecutionError(pc, f"unknown opcode {opcode:#x}")
                offset = address - stack_base
                if 0 <= offset < stack_size and offset < stack_low[0]:
                    stack_low[0] = offset
                pc += 1
        except Exception:
            self.steps_executed = steps
            self.helper_calls = helper_calls
            raise
