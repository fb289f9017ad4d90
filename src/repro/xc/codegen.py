"""eBPF code generation for xc: operand-form code, the shape clang emits.

An expression leaves its value in r1 (r0 right after a helper call);
leaf operands are used where they stand — an s32-representable constant
as an ALU/jump immediate, a scalar local through one ``ldx``, a wider
constant through ``lddw``.  Only a compound right operand parks the left
one in a temporary slot, so no value sits in r1–r5 across a helper call.
Division/modulo by a constant zero and shifts by 64+ keep the register
form (the verifier rejects a zero-constant divisor).  A condition is one
inverted jump; ``&&``/``||`` short-circuit to the branch targets, ``!``
flips the sense, and a literal condition still gets a runtime test (the
verifier wants ``while (1)``'s exit edge).  Constant address terms fold
into load/store offsets; leaf helper arguments load straight into r1–r5
after the compound ones ran, in order.  Every local keeps its frame slot
(the layout below, which the compiled tier's trusted layout relies on);
user functions are inlined (the VM, like ubpf, calls only helpers).

Builtins compiled inline rather than called:

* ``htons``/``htonl``/``htonll`` and the ``ntoh*`` twins — byte swaps
  (the paper's plugins use ``bpf_htonl`` etc. to build wire bytes);
* ``sgt``/``sge``/``slt``/``sle`` — signed comparisons (xc's operators
  are unsigned like eBPF's default jumps).
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Mapping, Optional, Tuple

from ..ebpf.isa import (
    ALU_OPS,
    BPF_ALU,
    BPF_ALU64,
    BPF_DW,
    BPF_IMM,
    BPF_JMP,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_MEM,
    BPF_ST,
    BPF_STX,
    BPF_X,
    JMP_OPS,
    Instruction,
)
from ..ebpf.memory import STACK_SIZE
from .astnodes import (
    ArrayDecl,
    Assign,
    For,
    Index,
    IndexAssign,
    Binary,
    Block,
    Break,
    Call,
    Continue,
    Expr,
    ExprStatement,
    If,
    Load,
    Logical,
    Name,
    Number,
    Program,
    Return,
    Statement,
    Store,
    Str,
    Unary,
    VarDecl,
    While,
)
from .parser import parse

__all__ = ["compile_source", "compile_program", "CompileError"]

_SIZE_TO_FLAG = {1: 0x10, 2: 0x08, 4: 0x00, 8: 0x18}

#: Comparison → the jump taken when it holds (``sgt``… are builtins).
_JUMPS = {"==": "jeq", "!=": "jne", "<": "jlt", "<=": "jle", ">": "jgt", ">=": "jge",
          "sgt": "jsgt", "sge": "jsge", "slt": "jslt", "sle": "jsle"}
#: The comparison that holds exactly when ``op`` does not.
_NEGATE = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">",
           "sgt": "sle", "sle": "sgt", "sge": "slt", "slt": "sge"}
_SWAPS = {"htons": 16, "ntohs": 16, "htonl": 32, "ntohl": 32, "htonll": 64, "ntohll": 64}
_SWAPS.update({"bpf_" + name: width for name, width in _SWAPS.items()})
_ARITH = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "lsh",
    ">>": "rsh",
}

_MAX_INLINE_DEPTH = 16

_M64 = (1 << 64) - 1

_FOLDERS = {
    "+": lambda a, b: (a + b) & _M64,
    "-": lambda a, b: (a - b) & _M64,
    "*": lambda a, b: (a * b) & _M64,
    "/": lambda a, b: (a // b) & _M64 if b else 0,
    "%": lambda a, b: (a % b) & _M64 if b else a,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: (a << (b % 64)) & _M64,
    ">>": lambda a, b: (a & _M64) >> (b % 64),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


def _fold(expr):
    """Constant-fold a pure expression tree (64-bit unsigned semantics,
    matching the VM).  Division by a constant zero is left unfolded so
    the verifier still rejects it."""
    if isinstance(expr, Binary):
        left = _fold(expr.left)
        right = _fold(expr.right)
        if isinstance(left, Number) and isinstance(right, Number):
            if expr.op in ("/", "%") and (right.value & _M64) == 0:
                return Binary(expr.op, left, right, expr.line)
            folder = _FOLDERS.get(expr.op)
            if folder is not None:
                return Number(folder(left.value & _M64, right.value & _M64), expr.line)
        return Binary(expr.op, left, right, expr.line)
    if isinstance(expr, Unary):
        operand = _fold(expr.operand)
        if isinstance(operand, Number):
            value = operand.value & _M64
            if expr.op == "-":
                return Number((-value) & _M64, expr.line)
            if expr.op == "~":
                return Number(value ^ _M64, expr.line)
            if expr.op == "!":
                return Number(int(value == 0), expr.line)
        return Unary(expr.op, operand, expr.line)
    if isinstance(expr, Logical):
        left = _fold(expr.left)
        if isinstance(left, Number):
            truthy = (left.value & _M64) != 0
            if expr.op == "&&" and not truthy:
                return Number(0, expr.line)
            if expr.op == "||" and truthy:
                return Number(1, expr.line)
            # Constant non-deciding left: result is right's truthiness.
            right = _fold(expr.right)
            if isinstance(right, Number):
                return Number(int((right.value & _M64) != 0), expr.line)
            return Logical(expr.op, left, right, expr.line)
        return Logical(expr.op, left, _fold(expr.right), expr.line)
    if isinstance(expr, Load):
        return Load(expr.size, _fold(expr.address), expr.line)
    if isinstance(expr, Call):
        return Call(expr.name, tuple(_fold(arg) for arg in expr.args), expr.line)
    if isinstance(expr, Index):
        return Index(expr.name, _fold(expr.index), expr.line)
    return expr


def _displaced(address: Expr) -> Tuple[Expr, int]:
    """``address`` as ``(base, s16 offset)``: the constant terms of a sum
    fold into the load/store offset (the VM adds it modulo 2**64, as the
    sum would)."""
    terms: List[Expr] = []
    constant = 0
    pending = [address]
    while pending:
        expr = pending.pop()
        if isinstance(expr, Binary) and expr.op == "+":
            pending += [expr.right, expr.left]
        elif isinstance(expr, Binary) and expr.op == "-" and isinstance(expr.right, Number):
            constant -= expr.right.value
            pending.append(expr.left)
        elif isinstance(expr, Number):
            constant += expr.value
        else:
            terms.append(expr)
    offset = (constant + (1 << 63)) % (1 << 64) - (1 << 63)
    if not terms or not -(1 << 15) <= offset < 1 << 15:
        return address, 0
    return reduce(lambda base, term: Binary("+", base, term, term.line), terms), offset


def _imm32(value: int) -> Optional[int]:
    """``value`` (mod 2**64) as the s32 immediate that sign-extends to
    it, or None when it needs ``lddw``."""
    value &= _M64
    if value < 1 << 31:
        return value
    if value >= (1 << 64) - (1 << 31):
        return value - (1 << 64)
    return None


class CompileError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Emitter:
    """Instruction buffer with label-based branch fixups."""

    def __init__(self) -> None:
        self.instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fixups: List[Tuple[int, str]] = []  # (slot index, label)
        self._label_counter = 0

    def new_label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def bind(self, label: str) -> None:
        if label in self._labels:
            raise ValueError(f"label {label!r} bound twice")
        self._labels[label] = len(self.instructions)

    def raw(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    # -- convenience constructors ------------------------------------

    def alu_imm(self, op: str, dst: int, imm: int) -> None:
        self.raw(Instruction(BPF_ALU64 | BPF_K | ALU_OPS[op], dst, 0, 0, imm))

    def alu_reg(self, op: str, dst: int, src: int) -> None:
        self.raw(Instruction(BPF_ALU64 | BPF_X | ALU_OPS[op], dst, src, 0, 0))

    def mov_imm(self, dst: int, value: int) -> None:
        imm = _imm32(value)
        if imm is None:
            self.lddw(dst, value)
        else:
            self.alu_imm("mov", dst, imm)

    def mov_reg(self, dst: int, src: int) -> None:
        self.alu_reg("mov", dst, src)

    def lddw(self, dst: int, value: int) -> None:
        value &= 0xFFFFFFFFFFFFFFFF
        low = value & 0xFFFFFFFF
        high = value >> 32
        self.raw(Instruction(BPF_LD | BPF_IMM | BPF_DW, dst, 0, 0, _s32(low)))
        self.raw(Instruction(0, 0, 0, 0, _s32(high)))

    def load(self, size: int, dst: int, src: int, offset: int) -> None:
        self.raw(
            Instruction(BPF_LDX | BPF_MEM | _SIZE_TO_FLAG[size], dst, src, offset, 0)
        )

    def store_reg(self, size: int, dst: int, offset: int, src: int) -> None:
        self.raw(
            Instruction(BPF_STX | BPF_MEM | _SIZE_TO_FLAG[size], dst, src, offset, 0)
        )

    def store_imm(self, size: int, dst: int, offset: int, imm: int) -> None:
        self.raw(
            Instruction(BPF_ST | BPF_MEM | _SIZE_TO_FLAG[size], dst, 0, offset, imm)
        )

    def jump(self, op: str, dst: int, label: str, imm: int = 0, src: int = -1) -> None:
        if src >= 0:
            opcode = BPF_JMP | BPF_X | JMP_OPS[op]
            instruction = Instruction(opcode, dst, src, 0, 0)
        else:
            opcode = BPF_JMP | BPF_K | JMP_OPS[op]
            instruction = Instruction(opcode, dst, 0, 0, _s32(imm))
        self._fixups.append((len(self.instructions), label))
        self.raw(instruction)

    def ja(self, label: str) -> None:
        self._fixups.append((len(self.instructions), label))
        self.raw(Instruction(BPF_JMP | JMP_OPS["ja"], 0, 0, 0, 0))

    def call(self, helper_id: int) -> None:
        self.raw(Instruction(BPF_JMP | JMP_OPS["call"], 0, 0, 0, helper_id))

    def exit(self) -> None:
        self.raw(Instruction(BPF_JMP | JMP_OPS["exit"], 0, 0, 0, 0))

    def endian_be(self, width: int, dst: int) -> None:
        self.raw(Instruction(BPF_ALU | BPF_X | ALU_OPS["end"], dst, 0, 0, width))

    def finish(self) -> List[Instruction]:
        for index, label in self._fixups:
            target = self._labels.get(label)
            if target is None:
                raise ValueError(f"unbound label {label!r}")
            offset = target - index - 1
            if not -32768 <= offset <= 32767:
                raise ValueError(f"branch to {label!r} out of range")
            instruction = self.instructions[index]
            self.instructions[index] = instruction._replace(offset=offset)
        return self.instructions


def _s32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


#: Frame split: scalar slots (locals, temporaries, parameters) live in
#: [-SCALAR_LIMIT, 0); address-taken blocks (arrays, string literals)
#: live in [-STACK_SIZE, -SCALAR_LIMIT).  The JIT's trusted-layout mode
#: relies on this segregation: pointers derived from r10 can only reach
#: the block region, so scalar slots are safely promoted to Python
#: locals even in programs that take stack addresses.
SCALAR_LIMIT = 384


class _Frame:
    """Stack-slot allocator for one program (shared across inlines).

    Scalars allocate downward from the frame top; address-taken blocks
    allocate upward from the frame bottom.  The two must not meet.
    """

    def __init__(self) -> None:
        self._scalar_offset = 0  # bytes below r10 handed to scalars
        self._block_top = -STACK_SIZE  # next free block offset
        self._free_slots: List[int] = []  # reusable 8-byte scalar slots

    def alloc_scalar(self, line: int) -> int:
        """Allocate one 8-byte scalar slot (local variable, parameter).

        Recycled slots (dead temporaries, out-of-scope locals) are
        reused before the frame grows.
        """
        if self._free_slots:
            return self._free_slots.pop()
        self._scalar_offset += 8
        if self._scalar_offset > SCALAR_LIMIT:
            raise CompileError(
                line, f"more than {SCALAR_LIMIT // 8} live scalar slots"
            )
        return -self._scalar_offset

    def alloc_block(self, size: int, line: int) -> int:
        """Allocate an address-taken block (array or string literal)."""
        aligned = (size + 7) & ~7
        offset = self._block_top
        self._block_top += aligned
        if self._block_top > -SCALAR_LIMIT:
            raise CompileError(
                line,
                f"arrays/strings exceed {STACK_SIZE - SCALAR_LIMIT} frame bytes",
            )
        return offset

    def free_temp(self, offset: int) -> None:
        self._free_slots.append(offset)


class _Scope:
    """Lexical scoping of variable names to frame offsets.

    Scalar slots owned by a scope are recycled when the scope ends:
    block locals and inlined callees\' frames reuse stack space instead
    of growing the frame monotonically.
    """

    def __init__(self, parent: Optional["_Scope"] = None):
        self._parent = parent
        self._vars: Dict[str, Tuple[str, int, int]] = {}  # name -> (kind, offset, elem)
        self.scalar_slots: List[int] = []

    def declare(
        self, name: str, kind: str, offset: int, line: int, elem: int = 8
    ) -> None:
        if name in self._vars:
            raise CompileError(line, f"redeclaration of {name!r}")
        self._vars[name] = (kind, offset, elem)
        if kind == "var":
            self.scalar_slots.append(offset)

    def lookup(self, name: str) -> Optional[Tuple[str, int]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            entry = scope._vars.get(name)
            if entry is not None:
                return entry
            scope = scope._parent
        return None


class _Compiler:
    def __init__(
        self,
        program: Program,
        helper_ids: Mapping[str, int],
        constants: Mapping[str, int],
    ):
        self.program = program
        self.helper_ids = dict(helper_ids)
        self.constants = dict(constants)
        self.functions = {fn.name: fn for fn in program.functions}
        self.emitter = _Emitter()
        self.frame = _Frame()
        self._loop_stack: List[Tuple[str, str]] = []  # (continue, break) labels
        self._inline_stack: List[str] = []
        # (end label, last statement) of the innermost inlined call.
        self._inline_returns: List[Tuple[str, Optional[Statement]]] = []

    # -- entry -----------------------------------------------------------

    def compile(self) -> List[Instruction]:
        entry = self.program.entry
        scope = _Scope()
        for index, param in enumerate(entry.params):
            offset = self.frame.alloc_scalar(entry.line)
            scope.declare(param, "var", offset, entry.line)
            self.emitter.store_reg(8, 10, offset, index + 1)
        self._block(entry.body, scope)
        if not (entry.body.statements and isinstance(entry.body.statements[-1], Return)):
            # Implicit ``return 0`` for paths that fall off the end.
            self.emitter.mov_imm(0, 0)
            self.emitter.exit()
        return self.emitter.finish()

    # -- statements ---------------------------------------------------------

    def _block(self, block: Block, parent: _Scope) -> None:
        scope = _Scope(parent)
        for statement in block.statements:
            self._statement(statement, scope)
        # Block locals die with the scope: recycle their slots.
        for offset in scope.scalar_slots:
            self.frame.free_temp(offset)

    def _statement(self, statement: Statement, scope: _Scope) -> None:
        emit = self.emitter
        if isinstance(statement, VarDecl):
            offset = self.frame.alloc_scalar(statement.line)
            init = statement.init if statement.init is not None else Number(0, statement.line)
            self._assign(offset, init, scope)
            scope.declare(statement.name, "var", offset, statement.line)
            return
        if isinstance(statement, ArrayDecl):
            size = statement.element_size * statement.count
            if size <= 0:
                raise CompileError(statement.line, "zero-sized array")
            offset = self.frame.alloc_block(size, statement.line)
            scope.declare(
                statement.name, "array", offset, statement.line,
                elem=statement.element_size,
            )
            return
        if isinstance(statement, Assign):
            entry = scope.lookup(statement.name)
            if entry is None or entry[0] != "var":
                raise CompileError(
                    statement.line, f"assignment to undeclared {statement.name!r}"
                )
            self._assign(entry[1], statement.value, scope)
            return
        if isinstance(statement, IndexAssign):
            # The value is evaluated before the index.
            leaf = self._leaf(statement.value, scope)
            parked = leaf is None
            if parked:
                leaf = self._park(statement.value, scope)
            reg, offset, elem = self._element(statement.name, statement.index, statement.line, scope)
            self._store_leaf(elem, reg, offset, leaf)
            if parked:
                self.frame.free_temp(leaf[1])
            return
        if isinstance(statement, Store):
            # The address is evaluated before the value.
            base, offset = _displaced(_fold(statement.address))
            leaf = self._leaf(statement.value, scope)
            if leaf is not None:
                self._store_leaf(statement.size, self._expr(base, scope), offset, leaf)
            else:
                src = self._both(base, statement.value, scope)
                emit.store_reg(statement.size, 1, offset, src)
            return
        if isinstance(statement, If):
            else_label = emit.new_label("else")
            end_label = emit.new_label("endif")
            self._branch(statement.condition, scope, else_label, False)
            self._block(statement.then_body, scope)
            if statement.else_body is not None:
                emit.ja(end_label)
                emit.bind(else_label)
                self._block(statement.else_body, scope)
                emit.bind(end_label)
            else:
                emit.bind(else_label)
            return
        if isinstance(statement, For):
            for_scope = _Scope(scope)
            if statement.init is not None:
                self._statement(statement.init, for_scope)
            top_label = emit.new_label("for")
            step_label = emit.new_label("forstep")
            end_label = emit.new_label("endfor")
            emit.bind(top_label)
            if statement.condition is not None:
                self._branch(statement.condition, for_scope, end_label, False)
            # `continue` jumps to the step clause, not the condition.
            self._loop_stack.append((step_label, end_label))
            self._block(statement.body, for_scope)
            self._loop_stack.pop()
            emit.bind(step_label)
            if statement.step is not None:
                self._statement(statement.step, for_scope)
            emit.ja(top_label)
            emit.bind(end_label)
            for offset in for_scope.scalar_slots:
                self.frame.free_temp(offset)
            return
        if isinstance(statement, While):
            top_label = emit.new_label("loop")
            end_label = emit.new_label("endloop")
            emit.bind(top_label)
            self._branch(statement.condition, scope, end_label, False)
            self._loop_stack.append((top_label, end_label))
            self._block(statement.body, scope)
            self._loop_stack.pop()
            emit.ja(top_label)
            emit.bind(end_label)
            return
        if isinstance(statement, Return):
            value = statement.value if statement.value is not None else Number(0, statement.line)
            if self._inline_returns:
                end_label, tail = self._inline_returns[-1]
                self._into(1, value, scope)
                if statement is not tail:
                    emit.ja(end_label)
            else:
                self._into(0, value, scope)
                emit.exit()
            return
        if isinstance(statement, Break):
            if not self._loop_stack:
                raise CompileError(statement.line, "break outside loop")
            emit.ja(self._loop_stack[-1][1])
            return
        if isinstance(statement, Continue):
            if not self._loop_stack:
                raise CompileError(statement.line, "continue outside loop")
            emit.ja(self._loop_stack[-1][0])
            return
        if isinstance(statement, ExprStatement):
            self._expr(statement.expr, scope)
            return
        raise CompileError(getattr(statement, "line", 0), f"bad statement {statement}")

    def _assign(self, offset: int, value: Expr, scope: _Scope) -> None:
        """Store ``value`` into the scalar slot at ``offset``."""
        leaf = self._leaf(value, scope)
        if leaf is not None:
            self._store_leaf(8, 10, offset, leaf)
        else:
            self.emitter.store_reg(8, 10, offset, self._expr(value, scope))

    def _store_leaf(self, size: int, reg: int, offset: int, leaf: Tuple[str, int]) -> None:
        """Store a leaf operand: an immediate as such, else through r2."""
        kind, value = leaf
        imm = (_imm32(value) if size == 8 else _s32(value)) if kind == "imm" else None
        if imm is not None:
            self.emitter.store_imm(size, reg, offset, imm)
        else:
            self._put(2, leaf)
            self.emitter.store_reg(size, reg, offset, 2)

    # -- conditions -------------------------------------------------------------

    def _branch(self, condition: Expr, scope: _Scope, label: str, when: bool) -> None:
        """Jump to ``label`` if ``condition``'s truth is ``when``; fall
        through otherwise."""
        condition = _fold(condition)
        if isinstance(condition, Unary) and condition.op == "!":
            self._branch(condition.operand, scope, label, not when)
            return
        if isinstance(condition, Logical):
            settles = condition.op == "||"  # the left truth that decides alone
            skip = label if when == settles else self.emitter.new_label("sc")
            self._branch(condition.left, scope, skip, settles)
            self._branch(condition.right, scope, label, when)
            if skip != label:
                self.emitter.bind(skip)
            return
        op, left, right = self._comparison(condition) or (
            "!=", condition, Number(0, condition.line)
        )
        if not when:
            op = _NEGATE[op]
        imm = self._immediate(op, right, scope)
        if imm is not None:
            self.emitter.jump(_JUMPS[op], self._expr(left, scope), label, imm=imm)
        else:
            src = self._both(left, right, scope)
            self.emitter.jump(_JUMPS[op], 1, label, src=src)

    def _comparison(self, expr: Expr) -> Optional[Tuple[str, Expr, Expr]]:
        """``(op, left, right)`` when ``expr`` compares two values."""
        if isinstance(expr, Binary) and expr.op in _JUMPS:
            return expr.op, expr.left, expr.right
        if isinstance(expr, Call) and expr.name in _JUMPS:
            if len(expr.args) != 2:
                raise CompileError(expr.line, f"{expr.name} takes two arguments")
            return expr.name, expr.args[0], expr.args[1]
        return None

    # -- operands -----------------------------------------------------------------

    def _leaf(self, expr: Expr, scope: _Scope) -> Optional[Tuple[str, int]]:
        """The operand a leaf ``expr`` names — ``("imm", value)``,
        ``("var", slot)`` or ``("array", block)`` — or None if compound."""
        expr = _fold(expr)
        if isinstance(expr, Number):
            return "imm", expr.value & _M64
        if isinstance(expr, Name):
            entry = scope.lookup(expr.name)
            if entry is not None:
                return entry[0], entry[1]
            if expr.name in self.constants:
                return "imm", self.constants[expr.name] & _M64
            raise CompileError(expr.line, f"undefined name {expr.name!r}")
        return None

    def _put(self, reg: int, leaf: Tuple[str, int]) -> None:
        """Materialise ``leaf`` in ``reg``, touching no other register."""
        kind, value = leaf
        if kind == "imm":
            self.emitter.mov_imm(reg, value)
        elif kind == "var":
            self.emitter.load(8, reg, 10, value)
        else:
            self.emitter.mov_reg(reg, 10)
            self.emitter.alu_imm("add", reg, value)

    def _into(self, reg: int, expr: Expr, scope: _Scope) -> None:
        """Compile ``expr`` into ``reg``."""
        leaf = self._leaf(expr, scope)
        if leaf is not None:
            self._put(reg, leaf)
            return
        got = self._expr(expr, scope)
        if got != reg:
            self.emitter.mov_reg(reg, got)

    def _immediate(self, op: str, expr: Expr, scope: _Scope) -> Optional[int]:
        """``expr`` as the immediate operand of ``op``, or None."""
        kind, value = self._leaf(expr, scope) or ("", 0)
        if kind != "imm" or (op in ("/", "%") and not value) or (op in ("<<", ">>") and value >= 64):
            return None  # (the verifier rejects a zero-constant divisor)
        return _imm32(value)

    def _both(self, left: Expr, right: Expr, scope: _Scope) -> int:
        """Evaluate ``left`` then ``right``; leave ``left`` in r1 and
        return the register (r0 or r2) holding ``right``."""
        emit = self.emitter
        right_leaf = self._leaf(right, scope)
        if right_leaf is not None:
            self._into(1, left, scope)
            self._put(2, right_leaf)
            return 2
        left_leaf = self._leaf(left, scope)
        parked = left_leaf is None
        if parked:  # a compound right operand may call helpers
            left_leaf = self._park(left, scope)
        src = self._expr(right, scope)
        if src == 1:
            emit.mov_reg(2, 1)
            src = 2
        self._put(1, left_leaf)
        if parked:
            self.frame.free_temp(left_leaf[1])
        return src

    def _park(self, expr: Expr, scope: _Scope) -> Tuple[str, int]:
        """Evaluate ``expr`` into a fresh temporary slot."""
        slot = self.frame.alloc_scalar(expr.line)
        self.emitter.store_reg(8, 10, slot, self._expr(expr, scope))
        return "var", slot

    def _element(self, name: str, index: Expr, line: int, scope: _Scope) -> Tuple[int, int, int]:
        """``(register, offset, width)`` addressing ``name[index]``."""
        entry = scope.lookup(name)
        if entry is None or entry[0] != "array":
            raise CompileError(line, f"{name!r} is not an array")
        _, offset, elem = entry
        reg = self._expr(index, scope)
        if elem != 1:
            self.emitter.alu_imm("mul", reg, elem)
        self.emitter.alu_reg("add", reg, 10)
        return reg, offset, elem

    # -- expressions -----------------------------------------------------------

    def _expr(self, expr: Expr, scope: _Scope) -> int:
        """Compile ``expr``; return the register holding its value: r0
        straight after a helper call, r1 otherwise."""
        expr = _fold(expr)
        emit = self.emitter

        leaf = self._leaf(expr, scope)
        if leaf is not None:
            self._put(1, leaf)
            return 1

        if (
            isinstance(expr, Logical)
            or (isinstance(expr, Unary) and expr.op == "!")
            or self._comparison(expr) is not None
        ):
            # A condition used as a value: 1 if it holds, else 0.
            false_label = emit.new_label("false")
            end_label = emit.new_label("bool")
            self._branch(expr, scope, false_label, False)
            emit.mov_imm(1, 1)
            emit.ja(end_label)
            emit.bind(false_label)
            emit.mov_imm(1, 0)
            emit.bind(end_label)
            return 1

        if isinstance(expr, Str):
            # NUL-terminated string on the stack; value is its address.
            data = expr.value + b"\x00"
            block = self.frame.alloc_block(len(data), expr.line)
            for index in range(0, len(data), 8):
                chunk = data[index : index + 8].ljust(8, b"\x00")
                self._store_leaf(8, 10, block + index, ("imm", int.from_bytes(chunk, "little")))
            self._put(1, ("array", block))
            return 1

        if isinstance(expr, Unary):
            reg = self._expr(expr.operand, scope)
            if expr.op == "-":
                emit.raw(Instruction(BPF_ALU64 | BPF_K | ALU_OPS["neg"], reg, 0, 0, 0))
            elif expr.op == "~":
                emit.alu_imm("xor", reg, -1)
            else:
                raise CompileError(expr.line, f"bad unary {expr.op!r}")
            return reg

        if isinstance(expr, Binary):
            if expr.op not in _ARITH:
                raise CompileError(expr.line, f"bad operator {expr.op!r}")
            op = _ARITH[expr.op]
            imm = self._immediate(expr.op, expr.right, scope)
            if imm is not None:
                reg = self._expr(expr.left, scope)
                emit.alu_imm(op, reg, imm)
                return reg
            emit.alu_reg(op, 1, self._both(expr.left, expr.right, scope))
            return 1

        if isinstance(expr, Load):
            base, offset = _displaced(expr.address)
            emit.load(expr.size, 1, self._expr(base, scope), offset)
            return 1

        if isinstance(expr, Index):
            reg, offset, elem = self._element(expr.name, expr.index, expr.line, scope)
            emit.load(elem, 1, reg, offset)
            return 1

        if isinstance(expr, Call):
            return self._call(expr, scope)

        raise CompileError(getattr(expr, "line", 0), f"bad expression {expr}")

    def _call(self, expr: Call, scope: _Scope) -> int:
        emit = self.emitter
        frame = self.frame

        # -- inline byte swaps -----------------------------------------
        if expr.name in _SWAPS:
            if len(expr.args) != 1:
                raise CompileError(expr.line, f"{expr.name} takes one argument")
            reg = self._expr(expr.args[0], scope)
            emit.endian_be(_SWAPS[expr.name], reg)
            return reg

        # -- user-function inlining ---------------------------------------
        if expr.name in self.functions and expr.name != self.program.entry.name:
            return self._inline(expr, scope)

        # -- helper call ------------------------------------------------------
        helper_id = self.helper_ids.get(expr.name)
        if helper_id is None:
            raise CompileError(expr.line, f"unknown function {expr.name!r}")
        leaves = [self._leaf(arg, scope) for arg in expr.args]
        parked = [index for index, leaf in enumerate(leaves) if leaf is None]
        for index in parked:  # compound arguments run first, in order
            leaves[index] = self._park(expr.args[index], scope)
        for index, leaf in enumerate(leaves):
            self._put(index + 1, leaf)
        for index in parked:
            frame.free_temp(leaves[index][1])
        emit.call(helper_id)
        return 0

    def _inline(self, expr: Call, scope: _Scope) -> int:
        if expr.name in self._inline_stack:
            raise CompileError(expr.line, f"recursive call to {expr.name!r}")
        if len(self._inline_stack) >= _MAX_INLINE_DEPTH:
            raise CompileError(expr.line, "inline depth exceeded")
        function = self.functions[expr.name]
        if len(expr.args) != len(function.params):
            raise CompileError(
                expr.line,
                f"{expr.name} expects {len(function.params)} arguments, "
                f"got {len(expr.args)}",
            )
        emit = self.emitter
        callee_scope = _Scope()  # no access to caller locals
        for param, arg in zip(function.params, expr.args):
            offset = self.frame.alloc_scalar(expr.line)
            self._assign(offset, arg, scope)
            callee_scope.declare(param, "var", offset, expr.line)
        statements = function.body.statements
        tail = statements[-1] if statements else None
        end_label = emit.new_label(f"ret_{expr.name}")
        self._inline_stack.append(expr.name)
        self._inline_returns.append((end_label, tail))
        self._block(function.body, callee_scope)
        self._inline_returns.pop()
        self._inline_stack.pop()
        if not isinstance(tail, Return):
            emit.mov_imm(1, 0)  # fell off the end: returns 0
        emit.bind(end_label)
        # The callee's parameter slots die with the call.
        for offset in callee_scope.scalar_slots:
            self.frame.free_temp(offset)
        return 1


def compile_program(
    program: Program,
    helper_ids: Optional[Mapping[str, int]] = None,
    constants: Optional[Mapping[str, int]] = None,
) -> List[Instruction]:
    """Compile a parsed program to eBPF instructions."""
    return _Compiler(program, helper_ids or {}, constants or {}).compile()


def compile_source(
    source: str,
    helper_ids: Optional[Mapping[str, int]] = None,
    constants: Optional[Mapping[str, int]] = None,
) -> List[Instruction]:
    """Compile xc ``source`` to eBPF instructions.

    ``helper_ids`` maps callable helper names to call numbers;
    ``constants`` predefines names (session types, filter verdicts…)
    usable as integer literals.
    """
    numeric_constants = {
        name: int(value) for name, value in (constants or {}).items()
    }
    program = parse(source, numeric_constants)
    return compile_program(program, helper_ids or {}, numeric_constants)
