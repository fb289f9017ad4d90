"""xc differential: random programs on an AST evaluator vs the compiled bytecode.

The engine oracle compares the interpreter with the compiled tier on
the *same* bytecode, so it cannot see a compiler bug.  Here the judge
shares nothing with :mod:`repro.xc.codegen`: :class:`Evaluator` walks
the parsed AST directly, and every random program must produce the
evaluator's result, helper log and heap image on ``interp`` and on
``jit``.  The programs lean on what operand-form code gets wrong:
immediates at the sign-extension boundaries, comparisons as values and
as branches, ``&&``/``||`` around logging helpers (short-circuit and
evaluation order), nested helper-call arguments, loads and stores at
constant displacements from a helper-returned heap pointer, ``/`` and
``%`` by a runtime zero, and shifts by 64 or more.
"""

import inspect
import random
import sys
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf import HelperTable, VerifierConfig, VirtualMachine, verify
from repro.ebpf.memory import HEAP_BASE
from repro.xc import codegen, compile_source, parse
from repro.xc.astnodes import (
    Assign, Binary, Call, ExprStatement, For, If, Load, Logical, Name, Number,
    Return, Store, Unary, VarDecl, While,
)

M64 = (1 << 64) - 1
HELPERS = {"log": 1, "halloc": 2}
BLOCK = 64  # bytes per halloc block
INTERESTING = (
    0, 1, 3, 7, 64, 65, 127, (1 << 31) - 1, 1 << 31, (1 << 32) - 1,
    1 << 63, (1 << 64) - (1 << 31), M64,
)


# -- the reference: an evaluator of the xc AST -------------------------------


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _signed(value):
    return value - (1 << 64) if value >> 63 else value


def _swap(value, bits):
    return int.from_bytes((value & ((1 << bits) - 1)).to_bytes(bits // 8, "little"), "big")


_BINARY = {
    "+": lambda a, b: (a + b) & M64,
    "-": lambda a, b: (a - b) & M64,
    "*": lambda a, b: (a * b) & M64,
    "/": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else a,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: (a << (b % 64)) & M64,
    ">>": lambda a, b: a >> (b % 64),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}
_BUILTINS = {
    "sgt": lambda a, b: int(_signed(a) > _signed(b)),
    "sge": lambda a, b: int(_signed(a) >= _signed(b)),
    "slt": lambda a, b: int(_signed(a) < _signed(b)),
    "sle": lambda a, b: int(_signed(a) <= _signed(b)),
    "htons": lambda a: _swap(a, 16),
    "htonl": lambda a: _swap(a, 32),
    "htonll": lambda a: _swap(a, 64),
}


class Evaluator:
    """Runs a parsed xc program: the scalar subset plus heap memory."""

    def __init__(self, program):
        self.functions = {fn.name: fn for fn in program.functions}
        self.entry = program.entry
        self.heap = bytearray(4096)
        self.used = 0
        self.log = []

    def run(self, *args):
        return self.call(self.entry, args)

    def call(self, function, args):
        scope = [dict(zip(function.params, args))]
        try:
            self.block(function.body, scope)
        except _Return as done:
            return done.value
        return 0

    def block(self, block, scope):
        scope.append({})
        try:
            for statement in block.statements:
                self.statement(statement, scope)
        finally:
            scope.pop()

    def lookup(self, scope, name):
        return next(frame for frame in reversed(scope) if name in frame)

    def statement(self, s, scope):
        if isinstance(s, VarDecl):
            scope[-1][s.name] = 0 if s.init is None else self.expr(s.init, scope)
        elif isinstance(s, Assign):
            value = self.expr(s.value, scope)
            self.lookup(scope, s.name)[s.name] = value
        elif isinstance(s, Store):
            address = self.expr(s.address, scope)
            self.poke(address, s.size, self.expr(s.value, scope))
        elif isinstance(s, If):
            if self.expr(s.condition, scope):
                self.block(s.then_body, scope)
            elif s.else_body is not None:
                self.block(s.else_body, scope)
        elif isinstance(s, (While, For)):
            scope.append({})
            if isinstance(s, For) and s.init is not None:
                self.statement(s.init, scope)
            while s.condition is None or self.expr(s.condition, scope):
                try:
                    self.block(s.body, scope)
                except _Break:
                    break
                except _Continue:
                    pass
                if isinstance(s, For) and s.step is not None:
                    self.statement(s.step, scope)
            scope.pop()
        elif isinstance(s, Return):
            raise _Return(0 if s.value is None else self.expr(s.value, scope))
        elif isinstance(s, ExprStatement):
            self.expr(s.expr, scope)
        else:
            raise {"Break": _Break, "Continue": _Continue}[type(s).__name__]()

    def expr(self, e, scope):
        if isinstance(e, Number):
            return e.value & M64
        if isinstance(e, Name):
            return self.lookup(scope, e.name)[e.name]
        if isinstance(e, Unary):
            value = self.expr(e.operand, scope)
            return {"-": (-value) & M64, "~": value ^ M64, "!": int(value == 0)}[e.op]
        if isinstance(e, Binary):
            left = self.expr(e.left, scope)
            return _BINARY[e.op](left, self.expr(e.right, scope))
        if isinstance(e, Logical):
            left = self.expr(e.left, scope) != 0
            if left == (e.op == "||"):
                return int(left)
            return int(self.expr(e.right, scope) != 0)
        if isinstance(e, Load):
            return self.peek(self.expr(e.address, scope), e.size)
        if isinstance(e, Call):
            args = [self.expr(arg, scope) for arg in e.args]
            if e.name in _BUILTINS:
                return _BUILTINS[e.name](*args)
            if e.name in self.functions:
                return self.call(self.functions[e.name], args)
            return getattr(self, "helper_" + e.name)(*args)
        raise NotImplementedError(type(e).__name__)

    def helper_log(self, a, b):
        self.log.append(("log", a, b))
        return (a * 0x9E3779B97F4A7C15 + b + len(self.log)) & M64

    def helper_halloc(self):
        address = HEAP_BASE + self.used
        self.used += BLOCK
        self.log.append(("halloc", address))
        return address

    def _offset(self, address, size):
        offset = address - HEAP_BASE
        assert 0 <= offset and offset + size <= self.used, "generated access out of bounds"
        return offset

    def peek(self, address, size):
        offset = self._offset(address, size)
        return int.from_bytes(self.heap[offset : offset + size], "little")

    def poke(self, address, size, value):
        offset = self._offset(address, size)
        self.heap[offset : offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


# -- random programs -----------------------------------------------------------

_SIZES = {1: "u8", 2: "u16", 4: "u32", 8: "u64"}


def _program(rng: random.Random) -> str:
    names = ["a", "b", "c", "x", "z"]

    def leaf():
        if rng.random() < 0.5:
            return rng.choice(names)
        return str(rng.choice(INTERESTING))

    def load():
        size = rng.choice(list(_SIZES))
        return f"*({_SIZES[size]} *)(p + {rng.randrange(0, BLOCK - size + 1)})"

    def expr(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.2:
            return leaf()
        sub = lambda: expr(depth - 1)  # noqa: E731
        if roll < 0.45:
            op = rng.choice(list(_BINARY))
            return f"({sub()} {op} {sub()})"
        if roll < 0.55:
            return f"({sub()} {rng.choice(('&&', '||'))} log({sub()}, {leaf()}))"
        if roll < 0.62:
            return f"{rng.choice(('-', '~', '!'))}{sub()}"
        if roll < 0.7:
            return f"log({sub()}, {sub()})"
        if roll < 0.76:
            return f"mix({sub()}, {sub()})"
        if roll < 0.84:
            return load()
        if roll < 0.9:
            return f"{rng.choice(('sgt', 'sge', 'slt', 'sle'))}({sub()}, {sub()})"
        if roll < 0.94:
            return f"({sub()} {rng.choice(('/', '%'))} z)"
        if roll < 0.97:
            return f"({sub()} {rng.choice(('<<', '>>'))} {rng.choice((64, 65, 127, 1 << 63))})"
        return f"{rng.choice(('htons', 'htonl', 'htonll'))}({sub()})"

    def statement(depth):
        roll = rng.random()
        if roll < 0.3:
            return f"{rng.choice('abc')} = {expr(3)};"
        if roll < 0.5:
            size = rng.choice(list(_SIZES))
            offset = rng.choice((0, BLOCK - size, rng.randrange(0, BLOCK - size + 1)))
            return f"*({_SIZES[size]} *)(p + {offset}) = {expr(3)};"
        if roll < 0.7 and depth > 0:
            return (
                f"if ({expr(2)}) {{ {statement(depth - 1)} }} "
                f"else {{ {statement(depth - 1)} }}"
            )
        if roll < 0.8 and depth > 0:
            i = f"i{depth}"
            return (
                f"for (u64 {i} = 0; {i} < 3 && {expr(2)}; {i} = {i} + 1) "
                f"{{ {statement(depth - 1)} }}"
            )
        return f"log({expr(2)}, {expr(2)});"

    body = "\n    ".join(statement(2) for _ in range(rng.randint(2, 6)))
    a, b = (rng.choice(INTERESTING) for _ in range(2))
    return f"""
u64 mix(u64 u, u64 v) {{
    if (u < v) {{ return u - v; }}
    if (sgt(u, v)) {{ return log(u, v); }}
    return v ^ (u >> 3);
}}
u64 f(u64 x) {{
    u64 p = halloc();
    u64 z = 0;
    u64 a = {a};
    u64 b = {b};
    u64 c = x;
    {body}
    return {expr(3)};
}}
"""


def _helpers(log):
    table = HelperTable()

    def helper_log(vm, a, b, *_):
        log.append(("log", a, b))
        return (a * 0x9E3779B97F4A7C15 + b + len(log)) & M64

    def helper_halloc(vm, *_):
        address = vm.memory.alloc(BLOCK)
        log.append(("halloc", address))
        return address

    table.register(HELPERS["log"], "log", helper_log)
    table.register(HELPERS["halloc"], "halloc", helper_halloc)
    return table


def _disagreement(seed):
    """None, or how a compiled run of program ``seed`` left the evaluator."""
    rng = random.Random(seed)
    source = _program(rng)
    x = rng.choice(INTERESTING)
    reference = Evaluator(parse(source))
    expected = (reference.run(x), reference.log, bytes(reference.heap[: reference.used]))
    program = compile_source(source, HELPERS)
    verify(program, VerifierConfig(allow_loops=True, allowed_helpers=set(HELPERS.values())))
    for tier in ("interp", "jit"):
        log = []
        vm = VirtualMachine(program, _helpers(log), tier=tier, trusted_layout=True)
        result = vm.run(x)
        heap = bytes(vm.memory.heap_region.data[: vm.memory.heap_used])
        if (result, log, heap) != expected:
            return f"{tier} on x={x}:\n{source}"
    return None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compiled_programs_match_the_evaluator(seed):
    assert _disagreement(seed) is None


# -- the differential kills planted codegen bugs ---------------------------------


def _killed(limit=300):
    return any(_disagreement(seed) for seed in range(limit))


def test_swapped_negation_is_killed(monkeypatch):
    monkeypatch.setitem(codegen._NEGATE, "<", ">")
    monkeypatch.setitem(codegen._NEGATE, "<=", ">=")
    assert _killed()


def test_dropped_left_operand_spill_is_killed(monkeypatch):
    # The left operand is evaluated, but its slot is never written.
    function = codegen._Compiler._both
    source = textwrap.dedent(inspect.getsource(function))
    spill = "left_leaf = self._park(left, scope)"
    unspilled = 'self._expr(left, scope); left_leaf = ("var", self.frame.alloc_scalar(left.line))'
    assert source.count(spill) == 1
    scope = {}
    exec(
        compile(source.replace(spill, unspilled), "<mutant>", "exec"),
        vars(sys.modules[function.__module__]),
        scope,
    )
    monkeypatch.setattr(codegen._Compiler, "_both", scope["_both"])
    assert _killed()
