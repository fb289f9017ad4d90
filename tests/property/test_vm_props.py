"""Property-based tests on the eBPF toolchain.

Key invariants:

* the JIT translator computes exactly what the interpreter computes,
  for arbitrary (verified) arithmetic programs;
* assemble/disassemble round-trips;
* xc-compiled arithmetic agrees with Python's own evaluation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf.assembler import assemble
from repro.ebpf.disassembler import disassemble
from repro.ebpf.verifier import VerifierConfig, verify
from repro.ebpf.vm import VirtualMachine
from repro.xc import compile_source

_M64 = (1 << 64) - 1

# -- random straight-line ALU programs ----------------------------------

_ALU_OPS = ["add", "sub", "mul", "div", "or", "and", "xor", "lsh", "rsh", "arsh", "mod"]


@st.composite
def alu_programs(draw):
    """A straight-line program over r0-r5 ending in exit."""
    lines = []
    for reg in range(6):
        lines.append(f"mov r{reg}, {draw(st.integers(-2**31, 2**31 - 1))}")
    for _ in range(draw(st.integers(1, 25))):
        op = draw(st.sampled_from(_ALU_OPS))
        suffix = draw(st.sampled_from(["", "32"]))
        dst = draw(st.integers(0, 5))
        if draw(st.booleans()):
            operand = f"r{draw(st.integers(0, 5))}"
        else:
            value = draw(st.integers(-2**31, 2**31 - 1))
            if op in ("div", "mod") and value == 0:
                value = 1  # constant zero divisors are verifier-rejected
            if op in ("lsh", "rsh", "arsh"):
                value = draw(st.integers(0, 63))
            operand = str(value)
        lines.append(f"{op}{suffix} r{dst}, {operand}")
    lines.append("mov r0, r0")
    lines.append("exit")
    return "\n".join(lines)


class TestJitInterpreterEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(alu_programs())
    def test_alu_agreement(self, source):
        program = assemble(source)
        verify(program, VerifierConfig())
        interp = VirtualMachine(program).run()
        jitted = VirtualMachine(program, tier="jit").run()
        assert interp == jitted

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 2**63), min_size=1, max_size=6),
        st.integers(0, 2**31 - 1),
    )
    def test_memory_and_branches(self, values, pivot):
        # Store values on the stack, sum those above the pivot.
        lines = []
        for index, value in enumerate(values):
            lines.append(f"lddw r1, {value}")
            lines.append(f"stxdw [r10-{8 * (index + 1)}], r1")
        lines.append("mov r0, 0")
        for index in range(len(values)):
            lines.append(f"ldxdw r2, [r10-{8 * (index + 1)}]")
            lines.append(f"jle r2, {pivot}, skip{index}")
            lines.append("add r0, r2")
            lines.append(f"skip{index}:")
            lines.append("mov r3, 0")
        lines.append("exit")
        program = assemble("\n".join(lines))
        verify(program, VerifierConfig())
        interp = VirtualMachine(program).run()
        jitted = VirtualMachine(program, tier="jit").run()
        expected = sum(v for v in values if v > pivot) & _M64
        assert interp == jitted == expected


class TestRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(alu_programs())
    def test_disassemble_assemble(self, source):
        program = assemble(source)
        assert assemble(disassemble(program)) == program


class TestXcArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(0, 2**32),
        b=st.integers(1, 2**16),
        c=st.integers(0, 2**16),
    )
    def test_expression_matches_python(self, a, b, c):
        source = f"""
        u64 f() {{
            u64 a = {a};
            u64 b = {b};
            u64 c = {c};
            return (a + b * c) % (b + 1) + (a / b) + (a ^ c) + (c << 3) + (a >> 5);
        }}
        """
        expected = ((a + b * c) % (b + 1) + (a // b) + (a ^ c) + (c << 3) + (a >> 5)) & _M64
        program = compile_source(source)
        for tier in ("interp", "jit"):
            vm = VirtualMachine(program, tier=tier, trusted_layout=tier == "jit")
            assert vm.run() == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=16))
    def test_loop_sum_matches_python(self, values):
        stores = "".join(
            f"*(u8 *)(buf + {i}) = {v};\n" for i, v in enumerate(values)
        )
        source = f"""
        u64 f() {{
            u8 buf[16];
            {stores}
            u64 total = 0;
            u64 i = 0;
            while (i < {len(values)}) {{
                total = total + *(u8 *)(buf + i);
                i = i + 1;
            }}
            return total;
        }}
        """
        program = compile_source(source)
        for tier in ("interp", "jit"):
            vm = VirtualMachine(program, tier=tier, trusted_layout=tier == "jit")
            assert vm.run() == sum(values)
