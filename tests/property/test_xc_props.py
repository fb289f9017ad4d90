"""Property-based tests: xc programs against a Python reference model.

Random programs exercising the full statement surface (for/while,
compound assignment, array indexing, folding) must compute exactly
what equivalent Python computes, under both execution engines.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf import VirtualMachine
from repro.xc import compile_source

_M64 = (1 << 64) - 1


def run_both(source, **regs):
    program = compile_source(source)
    results = set()
    for tier in ("interp", "jit"):
        vm = VirtualMachine(program, tier=tier, trusted_layout=tier == "jit")
        results.add(vm.run(**regs))
    assert len(results) == 1, "engines disagree"
    return results.pop()


class TestForLoops:
    @settings(max_examples=40, deadline=None)
    @given(
        start=st.integers(0, 50),
        stop=st.integers(0, 80),
        stride=st.integers(1, 7),
    )
    def test_sum_with_stride(self, start, stop, stride):
        source = f"""
        u64 f() {{
            u64 total = 0;
            for (u64 i = {start}; i < {stop}; i += {stride}) {{
                total += i;
            }}
            return total;
        }}
        """
        assert run_both(source) == sum(range(start, stop, stride)) & _M64

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.integers(0, 255), min_size=1, max_size=12))
    def test_array_reverse(self, values):
        count = len(values)
        stores = "".join(f"data[{i}] = {v};\n" for i, v in enumerate(values))
        source = f"""
        u64 f(u64 pick) {{
            u8 data[{count}];
            u8 flipped[{count}];
            {stores}
            for (u64 i = 0; i < {count}; i += 1) {{
                flipped[{count - 1} - i] = data[i];
            }}
            return flipped[pick];
        }}
        """
        for pick in range(count):
            assert run_both(source, r1=pick) == list(reversed(values))[pick]


class TestCompoundOps:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(1, 2**31),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["+=", "-=", "*=", "|=", "&=", "^=", "<<=", ">>="]),
                st.integers(1, 2**16),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_sequence_matches_python(self, seed, ops):
        body = "".join(f"x {op} {value};\n" for op, value in ops)
        source = f"u64 f() {{ u64 x = {seed}; {body} return x; }}"
        expected = seed
        for op, value in ops:
            if op == "+=":
                expected = (expected + value) & _M64
            elif op == "-=":
                expected = (expected - value) & _M64
            elif op == "*=":
                expected = (expected * value) & _M64
            elif op == "|=":
                expected |= value
            elif op == "&=":
                expected &= value
            elif op == "^=":
                expected ^= value
            elif op == "<<=":
                expected = (expected << (value % 64)) & _M64
            elif op == ">>=":
                expected >>= value % 64
        assert run_both(source) == expected


class TestFoldingSoundness:
    @settings(max_examples=50, deadline=None)
    @given(
        a=st.integers(0, 2**31),
        b=st.integers(0, 2**31),
        c=st.integers(1, 2**16),
    )
    def test_constant_expressions(self, a, b, c):
        # Entirely constant: the folder computes it at compile time.
        source = f"u64 f() {{ return ({a} + {b}) * 3 / {c} + ({a} ^ {b}) % {c}; }}"
        expected = (((a + b) * 3 & _M64) // c + ((a ^ b) % c)) & _M64
        assert run_both(source) == expected
