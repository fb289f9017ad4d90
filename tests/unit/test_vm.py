"""Unit tests for the eBPF interpreter (and its sandbox)."""

import pytest

from repro.ebpf.assembler import assemble
from repro.ebpf.helpers import HelperError, HelperTable
from repro.ebpf.memory import (
    MemoryRegion,
    SandboxViolation,
    VmMemory,
    STACK_SIZE,
)
from repro.ebpf.vm import ExecutionError, VirtualMachine


def run(source, helpers=None, memory=None, budget=100000, **regs):
    vm = VirtualMachine(assemble(source, helpers.name_to_id() if helpers else None),
                        helpers, memory, step_budget=budget)
    return vm.run(**regs)


class TestAlu:
    def test_mov_add_sub(self):
        assert run("mov r0, 10\nadd r0, 5\nsub r0, 3\nexit") == 12

    def test_mul_div_mod(self):
        assert run("mov r0, 7\nmul r0, 6\ndiv r0, 5\nmod r0, 5\nexit") == 3

    def test_runtime_division_by_zero_yields_zero(self):
        assert run("mov r0, 7\nmov r1, 0\ndiv r0, r1\nexit") == 0

    def test_runtime_modulo_by_zero_keeps_value(self):
        assert run("mov r0, 7\nmov r1, 0\nmod r0, r1\nexit") == 7

    def test_bitwise(self):
        assert run("mov r0, 0xF0\nor r0, 0x0F\nand r0, 0x3C\nxor r0, 0xFF\nexit") == 0xC3

    def test_shifts(self):
        assert run("mov r0, 1\nlsh r0, 40\nrsh r0, 8\nexit") == 1 << 32

    def test_arsh_sign_extends(self):
        assert run("mov r0, -8\narsh r0, 1\nexit") == (-4) & ((1 << 64) - 1)

    def test_neg(self):
        assert run("mov r0, 5\nneg r0\nexit") == ((1 << 64) - 5)

    def test_negative_immediate_sign_extends_to_64(self):
        assert run("mov r0, -1\nexit") == (1 << 64) - 1

    def test_alu32_truncates_and_zero_extends(self):
        assert run("mov r0, -1\nadd32 r0, 1\nexit") == 0
        assert run("lddw r0, 0x1FFFFFFFF\nmov32 r0, r0\nexit") == 0xFFFFFFFF

    def test_lddw_full_64bit(self):
        assert run("lddw r0, 0x1122334455667788\nexit") == 0x1122334455667788

    def test_be16(self):
        assert run("mov r0, 0x1234\nbe16 r0\nexit") == 0x3412

    def test_be32(self):
        assert run("mov r0, 0x12345678\nbe32 r0\nexit") == 0x78563412

    def test_le_truncates(self):
        assert run("lddw r0, 0x1122334455667788\nle32 r0\nexit") == 0x55667788

    def test_shift_amount_wraps(self):
        assert run("mov r0, 1\nmov r1, 64\nlsh r0, r1\nexit") == 1


class TestJumps:
    def test_unsigned_vs_signed_compare(self):
        # -1 unsigned is huge: jgt takes it; jsgt must not.
        assert run("mov r1, -1\nmov r0, 0\njgt r1, 5, t\nexit\nt:\nmov r0, 1\nexit") == 1
        assert run("mov r1, -1\nmov r0, 0\njsgt r1, 5, t\nexit\nt:\nmov r0, 1\nexit") == 0

    def test_jset(self):
        assert run("mov r1, 0b1010\nmov r0, 0\njset r1, 0b0010, t\nexit\nt:\nmov r0, 1\nexit") == 1

    def test_jump32_compares_low_word(self):
        src = "lddw r1, 0x100000001\nmov r0, 0\njeq32 r1, 1, t\nexit\nt:\nmov r0, 1\nexit"
        assert run(src) == 1

    def test_loop_counts(self):
        source = """
            mov r0, 0
        top:
            add r0, 2
            jlt r0, 10, top
            exit
        """
        assert run(source) == 10


class TestMemory:
    def test_stack_store_load_all_sizes(self):
        source = """
            mov r1, 0x1122334455667788
            lddw r1, 0x1122334455667788
            stxdw [r10-8], r1
            ldxw r2, [r10-8]
            ldxh r3, [r10-8]
            ldxb r4, [r10-8]
            mov r0, r2
            add r0, r3
            add r0, r4
            exit
        """
        assert run(source) == 0x55667788 + 0x7788 + 0x88

    def test_store_immediate(self):
        assert run("stdw [r10-8], 99\nldxdw r0, [r10-8]\nexit") == 99

    def test_out_of_stack_read_faults(self):
        with pytest.raises(SandboxViolation):
            run(f"ldxdw r0, [r10-{STACK_SIZE + 8}]\nexit")

    def test_null_dereference_faults(self):
        with pytest.raises(SandboxViolation):
            run("mov r1, 0\nldxdw r0, [r1]\nexit")

    def test_read_only_region_rejects_writes(self):
        memory = VmMemory()
        region = MemoryRegion(0x7000_0000, 16, writable=False, label="ro")
        memory.attach(region)
        with pytest.raises(SandboxViolation):
            run("lddw r1, 0x70000000\nstdw [r1], 1\nexit", memory=memory)

    def test_attached_region_readable(self):
        memory = VmMemory()
        region = MemoryRegion(0x7000_0000, 16, writable=False, label="ro")
        region.data[0:4] = (1234).to_bytes(4, "little")
        memory.attach(region)
        assert run("lddw r1, 0x70000000\nldxw r0, [r1]\nexit", memory=memory) == 1234

    def test_overlapping_region_rejected(self):
        memory = VmMemory()
        with pytest.raises(ValueError):
            memory.attach(MemoryRegion(memory.stack.base, 8))

    def test_heap_alloc_and_reset(self):
        memory = VmMemory(heap_size=64)
        address = memory.alloc_bytes(b"hello")
        assert memory.read_bytes(address, 5) == b"hello"
        memory.reset_heap()
        assert memory.heap_used == 0
        # The contract is that *allocated* blocks read as zeros, not that
        # freed memory is scrubbed at reset time (lazy zeroing defers it).
        fresh = memory.alloc(8)
        assert fresh == address
        assert memory.read_bytes(fresh, 8) == b"\x00" * 8

    def test_heap_lazy_zero_partial_reuse(self):
        memory = VmMemory(heap_size=64)
        memory.alloc_bytes(b"\xff" * 32)
        memory.reset_heap()
        # A smaller allocation only scrubs its own span; the rest of the
        # dirty watermark is scrubbed when later allocations reach it.
        first = memory.alloc(8)
        assert memory.read_bytes(first, 8) == b"\x00" * 8
        second = memory.alloc(24)
        assert memory.read_bytes(second, 24) == b"\x00" * 24

    def test_heap_exhaustion(self):
        memory = VmMemory(heap_size=16)
        memory.alloc(16)
        with pytest.raises(SandboxViolation):
            memory.alloc(8)

    def test_cstring_read(self):
        memory = VmMemory()
        address = memory.alloc_bytes(b"abc\x00junk")
        assert memory.read_cstring(address) == b"abc"


class TestCallsAndBudget:
    def test_helper_result_in_r0(self):
        helpers = HelperTable()
        helpers.register(1, "f", lambda vm, *a: 1234)
        assert run("call f\nexit", helpers=helpers) == 1234

    def test_helper_receives_r1_to_r5(self):
        seen = {}
        helpers = HelperTable()
        helpers.register(1, "f", lambda vm, *a: seen.setdefault("args", a) and 0 or 0)
        run("mov r1, 1\nmov r2, 2\nmov r3, 3\nmov r4, 4\nmov r5, 5\ncall f\nexit",
            helpers=helpers)
        assert seen["args"] == (1, 2, 3, 4, 5)

    def test_call_clobbers_argument_registers(self):
        helpers = HelperTable()
        helpers.register(1, "f", lambda vm, *a: 0)
        assert run("mov r1, 9\ncall f\nmov r0, r1\nexit", helpers=helpers) == 0

    def test_unknown_helper_faults(self):
        with pytest.raises(ExecutionError):
            run("call 42\nexit")

    def test_helper_error_propagates(self):
        helpers = HelperTable()

        def bad(vm, *a):
            raise HelperError("nope")

        helpers.register(1, "f", bad)
        with pytest.raises(HelperError):
            run("call f\nexit", helpers=helpers)

    def test_instruction_budget(self):
        source = """
            mov r0, 0
        top:
            add r0, 1
            ja top
        """
        with pytest.raises(ExecutionError, match="budget"):
            run(source + "\nexit", budget=100)

    def test_arguments_passed_to_program(self):
        assert run("mov r0, r1\nadd r0, r2\nexit", r1=3, r2=4) == 7


class TestHelperTable:
    def test_duplicate_id_rejected(self):
        table = HelperTable()
        table.register(1, "a", lambda vm: 0)
        with pytest.raises(ValueError):
            table.register(1, "b", lambda vm: 0)

    def test_duplicate_name_rejected(self):
        table = HelperTable()
        table.register(1, "a", lambda vm: 0)
        with pytest.raises(ValueError):
            table.register(2, "a", lambda vm: 0)

    def test_restricted_subset(self):
        table = HelperTable()
        table.register(1, "a", lambda vm: 0)
        table.register(2, "b", lambda vm: 0)
        sub = table.restricted(["a"])
        assert 1 in sub and 2 not in sub

    def test_restricted_unknown_name(self):
        with pytest.raises(KeyError):
            HelperTable().restricted(["ghost"])
