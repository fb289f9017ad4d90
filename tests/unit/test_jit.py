"""Unit tests for the eBPF→Python JIT: equivalence with the interpreter."""

import pytest

from repro.ebpf.assembler import assemble
from repro.ebpf.helpers import HelperTable
from repro.ebpf.jit import SCALAR_LIMIT, _promotable_slots
from repro.ebpf.memory import SandboxViolation, VmMemory
from repro.ebpf.vm import ExecutionError, VirtualMachine
from repro.xc import compile_source

CORPUS = [
    "mov r0, -1\nadd32 r0, 1\nexit",
    "lddw r0, 0x8000000000000000\narsh r0, 3\nexit",
    "mov r0, 7\nmov r1, 0\ndiv r0, r1\nexit",
    "mov r0, 7\nmov r1, 0\nmod r0, r1\nexit",
    "mov r0, 0x1234\nbe16 r0\nexit",
    "lddw r0, 0x1122334455667788\nle32 r0\nexit",
    "mov r1, -1\nmov r0, 0\njsgt r1, 5, t\nexit\nt:\nmov r0, 1\nexit",
    "mov r1, -1\nmov r0, 0\njgt r1, 5, t\nexit\nt:\nmov r0, 1\nexit",
    "mov r0, 0\ntop:\nadd r0, 3\njlt r0, 100, top\nexit",
    "mov r1, 5\nstxdw [r10-8], r1\nldxdw r0, [r10-8]\nexit",
    "stdw [r10-16], 123\nldxb r0, [r10-16]\nexit",
    "mov r0, 1\nmov r1, 64\nlsh r0, r1\nexit",
    "mov r0, 1\nlsh r0, 33\nrsh32 r0, 1\nexit",
]


def both(source, **regs):
    program = assemble(source)
    interp = VirtualMachine(program).run(**regs)
    jitted = VirtualMachine(program, tier="jit").run(**regs)
    return interp, jitted


class TestEquivalence:
    @pytest.mark.parametrize("source", CORPUS)
    def test_corpus(self, source):
        interp, jitted = both(source)
        assert interp == jitted

    def test_arguments(self):
        interp, jitted = both("mov r0, r1\nmul r0, r2\nexit", r1=7, r2=9)
        assert interp == jitted == 63

    def test_xc_program_with_arrays(self):
        source = """
        u64 main(u64 x) {
            u8 buf[16];
            *(u32 *)(buf) = htonl(0xdeadbeef);
            *(u32 *)(buf + 4) = 0x01020304;
            u64 a = *(u8 *)(buf);
            u64 b = *(u16 *)(buf + 4);
            return a * 65536 + b + x;
        }
        """
        program = compile_source(source)
        results = set()
        for tier in ("interp", "jit"):
            vm = VirtualMachine(program, tier=tier, trusted_layout=tier == "jit")
            results.add(vm.run(r1=5))
        assert len(results) == 1

    def test_helper_interplay(self):
        helpers = HelperTable()
        helpers.register(1, "double", lambda vm, a, *rest: (a * 2) & ((1 << 64) - 1))
        program = assemble("mov r1, 21\ncall double\nexit", helpers.name_to_id())
        interp = VirtualMachine(program, helpers).run()
        jitted = VirtualMachine(program, helpers, tier="jit").run()
        assert interp == jitted == 42


class TestJitSpecifics:
    def test_budget_enforced(self):
        program = assemble("mov r0, 0\ntop:\nadd r0, 1\nja top\nexit")
        vm = VirtualMachine(program, tier="jit", step_budget=100)
        with pytest.raises(ExecutionError, match="budget"):
            vm.run()

    def test_sandbox_still_enforced(self):
        program = assemble("mov r1, 0\nldxdw r0, [r1]\nexit")
        with pytest.raises(SandboxViolation):
            VirtualMachine(program, tier="jit").run()

    def test_prepare_is_idempotent(self):
        vm = VirtualMachine(assemble("mov r0, 3\nexit"), tier="jit")
        first = vm.prepare()
        assert vm.prepare() is first
        assert first() == vm.run() == 3


class TestPromotion:
    def test_plain_stack_slots_promoted(self):
        program = assemble("mov r1, 5\nstxdw [r10-8], r1\nldxdw r0, [r10-8]\nexit")
        assert _promotable_slots(program) == {-8}

    def test_materialised_r10_disables_promotion(self):
        program = assemble(
            "mov r1, r10\nadd r1, -8\nmov r2, 5\nstxdw [r10-8], r2\nexit"
        )
        assert _promotable_slots(program) == set()

    def test_subword_stack_access_disables_promotion(self):
        program = assemble("stb [r10-8], 1\nmov r0, 0\nexit")
        assert _promotable_slots(program) == set()

    def test_trusted_layout_keeps_scalars(self):
        program = assemble(
            f"mov r1, r10\nadd r1, -{SCALAR_LIMIT + 8}\n"
            "mov r2, 5\nstxdw [r10-8], r2\nldxdw r0, [r10-8]\nexit"
        )
        assert _promotable_slots(program, trusted_layout=True) == {-8}

    def test_trusted_layout_excludes_block_region(self):
        program = assemble(
            f"mov r1, 5\nstxdw [r10-{SCALAR_LIMIT + 8}], r1\nmov r0, 0\nexit"
        )
        assert _promotable_slots(program, trusted_layout=True) == set()

    def test_semantics_identical_with_aliasing_when_untrusted(self):
        # A program that writes a slot via a materialised pointer: the
        # conservative JIT must see the pointer write.
        source = """
            mov r1, r10
            add r1, -8
            mov r2, 77
            stxdw [r1], r2
            ldxdw r0, [r10-8]
            exit
        """
        program = assemble(source)
        interp = VirtualMachine(program).run()
        jitted = VirtualMachine(program, tier="jit").run()
        assert interp == jitted == 77
