"""A userspace eBPF virtual machine: ISA, assembler, verifier, interpreter.

This is the reproduction of the paper's "modified eBPF virtual
machine": extension bytecode is genuine eBPF (64-bit ISA, r0-r10,
512-byte stack, helper calls), executed in a sandboxed address space
with static verification before attach and an instruction budget at
runtime.
"""

from .assembler import AssemblerError, assemble
from .disassembler import disassemble
from .helpers import TERMINATED, Helper, HelperError, HelperTable
from .isa import Instruction, decode_program, encode_program
from .memory import MemoryRegion, SandboxViolation, VmMemory
from .verifier import VerifierConfig, VerifierError, verify
from .vm import ExecutionError, VirtualMachine

__all__ = [
    "AssemblerError",
    "assemble",
    "disassemble",
    "Helper",
    "HelperError",
    "HelperTable",
    "TERMINATED",
    "Instruction",
    "decode_program",
    "encode_program",
    "MemoryRegion",
    "SandboxViolation",
    "VmMemory",
    "VerifierConfig",
    "VerifierError",
    "verify",
    "ExecutionError",
    "VirtualMachine",
]
