"""Edge-case tests for corners the main suites pass over."""

import struct

import pytest

from repro.bgp.constants import SessionType
from repro.bgp.peer import Neighbor
from repro.core.abi import pack_peer_info
from repro.core.context import ExecutionContext
from repro.core.insertion_points import InsertionPoint
from repro.ebpf.disassembler import disassemble, disassemble_one
from repro.ebpf.isa import Instruction, InstructionError
from repro.ebpf.memory import SandboxViolation, VmMemory


class TestDisassemblerEdges:
    def test_lddw_missing_second_slot_rejected(self):
        with pytest.raises(InstructionError):
            disassemble([Instruction(0x18, 1, 0, 0, 5)])

    def test_unknown_opcode_rejected(self):
        with pytest.raises(InstructionError):
            disassemble_one(Instruction(0xFF, 0, 0, 0, 0))

    def test_negative_offsets_render(self):
        text = disassemble_one(Instruction(0x79, 1, 10, -8, 0))
        assert text == "ldxdw r1, [r10-8]"

    def test_store_immediate_renders(self):
        text = disassemble_one(Instruction(0x7A, 10, 0, -16, 99))
        assert text == "stdw [r10-16], 99"


class TestVmMemoryEdges:
    def test_unterminated_cstring_faults(self):
        memory = VmMemory(heap_size=32)
        address = memory.alloc_bytes(b"\x41" * 8)
        with pytest.raises(SandboxViolation):
            memory.read_cstring(address, limit=4)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            VmMemory().alloc(-1)

    def test_alloc_aligns_to_eight(self):
        memory = VmMemory()
        first = memory.alloc(3)
        second = memory.alloc(1)
        assert (second - first) == 8

    def test_frame_pointer_at_stack_top(self):
        memory = VmMemory()
        assert memory.frame_pointer() == memory.stack.end


class TestInsertionPointParse:
    def test_parse_by_name_and_value(self):
        assert (
            InsertionPoint.parse("BGP_INBOUND_FILTER")
            == InsertionPoint.parse("bgp_inbound_filter")
            == InsertionPoint.BGP_INBOUND_FILTER
        )

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError):
            InsertionPoint.parse("BGP_TELEPORT")


class TestNeighborAndContext:
    def test_session_type_flips_with_asn(self):
        same = Neighbor.build("10.0.0.2", 65001, "10.0.0.1", 65001)
        other = Neighbor.build("10.0.0.2", 65002, "10.0.0.1", 65001)
        assert same.is_ibgp() and not same.is_ebgp()
        assert other.is_ebgp() and not other.is_ibgp()

    def test_session_type_follows_later_asn_writes(self):
        neighbor = Neighbor.build("10.0.0.2", 65002, "10.0.0.1", 65001)
        assert neighbor.session_type is SessionType.EBGP_SESSION
        for field, value, expected in (
            ("peer_asn", 65001, SessionType.IBGP_SESSION),
            ("local_asn", 65003, SessionType.EBGP_SESSION),
            ("peer_asn", 65003, SessionType.IBGP_SESSION),
        ):
            pack_peer_info(neighbor)
            assert neighbor._packed_info is not None
            setattr(neighbor, field, value)
            assert neighbor.session_type is expected
            assert neighbor._packed_info is None
            assert struct.unpack("<9I", pack_peer_info(neighbor))[0] == expected
        with pytest.raises(AttributeError):
            neighbor.session_type = SessionType.EBGP_SESSION

    def test_router_id_defaults_to_address(self):
        neighbor = Neighbor.build("10.0.0.2", 65002, "10.0.0.1", 65001)
        assert neighbor.peer_router_id == neighbor.peer_address

    def test_context_defaults(self):
        ctx = ExecutionContext(host=None, insertion_point=InsertionPoint.BGP_DECISION)
        assert ctx.error is None
        assert ctx.hidden == {}
        assert "BGP_DECISION" in repr(ctx)
