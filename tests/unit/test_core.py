"""Unit tests for libxbgp core: ABI, extension state, manifest, VMM."""

import json
import struct

import pytest

from repro.bgp.peer import Neighbor
from repro.core import (
    AttachError,
    ExecutionContext,
    ExtensionCode,
    HELPER_IDS,
    InsertionPoint,
    Manifest,
    ManifestError,
    VirtualMachineManager,
    VmmConfig,
    XbgpProgram,
    build_helper_table,
)
from repro.core.abi import (
    PEER_INFO_SIZE,
    pack_arg,
    pack_attr,
    pack_nexthop_info,
    pack_peer_info,
)
from repro.core.extension import ProgramState
from repro.core.host_interface import HostImplementation
from repro.ebpf.assembler import assemble
from repro.ebpf.memory import SandboxViolation


class NullHost(HostImplementation):
    name = "null"

    def __init__(self):
        self.logged = []
        self.attrs = {}

    def get_attr(self, ctx, code):
        return self.attrs.get(code)

    def set_attr(self, ctx, code, flags, value):
        from repro.bgp.attributes import PathAttribute

        self.attrs[code] = PathAttribute(flags, code, value)
        return True

    def add_attr(self, ctx, code, flags, value):
        if code in self.attrs:
            return False
        return self.set_attr(ctx, code, flags, value)

    def remove_attr(self, ctx, code):
        return self.attrs.pop(code, None) is not None

    def get_nexthop(self, ctx):
        return 0x0A000001, 25, True

    def get_xtra(self, ctx, key):
        return b"value" if key == "key" else None

    def rib_announce(self, ctx, prefix, next_hop):
        return True

    def log(self, message):
        self.logged.append(message)


class TestAbi:
    def test_helper_ids_are_stable_and_unique(self):
        assert len(set(HELPER_IDS.values())) == len(HELPER_IDS)
        # A few anchors of the ABI — changing these breaks bytecode.
        assert HELPER_IDS["next"] == 1
        assert HELPER_IDS["get_peer_info"] == 3
        assert HELPER_IDS["write_buf"] == 10

    def test_pack_peer_info_layout(self):
        neighbor = Neighbor.build("10.0.0.2", 65002, "10.0.0.1", 65001, rr_client=True)
        blob = pack_peer_info(neighbor)
        assert len(blob) == PEER_INFO_SIZE
        fields = struct.unpack("<9I", blob)
        assert fields[0] == 2  # EBGP_SESSION
        assert fields[1] == 65002
        assert fields[7] == 1  # rr_client

    def test_pack_nexthop(self):
        assert struct.unpack("<3I", pack_nexthop_info(5, 10, True)) == (5, 10, 1)

    def test_pack_attr_header(self):
        blob = pack_attr(9, 0x80, b"\xab\xcd")
        assert blob[:4] == struct.pack("<BBH", 9, 0x80, 2)
        assert blob[4:] == b"\xab\xcd"

    def test_pack_arg(self):
        assert pack_arg(b"xy") == struct.pack("<I", 2) + b"xy"


class TestProgramState:
    def test_shm_new_and_get(self):
        state = ProgramState(shared_size=64)
        address = state.shm_new(1, 16)
        assert state.shm_get(1) == address
        assert state.shm_get(2) == 0

    def test_shm_duplicate_key_rejected(self):
        state = ProgramState(shared_size=64)
        state.shm_new(1, 8)
        with pytest.raises(SandboxViolation):
            state.shm_new(1, 8)

    def test_shm_exhaustion(self):
        state = ProgramState(shared_size=16)
        state.shm_new(1, 16)
        with pytest.raises(SandboxViolation):
            state.shm_new(2, 8)

    def test_maps(self):
        state = ProgramState()
        map_id = state.map_new()
        state.map_update(map_id, 5, 100)
        state.map_update(map_id, 5, 200)
        assert state.map_lookup(map_id, 5) == 100
        assert state.map_lookup(map_id, 5, index=1) == 200
        assert state.map_lookup(map_id, 5, index=2) is None
        assert state.map_lookup(map_id, 9) is None
        assert state.map_size(map_id) == 1

    def test_unknown_map_rejected(self):
        with pytest.raises(KeyError):
            ProgramState().map_update(9, 1, 1)


class TestManifest:
    def _spec(self, **overrides):
        spec = {
            "name": "code1",
            "insertion_point": "BGP_INBOUND_FILTER",
            "seq": 0,
            "helpers": ["next"],
            "source": "u64 f(u64 a) { next(); return 0; }",
        }
        spec.update(overrides)
        return spec

    def test_json_roundtrip(self):
        manifest = Manifest(name="m", codes=[self._spec()], maps={"t": [[1, 2]]})
        again = Manifest.from_json(manifest.to_json())
        assert again.name == "m"
        assert again.maps == {"t": [[1, 2]]}

    def test_load_compiles_source(self):
        program = Manifest(name="m", codes=[self._spec()]).load()
        assert len(program.codes) == 1
        assert program.codes[0].instructions
        assert program.codes[0].layout_hint

    def test_load_accepts_hex_bytecode(self):
        from repro.ebpf.isa import encode_program

        blob = encode_program(assemble("mov r0, 0\nexit")).hex()
        spec = self._spec()
        del spec["source"]
        spec["bytecode"] = blob
        program = Manifest(name="m", codes=[spec]).load()
        assert len(program.codes[0].instructions) == 2
        assert not program.codes[0].layout_hint

    def test_rejects_both_source_and_bytecode(self):
        with pytest.raises(ManifestError):
            Manifest(name="m", codes=[self._spec(bytecode="b70000000000000095000000000000")])

    def test_rejects_unknown_helper(self):
        with pytest.raises(ManifestError, match="unknown helpers"):
            Manifest(name="m", codes=[self._spec(helpers=["teleport"])])

    def test_rejects_bad_insertion_point(self):
        with pytest.raises(ManifestError):
            Manifest(name="m", codes=[self._spec(insertion_point="BGP_NOPE")])

    def test_rejects_duplicate_code_names(self):
        with pytest.raises(ManifestError, match="duplicate"):
            Manifest(name="m", codes=[self._spec(), self._spec()])

    def test_rejects_no_codes(self):
        with pytest.raises(ManifestError):
            Manifest(name="m", codes=[])

    def test_rejects_bad_json(self):
        with pytest.raises(ManifestError):
            Manifest.from_json("{")

    def test_map_constants_exposed(self):
        manifest = Manifest(
            name="m",
            codes=[
                self._spec(
                    helpers=["map_lookup"],
                    source="u64 f(u64 a) { return map_lookup(MAP_T, 1); }",
                )
            ],
            maps={"t": [[1, 42]]},
        )
        program = manifest.load()
        assert program.map_constants() == {"MAP_T": 1}


class TestVmm:
    def _code(self, name, source, helpers=("next",), point=InsertionPoint.BGP_INBOUND_FILTER, seq=0):
        from repro.core.abi import PLUGIN_CONSTANTS
        from repro.xc import compile_source

        instructions = compile_source(source, HELPER_IDS, PLUGIN_CONSTANTS)
        return ExtensionCode(name, instructions, list(helpers), point, seq=seq, layout_hint=True)

    def test_default_runs_when_nothing_attached(self):
        vmm = VirtualMachineManager(NullHost())
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 77

    def test_extension_result_returned(self):
        vmm = VirtualMachineManager(NullHost())
        code = self._code("x", "u64 f(u64 a) { return 5; }", helpers=())
        vmm.attach_program(XbgpProgram("p", [code]))
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 5

    def test_next_falls_back_to_default(self):
        vmm = VirtualMachineManager(NullHost())
        code = self._code("x", "u64 f(u64 a) { next(); return 5; }")
        vmm.attach_program(XbgpProgram("p", [code]))
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 77

    def test_chain_order_and_next(self):
        vmm = VirtualMachineManager(NullHost())
        first = self._code("first", "u64 f(u64 a) { next(); return 1; }", seq=0)
        second = self._code("second", "u64 f(u64 a) { return 2; }", helpers=(), seq=1)
        vmm.attach_program(XbgpProgram("p", [first, second]))
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 2
        assert vmm.attached_codes(InsertionPoint.BGP_INBOUND_FILTER) == ["first", "second"]

    def test_error_falls_back_and_notifies(self):
        host = NullHost()
        vmm = VirtualMachineManager(host)
        # Dereference of NULL: sandbox violation at runtime.
        code = self._code("bad", "u64 f(u64 a) { return *(u64 *)(0); }", helpers=())
        vmm.attach_program(XbgpProgram("p", [code]))
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 77
        assert vmm.fallbacks == 1
        assert vmm.stats()["bad"]["errors"] == 1
        assert any("falling back" in line for line in host.logged)

    def test_attach_rejects_undeclared_helper(self):
        vmm = VirtualMachineManager(NullHost())
        # Bytecode calls get_attr but the manifest only declares next.
        code = self._code(
            "sneaky", "u64 f(u64 a) { return get_attr(1); }", helpers=("next",)
        )
        with pytest.raises(AttachError, match="verification"):
            vmm.attach_program(XbgpProgram("p", [code]))

    def test_attach_rejects_unknown_helper_name(self):
        code = ExtensionCode("x", assemble("mov r0, 0\nexit"), ["warp"], InsertionPoint.BGP_DECISION)
        with pytest.raises(AttachError):
            VirtualMachineManager(NullHost()).attach_program(XbgpProgram("p", [code]))

    def test_attach_rejects_duplicate_program(self):
        vmm = VirtualMachineManager(NullHost())
        code = self._code("x", "u64 f(u64 a) { return 0; }", helpers=())
        vmm.attach_program(XbgpProgram("p", [code]))
        with pytest.raises(AttachError, match="already"):
            vmm.attach_program(XbgpProgram("p", [self._code("y", "u64 f(u64 a) { return 0; }", helpers=())]))

    def test_detach_program(self):
        vmm = VirtualMachineManager(NullHost())
        code = self._code("x", "u64 f(u64 a) { return 5; }", helpers=())
        vmm.attach_program(XbgpProgram("p", [code]))
        vmm.detach_program("p")
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 77
        with pytest.raises(KeyError):
            vmm.detach_program("p")

    def test_attach_rejects_a_code_that_is_not_bytecode(self):
        """Bytecode is the one kind of extension code: a Python callable
        posing as one is refused, and nothing of its program attaches."""

        class PythonCode:
            name = "py"
            insertion_point = InsertionPoint.BGP_DECISION
            seq = 0
            helper_names = []

            def fn(self, ctx):
                return 123

        vmm = VirtualMachineManager(NullHost())
        good = self._code("x", "u64 f(u64 a) { return 5; }", helpers=())
        with pytest.raises(AttachError, match="unsupported code object"):
            vmm.attach_program(XbgpProgram("p", [good, PythonCode()]))
        assert vmm.stats() == {}
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 77

    def test_interp_engine_configurable(self):
        vmm = VirtualMachineManager(NullHost(), VmmConfig(tier="interp"))
        code = self._code("x", "u64 f(u64 a) { return 5; }", helpers=())
        vmm.attach_program(XbgpProgram("p", [code]))
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 0) == 5

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            VmmConfig(tier="warp")


class TestHelpers:
    def _vmm_with(self, source, helpers, maps=None):
        manifest = Manifest(
            name="t",
            codes=[
                {
                    "name": "t",
                    "insertion_point": "BGP_INBOUND_FILTER",
                    "seq": 0,
                    "helpers": list(helpers),
                    "source": source,
                }
            ],
            maps=maps or {},
        )
        host = NullHost()
        vmm = VirtualMachineManager(host)
        vmm.attach_program(manifest.load())
        return vmm, host

    def test_get_xtra_and_strings(self):
        source = """
        u64 f(u64 a) {
            u64 v = get_xtra("key");
            if (v == 0) { return 0; }
            u64 len = *(u32 *)(v);          // arg block: length header
            u64 first = *(u8 *)(v + 4);     // then the payload bytes
            return len * 256 + first;
        }
        """
        vmm, host = self._vmm_with(source, ["get_xtra"])
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 0) == 5 * 256 + ord("v")

    def test_get_xtra_missing_returns_null(self):
        source = 'u64 f(u64 a) { return get_xtra("nope"); }'
        vmm, host = self._vmm_with(source, ["get_xtra"])
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 0) == 0

    def test_get_nexthop_struct(self):
        source = """
        u64 f(u64 a) {
            u64 nh = get_nexthop(0);
            return *(u32 *)(nh + 4);
        }
        """
        vmm, host = self._vmm_with(source, ["get_nexthop"])
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 0) == 25

    def test_add_attr_then_get_attr(self):
        source = """
        u64 f(u64 a) {
            u8 buf[4];
            *(u32 *)(buf) = 0xdeadbeef;
            add_attr(243, 192, buf, 4);
            u64 attr = get_attr(243);
            if (attr == 0) { return 0; }
            return *(u16 *)(attr + 2);
        }
        """
        vmm, host = self._vmm_with(source, ["add_attr", "get_attr"])
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 0) == 4  # length field of the view

    def test_write_buf_requires_encode_context(self):
        source = """
        u64 f(u64 a) {
            u8 buf[2];
            *(u16 *)(buf) = 7;
            return write_buf(buf, 2);
        }
        """
        vmm, host = self._vmm_with(source, ["write_buf"])
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        # No out_buffer: helper errors, VMM falls back to default.
        assert vmm.run(ctx, lambda: 55) == 55
        assert vmm.fallbacks == 1
        out = bytearray()
        ctx2 = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER, out_buffer=out)
        # With a buffer the bytecode writes two bytes and returns the count.
        assert vmm.run(ctx2, lambda: 55) == 2
        assert bytes(out) == (7).to_bytes(2, "little")

    def test_maps_preloaded_from_manifest(self):
        source = """
        u64 f(u64 a) {
            u64 hit = map_lookup(MAP_T, 5);
            u64 miss = map_lookup(MAP_T, 6);
            if (miss + 1 != 0) { return 0; }
            return hit;
        }
        """
        vmm, host = self._vmm_with(source, ["map_lookup"], maps={"t": [[5, 99]]})
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 0) == 99

    def test_shared_memory_persists_between_runs(self):
        source = """
        u64 f(u64 a) {
            u64 p = ctx_shmget(1);
            if (p == 0) { p = ctx_shmnew(1, 8); }
            *(u64 *)(p) = *(u64 *)(p) + 1;
            return *(u64 *)(p);
        }
        """
        vmm, host = self._vmm_with(source, ["ctx_shmget", "ctx_shmnew"])
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 0) == 1
        assert vmm.run(ctx, lambda: 0) == 2
        assert vmm.run(ctx, lambda: 0) == 3

    def test_ebpf_print_reaches_host_log(self):
        source = 'u64 f(u64 a) { ebpf_print("hello"); return 0; }'
        vmm, host = self._vmm_with(source, ["ebpf_print"])
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        vmm.run(ctx, lambda: 0)
        assert any("hello" in line for line in host.logged)

    def test_helper_isolation_between_programs(self):
        # Two programs get distinct shared memory: counters don't mix.
        source = """
        u64 f(u64 a) {
            u64 p = ctx_shmget(1);
            if (p == 0) { p = ctx_shmnew(1, 8); }
            *(u64 *)(p) = *(u64 *)(p) + 1;
            return *(u64 *)(p);
        }
        """
        host = NullHost()
        vmm = VirtualMachineManager(host)
        for name in ("p1", "p2"):
            manifest = Manifest(
                name=name,
                codes=[
                    {
                        "name": f"{name}_code",
                        "insertion_point": "BGP_INBOUND_FILTER",
                        "seq": 0 if name == "p1" else 1,
                        "helpers": ["ctx_shmget", "ctx_shmnew"],
                        "source": source,
                    }
                ],
            )
            vmm.attach_program(manifest.load())
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        # Only the first program in the chain returns; run twice.
        assert vmm.run(ctx, lambda: 0) == 1
        assert vmm.run(ctx, lambda: 0) == 2
