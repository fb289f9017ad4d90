"""Unit tests for the compiled tier's compiler (repro.ebpf.native).

Four invariants carry the tier:

* observable parity — result, step count, helper-call *sequence* and
  heap image match the interpreter exactly, structured and dispatch-
  only alike, on handwritten programs here and on every paper
  use-case plugin (block-level profile agreement);
* graceful demotion — programs the structurer declines (pinned
  opcodes, oversized programs, irreducible control flow past the bail
  budget) compile to the dispatch-only form with a recorded reason,
  never an error;
* sandbox preservation — faults, budget blowouts and quarantine
  behave identically under ``tier="jit"``;
* ``tier`` takes two values; the retired third one and the ``engine=``
  alias are rejected.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.aspath import AsPath
from repro.bgp.attributes import make_as_path, make_next_hop, make_origin
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import parse_ipv4
from repro.core import Manifest
from repro.core.vmm import VmmConfig
from repro.ebpf import native
from repro.ebpf.assembler import assemble
from repro.ebpf.isa import Instruction
from repro.ebpf.jit import translate
from repro.ebpf.memory import VmMemory
from repro.ebpf.native import NativeUnsupported, translate_native
from repro.ebpf.vm import ExecutionError, VirtualMachine
from repro.fuzz.gen import FUZZ_HELPER_IDS
from repro.fuzz.oracles import make_fuzz_helpers
from repro.frr import FrrDaemon
from repro.telemetry import QuarantinePolicy

from test_profiler import SCENARIOS

PREFIX = Prefix.parse("203.0.113.0/24")

CRASHING = """
u64 crash(u64 args) {
    return *(u64 *)(0);
}
"""

SPINNING = """
u64 spin(u64 args) {
    u64 i = 0;
    while (1) {
        i += 1;
    }
    return i;
}
"""


def manifest_for(name, source, helpers=("next", "get_arg"), seq=0):
    return Manifest(
        name=name,
        codes=[
            {
                "name": name,
                "insertion_point": "BGP_INBOUND_FILTER",
                "seq": seq,
                "helpers": list(helpers),
                "source": source,
            }
        ],
    )


def feed(daemon, prefix=PREFIX):
    update = UpdateMessage(
        attributes=[
            make_origin(Origin.IGP),
            make_as_path(AsPath.from_sequence([65100])),
            make_next_hop(parse_ipv4("10.0.0.9")),
        ],
        nlri=[prefix],
    )
    daemon.receive_message("10.0.0.9", update)


def make_daemon(daemon_cls, vmm_config=None):
    daemon = daemon_cls(asn=65001, router_id="1.1.1.1", vmm_config=vmm_config)
    daemon.add_neighbor("10.0.0.9", 65100, lambda data: None)
    daemon._established[parse_ipv4("10.0.0.9")] = True
    return daemon

#: Loop + promoted stack slot + helper traffic.
LOOP_SRC = """
    mov r6, 0
    mov r7, 0
    stxdw [r10-8], r7
loop:
    mov r1, r6
    mov r2, 3
    call probe
    ldxdw r3, [r10-8]
    add r3, r0
    stxdw [r10-8], r3
    add r6, 1
    jne r6, 8, loop
    ldxdw r0, [r10-8]
    and r0, 0xffff
    exit
"""

#: If/else diamond feeding a heap write (heap-image parity).
DIAMOND_SRC = """
    mov r6, 5
    jeq r6, 5, then
    mov r7, 1
    ja join
then:
    mov r7, 2
join:
    call halloc
    mov r8, r0
    stxdw [r8+0], r7
    ldxdw r0, [r8+0]
    exit
"""

#: The then arm leaves r1 mirroring the slot the else arm then loads:
#: the else arm must not inherit that mirror (it once returned r1 = 0).
ELSE_AFTER_THEN_SRC = """
    mov r2, 7
    stxdw [r10-8], r2
    jeq r1, 0, else
    mov r1, 5
    stxdw [r10-8], r1
    ja end
else:
    ldxdw r1, [r10-8]
    mov r0, r1
    exit
end:
    mov r0, 0
    exit
"""

#: Likewise for the code after a loop, entered only from the loop test.
AFTER_LOOP_SRC = """
    mov r2, 7
    stxdw [r10-8], r2
    mov r3, 0
loop:
    jge r3, r1, done
    mov r4, 9
    stxdw [r10-8], r4
    add r3, 1
    ja loop
done:
    ldxdw r4, [r10-8]
    mov r0, r4
    exit
"""

#: Dereferences an unmapped address: must fault identically.
WILD_SRC = """
    lddw r6, 0x50000000
    ldxdw r0, [r6+0]
    exit
"""

#: Jumps *into* a loop body past its header: irreducible control flow
#: the structurer cannot express, exercising the bail/demotion path.
IRREDUCIBLE_SRC = """
    mov r6, 1
    jeq r6, 1, inside
loop:
    add r6, 1
inside:
    add r6, 2
    jlt r6, 40, loop
    mov r0, r6
    exit
"""


def _run(source, tier, step_budget=100_000):
    """One VM invocation; returns the full observable outcome.

    ``tier="dispatch"`` is the dispatch-loop translator called directly,
    as :func:`repro.ebpf.native.compile_program` calls it for a program
    the structurer declines.
    """
    program = assemble(source, FUZZ_HELPER_IDS)
    calls = []
    memory = VmMemory(heap_size=4096)
    vm = VirtualMachine(
        program,
        helpers=make_fuzz_helpers(calls),
        memory=memory,
        step_budget=step_budget,
        tier="interp" if tier == "dispatch" else tier,
    )
    if tier == "dispatch":
        result = translate(vm.program, vm.helpers, memory, step_budget, vm)()
    else:
        result = vm.run()
    heap = bytes(memory.heap_region.data[: memory.heap_used])
    return vm, (result, vm.steps_executed, vm.helper_calls, list(calls), heap)


class TestVmParity:
    """Result, steps, helper sequence and heap image match interp."""

    @pytest.mark.parametrize(
        "source", [LOOP_SRC, DIAMOND_SRC, IRREDUCIBLE_SRC], ids=["loop", "diamond", "irreducible"]
    )
    def test_outcome_matches_interp(self, source):
        _, interp = _run(source, "interp")
        _, compiled = _run(source, "jit")
        _, dispatch_only = _run(source, "dispatch")
        assert compiled == interp
        assert dispatch_only == interp

    @pytest.mark.parametrize(
        "source", [ELSE_AFTER_THEN_SRC, AFTER_LOOP_SRC], ids=["else-arm", "after-loop"]
    )
    def test_no_register_mirror_leaks_across_a_branch(self, source):
        _, interp = _run(source, "interp")
        _, compiled = _run(source, "jit")
        assert interp[0] == 7
        assert compiled == interp

    def test_loop_compiles_native(self):
        vm, _ = _run(LOOP_SRC, "jit")
        info = vm.compile_info
        assert info.shape == "structured" and info.declined is None
        assert info.loops == 1
        assert info.bail_sites == 0
        assert "while True:" in info.source

    def test_sandbox_fault_matches_interp(self):
        errors = {}
        for tier in ("interp", "jit", "dispatch"):
            with pytest.raises(Exception) as excinfo:
                _run(WILD_SRC, tier)
            errors[tier] = (type(excinfo.value), str(excinfo.value))
        assert errors["interp"] == errors["jit"] == errors["dispatch"]

    def test_budget_blowout_raised_by_both_tiers(self):
        # Per-block vs per-step budget checks legitimately disagree on
        # the faulting pc (the documented engine divergence) — but every
        # form must abort with a budget error.
        for tier in ("interp", "jit", "dispatch"):
            with pytest.raises(ExecutionError, match="budget"):
                _run("loop:\n    ja loop\n", tier, step_budget=1000)

    def test_irreducible_flow_demotes_not_errors(self):
        vm, _ = _run(IRREDUCIBLE_SRC, "jit")
        # Whichever way the policy lands — runtime bail sites or a
        # declined program — it must be visible in attribution.
        assert vm.compile_info.shape in ("tail", "dispatch")
        assert vm.compile_info.bail_blocks


def _decline_everything(monkeypatch):
    def decline(*args, **kwargs):
        raise NativeUnsupported("declined by the test")

    monkeypatch.setattr(native, "translate_native", decline)


class TestPluginParity:
    """Structured and dispatch-only compilations agree with the
    interpreter on all five paper use-case plugins, at block-profile
    granularity (profiled runs)."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_block_profiles_and_state_agree(self, name, monkeypatch):
        interp_daemon = SCENARIOS[name]("interp")
        compiled_daemon = SCENARIOS[name]("jit")
        _decline_everything(monkeypatch)
        dispatch_daemon = SCENARIOS[name]("jit")
        interp = {
            (p.point, p.extension): p for p in interp_daemon.profiler.profiles()
        }
        assert interp, f"{name}: no extension executed"
        for daemon, declined in ((compiled_daemon, None), (dispatch_daemon, "declined by the test")):
            compiled = {(p.point, p.extension): p for p in daemon.profiler.profiles()}
            assert interp.keys() == compiled.keys()
            for key in interp:
                profile_i, profile_c = interp[key], compiled[key]
                assert profile_c.engine == "jit"
                assert profile_c.compiled.declined == declined, key
                assert profile_i.runs == profile_c.runs > 0
                assert profile_i.block_profile() == profile_c.block_profile()
                assert profile_i.instructions() == profile_c.instructions() > 0
                assert profile_i.helper_count == profile_c.helper_count
                assert profile_i.heap_hwm == profile_c.heap_hwm
                assert profile_i.stack_hwm == profile_c.stack_hwm
            assert interp_daemon.vmm.stats() == daemon.vmm.stats()
            assert len(interp_daemon.loc_rib) == len(daemon.loc_rib)


class TestFallback:
    """A program the structurer declines still runs, on the dispatch
    loop, and reports why."""

    def test_pinned_opcode_falls_back(self, monkeypatch):
        program = assemble(LOOP_SRC, FUZZ_HELPER_IDS)
        monkeypatch.setattr(
            native, "PINNED_OPCODES", frozenset({program[0].opcode})
        )
        _, interp = _run(LOOP_SRC, "interp")
        vm, outcome = _run(LOOP_SRC, "jit")
        info = vm.compile_info
        assert info.shape == "dispatch"
        assert "pinned" in info.declined
        assert info.structured_blocks == [] and info.bail_blocks
        assert info.summary()["dispatch_only_blocks"] == len(info.bail_blocks)
        assert outcome == interp  # the dispatch-only form still runs correctly

    def test_oversized_program_falls_back(self):
        mov = Instruction(0xB7, 0, 0, 0, 7)
        exit_ = Instruction(0x95, 0, 0, 0, 0)
        program = [mov] * (native.MAX_PROGRAM_SLOTS + 1) + [exit_]
        vm = VirtualMachine(program, step_budget=10, tier="jit")
        vm.prepare()
        assert vm.compile_info.shape == "dispatch"
        assert "too large" in vm.compile_info.declined

    def test_translate_native_raises_on_pinned(self, monkeypatch):
        program = assemble(DIAMOND_SRC, FUZZ_HELPER_IDS)
        monkeypatch.setattr(
            native, "PINNED_OPCODES", frozenset({program[0].opcode})
        )
        memory = VmMemory(heap_size=4096)
        vm = VirtualMachine(program, memory=memory, step_budget=10)
        with pytest.raises(NativeUnsupported, match="pinned"):
            translate_native(program, vm.helpers, memory, 10, vm)


class TestNativeUnderFaults:
    """Quarantine and fault injection on the compiled tier, structured
    and dispatch-only."""

    def test_crashing_code_falls_back_to_host(self, monkeypatch):
        for shape in ("structured", "dispatch"):
            if shape == "dispatch":
                _decline_everything(monkeypatch)
            daemon = make_daemon(FrrDaemon, VmmConfig(tier="jit"))
            daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
            assert daemon.vmm.tiers()["crasher"]["compiled"]["shape"] == shape
            feed(daemon)
            assert daemon.loc_rib.lookup(PREFIX) is not None
            assert daemon.vmm.stats()["crasher"]["errors"] == 1

    def test_spinner_hits_budget(self):
        daemon = make_daemon(FrrDaemon, VmmConfig(step_budget=10_000, tier="jit"))
        daemon.attach_manifest(manifest_for("spinner", SPINNING, helpers=()))
        feed(daemon)
        assert daemon.loc_rib.lookup(PREFIX) is not None
        assert daemon.vmm.stats()["spinner"]["errors"] == 1
        assert any("budget" in line for line in daemon.log_messages)

    def test_quarantine_opens_on_native_tier(self):
        config = VmmConfig(tier="jit", quarantine=QuarantinePolicy(error_threshold=2))
        daemon = make_daemon(FrrDaemon, config)
        daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
        for index in range(3):
            feed(daemon, Prefix(0x0A000000 + (index << 8), 24))
        assert "crasher" in daemon.vmm.quarantined_codes()


class TestVmmConfigTier:
    """``tier`` takes two values and has one spelling."""

    def test_default_is_jit(self):
        assert VmmConfig().tier == "jit"

    def test_conflicting_alias_rejected(self):
        """The retired ``engine=`` alias is gone in every form."""
        with pytest.raises(TypeError):
            VmmConfig(engine="interp")
        with pytest.raises(TypeError):
            VmmConfig(engine="jit", tier="jit")
        with pytest.raises(TypeError):
            VirtualMachine([], jit=True)

    def test_engine_property_read_only(self):
        """…and so is the read-only ``.engine`` that mirrored ``tier``:
        a config has no such attribute, to read or to set."""
        config = VmmConfig()
        with pytest.raises(AttributeError):
            config.engine
        with pytest.raises(AttributeError):
            config.engine = "interp"

    def test_bad_tier_rejected(self):
        for tier in ("warp", "native"):
            with pytest.raises(ValueError, match="bad tier"):
                VmmConfig(tier=tier)
            with pytest.raises(ValueError, match="bad tier"):
                VirtualMachine([], tier=tier)

    def test_vmm_tiers_attribution(self):
        daemon = make_daemon(FrrDaemon, VmmConfig(tier="jit"))
        daemon.attach_manifest(
            manifest_for("selective", "u64 f(u64 a) { return 0; }", helpers=())
        )
        entry = daemon.vmm.tiers()["selective"]
        assert entry["tier"] == "jit"
        assert entry["compiled"]["shape"] == "structured"
        assert entry["compiled"]["structured_blocks"] >= 1
        assert entry["compiled"]["tail_blocks"] == 0
        assert entry["compiled"]["dispatch_only_blocks"] == 0
        assert entry["compiled"]["declined"] is None
