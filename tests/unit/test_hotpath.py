"""Hot-path tests.

JIT/interpreter count parity on every run outcome, single-code points
behaving like any other chain (the VMM has one run path; every chain
shape × every watcher is in test_vmm_step.py), detach clearing
quarantine state, and the marshalling caches staying coherent under
mutation.
"""

import struct

import pytest

from repro.bgp.peer import Neighbor
from repro.core import (
    HELPER_IDS,
    ExecutionContext,
    InsertionPoint,
    VirtualMachineManager,
    VmmConfig,
    XbgpProgram,
)
from repro.core.abi import pack_peer_info
from repro.core.extension import ExtensionCode
from repro.ebpf.assembler import assemble
from repro.ebpf.helpers import TERMINATED, HelperError, HelperTable
from repro.ebpf.vm import VirtualMachine
from repro.telemetry import QuarantinePolicy


# -- engine count parity ------------------------------------------------


def run_both(program, helpers=None):
    """Run under both engines; assert identical outcome and counters."""
    observed = []
    for tier in ("interp", "jit"):
        vm = VirtualMachine(program, helpers, tier=tier)
        try:
            outcome = ("return", vm.run())
        except Exception as exc:  # noqa: BLE001 - outcome compared below
            outcome = ("raise", type(exc).__name__)
        observed.append((outcome, vm.steps_executed, vm.helper_calls))
    assert observed[0] == observed[1], f"engines disagree: {observed}"
    return observed[0]


class TestEngineCountParity:
    def test_returning_run_counts_lddw_as_one_step(self):
        outcome, steps, helper_calls = run_both(
            assemble("lddw r0, 0x1122334455667788\nexit")
        )
        assert outcome == ("return", 0x1122334455667788)
        assert steps == 2  # lddw is one instruction, like the interpreter
        assert helper_calls == 0

    def test_returning_run_with_branches_and_stores(self):
        source = (
            "mov r1, 5\n"
            "stxdw [r10-8], r1\n"
            "ldxdw r0, [r10-8]\n"
            "jeq r0, 5, done\n"
            "mov r0, 0\n"
            "done:\n"
            "exit"
        )
        outcome, steps, helper_calls = run_both(assemble(source))
        assert outcome == ("return", 5)
        assert steps == 5 and helper_calls == 0

    def test_delegating_run_counts_up_to_the_next_call(self):
        """A helper that leaves the run by raising (no sandbox fault):
        the call itself is counted, nothing after it."""

        class Delegate(Exception):
            pass

        helpers = HelperTable()

        def helper_next(vm, *args):
            raise Delegate()

        helpers.register(1, "next", helper_next)
        program = assemble(
            "mov r1, 1\nmov r2, 2\ncall next\nexit", helpers.name_to_id()
        )
        outcome, steps, helper_calls = run_both(program, helpers)
        assert outcome == ("raise", "Delegate")
        assert steps == 3  # two movs plus the call itself
        assert helper_calls == 1

    def test_terminal_helper_ends_the_run_at_its_call(self):
        calls = []
        helpers = HelperTable()
        helpers.register(1, "stop", lambda vm, r1, *args: calls.append(r1) or 0, terminal=True)
        program = assemble(
            "mov r1, 1\nmov r2, 2\ncall stop\nmov r0, 7\nexit", helpers.name_to_id()
        )
        outcome, steps, helper_calls = run_both(program, helpers)
        assert outcome == ("return", TERMINATED)
        assert steps == 3  # two movs plus the call; nothing after it
        assert helper_calls == 1
        assert calls == [1, 1]  # called once per engine

    def test_faulting_run_counts_the_faulting_load(self):
        # lddw + a dereference outside every region: the faulting
        # instruction itself is charged, exactly as the interpreter does.
        program = assemble("lddw r1, 0x10\nldxdw r0, [r1]\nexit")
        outcome, steps, helper_calls = run_both(program)
        assert outcome == ("raise", "SandboxViolation")
        assert steps == 2 and helper_calls == 0

    def test_faulting_helper_counts_the_call(self):
        helpers = HelperTable()

        def boom(vm, *args):
            raise HelperError("boom")

        helpers.register(1, "boom", boom)
        program = assemble("mov r1, 9\ncall boom\nexit", helpers.name_to_id())
        outcome, steps, helper_calls = run_both(program, helpers)
        assert outcome == ("raise", "HelperError")
        assert steps == 2 and helper_calls == 1

    def test_counters_reset_between_runs_under_both_engines(self):
        for tier in ("interp", "jit"):
            vm = VirtualMachine(assemble("mov r0, 1\nexit"), tier=tier)
            vm.run()
            first = vm.steps_executed
            vm.run()
            assert vm.steps_executed == first == 2


# -- single-code points -------------------------------------------------


class _Host:
    """Minimal host for VMM-level tests."""

    name = "test"

    def __init__(self):
        self.logged = []

    def log(self, message):
        self.logged.append(message)

    def __getattr__(self, name):  # abstract members unused in these tests
        raise AttributeError(name)


def _make_host():
    from repro.core.host_interface import HostImplementation

    class NullHost(HostImplementation):
        name = "null"

        def __init__(self):
            self.logged = []

        def get_attr(self, ctx, code):
            return None

        def set_attr(self, ctx, code, flags, value):
            return False

        def add_attr(self, ctx, code, flags, value):
            return False

        def remove_attr(self, ctx, code):
            return False

        def get_nexthop(self, ctx):
            return 0, 0, False

        def get_xtra(self, ctx, key):
            return None

        def rib_announce(self, ctx, prefix, next_hop):
            return True

        def log(self, message):
            self.logged.append(message)

    return NullHost()


def _bytecode(name, source, helpers=(), point=InsertionPoint.BGP_INBOUND_FILTER, seq=0):
    from repro.core.abi import PLUGIN_CONSTANTS
    from repro.xc import compile_source

    instructions = compile_source(source, HELPER_IDS, PLUGIN_CONSTANTS)
    return ExtensionCode(name, instructions, list(helpers), point, seq=seq, layout_hint=True)


def _exercise(vmm):
    """Run a representative mix through one point; return observables."""
    point = InsertionPoint.BGP_INBOUND_FILTER
    results = []
    for _ in range(3):
        ctx = ExecutionContext(point)
        results.append(vmm.run(ctx, lambda: 77))
    observables = {
        "results": results,
        "stats": vmm.stats(),
        "fallbacks": vmm.fallbacks,
        "points": vmm.point_stats(),
    }
    if vmm.telemetry is not None:
        observables["trace"] = [
            {k: v for k, v in event.items() if k not in ("seq", "ts")}
            for event in vmm.telemetry.trace.events()
        ]
        observables["metrics"] = vmm.telemetry.registry.to_json()
    return observables


class TestFastPath:
    """Single-code points: rebinding on attach/detach, the breaker."""

    @pytest.mark.parametrize("telemetry", [True, False])
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("u64 f(u64 a) { return 5; }", 5),
            ("u64 f(u64 a) { next(); return 5; }", 77),
            ("u64 f(u64 a) { return *(u64 *)(16); }", 77),  # faults
        ],
    )
    def test_fast_path_matches_general_loop(self, telemetry, source, expected):
        """A single-code point, event for event and series for series,
        is what the general chain loop of commit 8a7467e recorded."""
        vmm = VirtualMachineManager(_make_host(), VmmConfig(telemetry=telemetry))
        helpers = ("next",) if "next" in source else ()
        vmm.attach_program(XbgpProgram("p", [_bytecode("x", source, helpers)]))
        observed = _exercise(vmm)
        faults = 3 if "*(u64 *)" in source else 0
        assert observed["results"] == [expected] * 3
        assert observed["stats"] == {
            "x": {"executions": 3, "routes": 3, "errors": faults, "fallbacks": faults}
        }
        assert observed["fallbacks"] == faults
        assert observed["points"] == {
            "bgp_inbound_filter": {"executions": 3, "errors": faults, "fallbacks": faults}
        }
        if not telemetry:
            return
        where = {"point": "bgp_inbound_filter", "extension": "x"}
        fault = "read of 8 bytes at 0x10 outside sandbox"
        one_run = {
            5: [
                {"kind": "enter", **where},
                {"kind": "exit", **where, "outcome": "return", "verdict": 5},
            ],
            77: [
                {"kind": "enter", **where},
                {"kind": "next", **where},
                {"kind": "exit", **where, "outcome": "next"},
                {"kind": "default", "point": "bgp_inbound_filter"},
            ],
        }[expected]
        if faults:
            one_run = [
                {"kind": "enter", **where},
                {"kind": "exit", **where, "outcome": "error", "error": fault},
                {"kind": "fallback", **where, "error": f"x: {fault}"},
            ]
        assert observed["trace"] == one_run * 3
        values = {
            name: [row["value"] for row in family["series"]]
            for name, family in observed["metrics"].items()
            if name != "xbgp_extension_run_seconds"
        }
        nexts = 3 if helpers else 0
        wanted = {
            "xbgp_extension_executions": [3],
            "xbgp_extension_routes": [3],
            "xbgp_extension_errors": [faults],
            "xbgp_extension_fallbacks": [faults],
            "xbgp_extension_next": [nexts],
            "xbgp_extension_helper_calls": [nexts],
            # Counts of compiler output, three runs each: spill the
            # argument, then `call next` (2), `mov r0, 5; exit` (3) or
            # `mov r1, 16; ldxdw r1, [r1+0]`, which faults (3).
            "xbgp_extension_instructions": [6 if helpers else 9],
        }
        if faults:
            wanted["xbgp_vmm_fallbacks"] = [3]
        assert values == wanted
        assert observed["metrics"]["xbgp_extension_run_seconds"]["series"][0]["count"] == 3

    def test_multi_code_chain_bypasses_fast_path(self):
        vmm = VirtualMachineManager(_make_host(), VmmConfig())
        first = _bytecode("first", "u64 f(u64 a) { next(); return 1; }", ("next",), seq=0)
        second = _bytecode("second", "u64 f(u64 a) { return 2; }", (), seq=1)
        vmm.attach_program(XbgpProgram("p", [first, second]))
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 2

    def test_fast_path_rebinds_when_chain_shrinks_to_one(self):
        point = InsertionPoint.BGP_INBOUND_FILTER
        vmm = VirtualMachineManager(_make_host(), VmmConfig())
        solo = _bytecode("solo", "u64 f(u64 a) { next(); return 4; }", ("next",))
        other = _bytecode("other", "u64 f(u64 a) { return 9; }", (), seq=1)
        vmm.attach_program(XbgpProgram("p1", [solo]))
        before = vmm.runner(point)
        vmm.attach_program(XbgpProgram("p2", [other]))
        assert vmm.runner(point) is not before  # bound again on attach
        assert vmm.run(ExecutionContext(point), lambda: 77) == 9
        vmm.detach_program("p2")
        assert vmm.run(ExecutionContext(point), lambda: 77) == 77
        assert vmm.stats() == {"solo": {"executions": 2, "routes": 2, "errors": 0, "fallbacks": 0}}
        vmm.detach_program("p1")
        assert vmm.run(ExecutionContext(point), lambda: 77) == 77
        assert vmm.stats() == {} and not vmm.active(point)

    def test_fast_path_honours_quarantine(self):
        """The breaker opens and skips on a single-code point."""
        vmm = VirtualMachineManager(
            _make_host(),
            VmmConfig(quarantine=QuarantinePolicy(error_threshold=2)),
        )
        crasher = _bytecode("crasher", "u64 f(u64 a) { return *(u64 *)(16); }", ())
        vmm.attach_program(XbgpProgram("p", [crasher]))
        point = InsertionPoint.BGP_INBOUND_FILTER
        for _ in range(4):
            ctx = ExecutionContext(point)
            assert vmm.run(ctx, lambda: 77) == 77
        assert vmm.quarantined_codes() == ["crasher"]
        # Once open, runs are skipped (executions stop growing).
        assert vmm.stats()["crasher"]["executions"] == 2
        assert vmm.telemetry.trace.last("skip")["reason"] == "quarantined"

    def test_active_reports_attachment(self):
        vmm = VirtualMachineManager(_make_host(), VmmConfig())
        assert not vmm.active(InsertionPoint.BGP_INBOUND_FILTER)
        vmm.attach_program(
            XbgpProgram("p", [_bytecode("x", "u64 f(u64 a) { return 0; }", ())])
        )
        assert vmm.active(InsertionPoint.BGP_INBOUND_FILTER)
        assert not vmm.active(InsertionPoint.BGP_ENCODE_MESSAGE)
        vmm.detach_program("p")
        assert not vmm.active(InsertionPoint.BGP_INBOUND_FILTER)


class _ApiRecorder:
    """A provenance tracker that keeps only the API calls it hears."""

    def __init__(self):
        self.api = []

    def record_api(self, ctx, op, **detail):
        self.api.append(op)

    def __getattr__(self, name):  # the VMM's span hooks: ignored
        return lambda *args, **kwargs: None


class TestHelpersBoundAtAttach:
    def test_provenance_toggle_rebinds_the_helpers(self):
        host = _make_host()
        vmm = VirtualMachineManager(host, VmmConfig(telemetry=False))
        code = _bytecode("reader", "u64 f(u64 a) { get_attr(2); return 1; }", ("get_attr",))
        vmm.attach_program(XbgpProgram("p", [code]))
        point = InsertionPoint.BGP_INBOUND_FILTER
        recorder = _ApiRecorder()
        host.provenance = recorder
        vmm.rebind_all()
        assert vmm.run(ExecutionContext(point), lambda: 77) == 1
        assert recorder.api == ["get_attr"]
        host.provenance = None
        vmm.rebind_all()
        assert vmm.run(ExecutionContext(point), lambda: 77) == 1
        assert recorder.api == ["get_attr"]

    def test_map_helpers_read_the_program_state(self):
        vmm = VirtualMachineManager(_make_host(), VmmConfig(telemetry=False))
        code = _bytecode(
            "maps",
            "u64 f(u64 a) { map_update(1, 5, 9); return map_lookup_idx(1, 5, 0) + map_size(1); }",
            ("map_update", "map_lookup_idx", "map_size"),
        )
        program = XbgpProgram("p", [code], map_data={"t": {}})
        vmm.attach_program(program)
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 10

    def test_an_unknown_map_faults_the_run(self):
        vmm = VirtualMachineManager(_make_host(), VmmConfig(telemetry=False))
        code = _bytecode("maps", "u64 f(u64 a) { return map_lookup(7, 5); }", ("map_lookup",))
        vmm.attach_program(XbgpProgram("p", [code]))
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)
        assert vmm.run(ctx, lambda: 77) == 77
        assert ctx.error == "maps: no map 7"


class TestDetachClearsQuarantine:
    def test_reattached_code_starts_with_fresh_breaker(self):
        """Regression: detach used to leave the open breaker behind, so
        a fixed extension re-attached under the same name was skipped
        forever."""
        vmm = VirtualMachineManager(
            _make_host(),
            VmmConfig(quarantine=QuarantinePolicy(error_threshold=1)),
        )
        point = InsertionPoint.BGP_INBOUND_FILTER
        crasher = _bytecode("ext", "u64 f(u64 a) { return *(u64 *)(16); }", ())
        vmm.attach_program(XbgpProgram("p", [crasher]))
        ctx = ExecutionContext(point)
        assert vmm.run(ctx, lambda: 77) == 77  # faults, breaker opens
        assert vmm.quarantined_codes() == ["ext"]

        vmm.detach_program("p")
        assert vmm.quarantined_codes() == []

        fixed = _bytecode("ext", "u64 f(u64 a) { return 5; }", ())
        vmm.attach_program(XbgpProgram("p", [fixed]))
        ctx = ExecutionContext(point)
        assert vmm.run(ctx, lambda: 77) == 5  # runs: fresh closed breaker
        assert vmm.telemetry.health.state_for(point.value, "ext").state == "closed"


# -- marshalling caches -------------------------------------------------


class TestPeerInfoCache:
    def test_pack_peer_info_is_cached_and_invalidated(self):
        neighbor = Neighbor.build("10.0.0.2", 65002, "10.0.0.1", 65001)
        first = pack_peer_info(neighbor)
        assert pack_peer_info(neighbor) is first  # cache hit
        neighbor.rr_client = True  # any field change invalidates
        second = pack_peer_info(neighbor)
        assert second is not first
        assert struct.unpack("<9I", second)[7] == 1

    def test_session_type_change_reflected(self):
        neighbor = Neighbor.build("10.0.0.2", 65002, "10.0.0.1", 65001)
        assert struct.unpack("<9I", pack_peer_info(neighbor))[0] == 2  # eBGP
        neighbor.peer_asn = 65001
        assert struct.unpack("<9I", pack_peer_info(neighbor))[0] == 1  # iBGP


class TestEattrCaches:
    def test_cache_key_memoised_and_invalidated(self):
        from repro.bird.eattrs import EattrList

        eattrs = EattrList()
        eattrs.ea_set(5, 0x40, b"\x00\x00\x00\x64")
        key = eattrs.cache_key()
        assert eattrs.cache_key() is key
        eattrs.ea_set(4, 0x80, b"\x00\x00\x00\x01")
        assert eattrs.cache_key() != key
        copied = eattrs.copy()
        assert copied.cache_key() == eattrs.cache_key()
        copied.ea_unset(4)
        assert copied.cache_key() != eattrs.cache_key()
        assert eattrs.cache_key() == (
            (4, 0x80, b"\x00\x00\x00\x01"),
            (5, 0x40, b"\x00\x00\x00\x64"),
        )
