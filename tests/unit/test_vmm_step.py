"""The VMM's one run path: every chain shape, watched by everything.

One step closure runs every extension code (``core/vmm.py``); what
watches a run is composed in when the point is bound.  So each chain
shape below must produce the same results, counters, context fields,
trace events and provenance ops whatever is watching — and exactly the
ones in ``EXPECTED``, which were captured from the general chain loop of
the last tree that had one (commit 8a7467e, fast closures off).  The
``quarantine_cycle`` row differs from that capture in one respect: there
the breaker only existed with telemetry on; here it works without.  The
``host_native``, ``host_native_raises`` and ``quarantine_cycle`` codes
are bytecode, so their results and fault messages are not the captured
Python callables'; the two ``host_native`` shapes reach host code
through a helper's glue, which answers or raises.
"""

import pytest

from repro.bgp import Prefix
from repro.core import (
    ExecutionContext,
    InsertionPoint,
    VirtualMachineManager,
    VmmConfig,
    XbgpProgram,
)
from repro.telemetry import Profiler, ProvenanceTracker, QuarantinePolicy

from test_hotpath import _bytecode as bytecode, _make_host

POINT = InsertionPoint.BGP_INBOUND_FILTER
PREFIX = Prefix.parse("203.0.113.0/24")
DEFAULT = 77


def flaky(failures):
    """A bytecode that faults on its first ``failures`` runs, then
    returns 9: its run counter lives in the program's shared memory."""
    source = f"""
    u64 f(u64 a) {{
        u64 runs = ctx_shmget(1);
        if (runs == 0) {{ runs = ctx_shmnew(1, 8); }}
        *(u64 *)(runs) = *(u64 *)(runs) + 1;
        if (*(u64 *)(runs) <= {failures}) {{ return *(u64 *)(16); }}
        return 9;
    }}
    """
    return bytecode("flaky", source, ("ctx_shmget", "ctx_shmnew"))


#: shape -> (VmmConfig keywords, codes, number of runs)
SHAPES = {
    "bytecode": ({}, lambda: [bytecode("x", "u64 f(u64 a) { return 5; }")], 2),
    # the host answers: a helper's glue reads the context (prefix length)
    "host_native": (
        {},
        lambda: [
            bytecode(
                "x",
                "u64 f(u64 a) { u64 pfx = get_arg(ARG_PREFIX); return *(u8 *)(pfx + 4); }",
                ("get_arg",),
            )
        ],
        2,
    ),
    "next_then_return": (
        {},
        lambda: [
            bytecode("first", "u64 f(u64 a) { next(); return 1; }", ("next",), seq=0),
            bytecode("second", "u64 f(u64 a) { return 2; }", (), seq=1),
        ],
        2,
    ),
    "all_delegate": (
        {},
        lambda: [bytecode("x", "u64 f(u64 a) { next(); return 1; }", ("next",))],
        2,
    ),
    "sandbox_fault": (
        {},
        lambda: [bytecode("x", "u64 f(u64 a) { return *(u64 *)(16); }")],
        2,
    ),
    "budget": (
        {"step_budget": 200},
        lambda: [bytecode("x", "u64 f(u64 a) { u64 i = 0; while (1) { i += 1; } return i; }")],
        1,
    ),
    # the host raises: a helper's glue fails the run (no such map)
    "host_native_raises": (
        {},
        lambda: [bytecode("x", "u64 f(u64 a) { return map_lookup(9, 1); }", ("map_lookup",))],
        2,
    ),
    "quarantine_cycle": (
        {
            "quarantine": QuarantinePolicy(
                error_threshold=2, probation_after=2, probation_successes=2
            )
        },
        lambda: [flaky(2)],
        7,
    ),
}

FLAKY_FAULT = "flaky: read of 8 bytes at 0x10 outside sandbox"

WATCHERS = ("nothing", "telemetry", "telemetry+provenance", "telemetry+profiler")

EXPECTED = {
    "bytecode": {
        "results": [5, 5],
        "stats": {"x": {"executions": 2, "routes": 2, "errors": 0, "fallbacks": 0}},
        "points": {"bgp_inbound_filter": {"executions": 2, "errors": 0, "fallbacks": 0}},
        "errors": [(None, None), (None, None)],
        "trace": [("enter", None), ("exit", "return")] * 2,
        "provenance": [("extension", "return")] * 2,
    },
    "host_native": {
        "results": [24, 24],
        "stats": {"x": {"executions": 2, "routes": 2, "errors": 0, "fallbacks": 0}},
        "points": {"bgp_inbound_filter": {"executions": 2, "errors": 0, "fallbacks": 0}},
        "errors": [(None, None), (None, None)],
        "trace": [("enter", None), ("exit", "return")] * 2,
        "provenance": [("extension", "return")] * 2,
    },
    "next_then_return": {
        "results": [2, 2],
        "stats": {
            "first": {"executions": 2, "routes": 2, "errors": 0, "fallbacks": 0},
            "second": {"executions": 2, "routes": 2, "errors": 0, "fallbacks": 0},
        },
        "points": {"bgp_inbound_filter": {"executions": 4, "errors": 0, "fallbacks": 0}},
        "errors": [(None, None), (None, None)],
        "trace": [
            ("enter", None), ("next", None), ("exit", "next"),
            ("enter", None), ("exit", "return"),
        ] * 2,
        "provenance": [("extension", "next"), ("extension", "return")] * 2,
    },
    "all_delegate": {
        "results": [DEFAULT, DEFAULT],
        "stats": {"x": {"executions": 2, "routes": 2, "errors": 0, "fallbacks": 0}},
        "points": {"bgp_inbound_filter": {"executions": 2, "errors": 0, "fallbacks": 0}},
        "errors": [(None, None), (None, None)],
        "trace": [
            ("enter", None), ("next", None), ("exit", "next"), ("default", None),
        ] * 2,
        "provenance": [("extension", "next"), ("native", None)] * 2,
    },
    "sandbox_fault": {
        "results": [DEFAULT, DEFAULT],
        "stats": {"x": {"executions": 2, "routes": 2, "errors": 2, "fallbacks": 2}},
        "points": {"bgp_inbound_filter": {"executions": 2, "errors": 2, "fallbacks": 2}},
        "errors": [
            ("x: read of 8 bytes at 0x10 outside sandbox", "x"),
            ("x: read of 8 bytes at 0x10 outside sandbox", "x"),
        ],
        "trace": [("enter", None), ("exit", "error"), ("fallback", None)] * 2,
        "provenance": [("extension", "error"), ("fallback", None)] * 2,
    },
    "budget": {
        "results": [DEFAULT],
        "stats": {"x": {"executions": 1, "routes": 1, "errors": 1, "fallbacks": 1}},
        "points": {"bgp_inbound_filter": {"executions": 1, "errors": 1, "fallbacks": 1}},
        "errors": [("budget", "x")],
        "trace": [("enter", None), ("exit", "error"), ("fallback", None)],
        "provenance": [("extension", "error"), ("fallback", None)],
    },
    "host_native_raises": {
        "results": [DEFAULT, DEFAULT],
        "stats": {"x": {"executions": 2, "routes": 2, "errors": 2, "fallbacks": 2}},
        "points": {"bgp_inbound_filter": {"executions": 2, "errors": 2, "fallbacks": 2}},
        "errors": [("x: no map 9", "x"), ("x: no map 9", "x")],
        "trace": [("enter", None), ("exit", "error"), ("fallback", None)] * 2,
        "provenance": [("extension", "error"), ("fallback", None)] * 2,
    },
    # two faults open the breaker; one skip; the second would-be skip
    # starts probation and runs; two clean trial runs re-arm it.
    "quarantine_cycle": {
        "results": [DEFAULT, DEFAULT, DEFAULT, 9, 9, 9, 9],
        "stats": {"flaky": {"executions": 6, "routes": 6, "errors": 2, "fallbacks": 2}},
        "points": {"bgp_inbound_filter": {"executions": 6, "errors": 2, "fallbacks": 2}},
        "errors": [(FLAKY_FAULT, "flaky")] * 2 + [(None, None)] * 5,
        "trace": [
            ("enter", None), ("exit", "error"), ("fallback", None),
            ("enter", None), ("quarantine", "open"), ("exit", "error"), ("fallback", None),
            ("skip", None), ("default", None),
            ("quarantine", "half_open"), ("enter", None), ("exit", "return"),
            ("enter", None), ("quarantine", "closed"), ("exit", "return"),
            ("enter", None), ("exit", "return"),
            ("enter", None), ("exit", "return"),
        ],
        "provenance": [
            ("extension", "error"), ("fallback", None),
            ("extension", "error"), ("fallback", None),
            ("skip", None), ("native", None),
            ("extension", "return"), ("extension", "return"),
            ("extension", "return"), ("extension", "return"),
        ],
    },
}


def observe(shape, watching):
    """Run ``shape`` with ``watching`` on; return everything observable."""
    config, codes, runs = SHAPES[shape]
    host = _make_host()
    vmm = VirtualMachineManager(
        host, VmmConfig(telemetry=watching != "nothing", **config)
    )
    vmm.attach_program(XbgpProgram("p", codes()))
    tracker = profiler = None
    if "provenance" in watching:
        tracker = host.provenance = ProvenanceTracker("1.1.1.1", "null")
        vmm.rebind_all()
    if "profiler" in watching:
        profiler = Profiler()
        vmm.enable_profiling(profiler)
    seen = {"results": [], "errors": []}
    run_point = vmm.runner(POINT)
    for index in range(runs):
        ctx = ExecutionContext(POINT, prefix=PREFIX)
        # both doors into the one path
        run = vmm.run if index % 2 else run_point
        seen["results"].append(run(ctx, lambda: DEFAULT))
        error = ctx.error
        if error is not None and "budget" in error:
            error = "budget"  # the faulting pc differs per tier, by design
        seen["errors"].append((error, ctx.faulted_extension))
    seen["stats"] = vmm.stats()
    seen["points"] = vmm.point_stats()
    seen["fallbacks"] = vmm.fallbacks
    if vmm.telemetry is not None:
        seen["trace"] = [
            (event["kind"], event.get("outcome", event.get("to_state")))
            for event in vmm.telemetry.trace.events()
        ]
        seen["executions_metric"] = sum(
            series["value"]
            for series in vmm.telemetry.registry.to_json()[
                "xbgp_extension_executions"
            ]["series"]
        )
    if tracker is not None:
        seen["provenance"] = [
            (event["op"], event.get("outcome"))
            for story in tracker.stories(PREFIX)
            for event in story["events"]
        ]
    if profiler is not None:
        seen["profiled_runs"] = sum(p.runs for p in profiler.profiles())
    return seen


@pytest.mark.parametrize("watching", WATCHERS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_chain_shape_whatever_is_watching(shape, watching):
    expected = EXPECTED[shape]
    seen = observe(shape, watching)
    for key in ("results", "stats", "points", "errors"):
        assert seen[key] == expected[key], key
    assert seen["fallbacks"] == sum(row["fallbacks"] for row in expected["stats"].values())
    executions = sum(row["executions"] for row in expected["stats"].values())
    if watching == "nothing":
        assert "trace" not in seen
    else:
        assert seen["trace"] == expected["trace"]
        assert seen["executions_metric"] == executions
    if "provenance" in watching:
        assert seen["provenance"] == expected["provenance"]
    if "profiler" in watching:
        assert seen["profiled_runs"] == executions


def test_a_bug_on_the_bytecode_path_is_not_absorbed():
    """Only sandbox faults fall back; anything else a bytecode run
    raises is a bug in this repo and must surface."""
    vmm = VirtualMachineManager(_make_host(), VmmConfig(telemetry=False))
    vmm.attach_program(XbgpProgram("p", [bytecode("x", "u64 f(u64 a) { return 5; }")]))
    item = vmm._chains[POINT][0]

    def broken(*args):
        raise ZeroDivisionError("bug")

    item.vm.memory.reset_heap = broken
    vmm.rebind_all()
    with pytest.raises(ZeroDivisionError):
        vmm.run(ExecutionContext(POINT), lambda: DEFAULT)
