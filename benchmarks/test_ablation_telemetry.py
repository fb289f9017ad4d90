"""Ablation — the cost of observability.

``VmmConfig(telemetry=False)`` runs the seed's uninstrumented VMM hot
path; ``telemetry=True`` (the default) adds per-run counters, the
latency histogram, trace events and the quarantine consult.  This
benchmark quantifies that overhead on a full convergence run so the
number documented in EXPERIMENTS.md stays honest: metric handles are
bound at attach time, so the instrumented path should stay within a
small constant factor of the plain one.
"""

import statistics
import timeit

import pytest

from repro.sim.harness import ConvergenceHarness
from repro.workload import RibGenerator

ROUTES = 400
SEED = 20200604


def make_run(telemetry, provenance=False, profiling=False, timeseries_every=0):
    routes = RibGenerator(n_routes=ROUTES, seed=SEED).generate()

    def run():
        harness = ConvergenceHarness(
            "frr",
            "route_reflection",
            "extension",
            routes,
            engine="jit",
            telemetry=telemetry,
            provenance=provenance,
            profiling=profiling,
            timeseries_every=timeseries_every,
        )
        return harness.run()

    return run


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "traced"])
def test_convergence_cost(benchmark, telemetry):
    run = make_run(telemetry)
    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)


def test_telemetry_overhead_is_bounded(benchmark):
    """Instrumented vs uninstrumented, interleaved to cancel drift."""
    plain = make_run(False)
    traced = make_run(True)
    plain_times, traced_times = [], []
    plain()
    traced()  # warm both arms (JIT translation, allocator)
    for _ in range(5):
        plain_times.append(min(timeit.repeat(plain, number=1, repeat=2)))
        traced_times.append(min(timeit.repeat(traced, number=1, repeat=2)))
    benchmark.pedantic(traced, rounds=3, iterations=1, warmup_rounds=1)
    plain_time = statistics.median(plain_times)
    traced_time = statistics.median(traced_times)
    overhead = traced_time / plain_time - 1.0
    print(
        f"\ntelemetry overhead: {overhead * 100:+.1f}% "
        f"(plain {plain_time * 1000:.1f} ms, traced {traced_time * 1000:.1f} ms, "
        f"{ROUTES} routes)"
    )
    # Generous bound: the documented figure is ~10-20%; anything past
    # 50% means the hot path regressed (e.g. registry lookups per run).
    assert overhead < 0.50


@pytest.mark.parametrize(
    "arm", ["telemetry-only", "provenance"], ids=["telemetry", "provenance"]
)
def test_provenance_arm_cost(benchmark, arm):
    run = make_run(True, provenance=(arm == "provenance"))
    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)


def test_provenance_off_is_never_mentioning_it(benchmark):
    """The flag itself must be free: a provenance-off harness binds the
    same steps, and counts the same runs, as one never told about it."""
    routes = RibGenerator(n_routes=50, seed=SEED).generate()
    harness = ConvergenceHarness(
        "frr", "route_reflection", "extension", routes, provenance=False
    )
    unaware = ConvergenceHarness("frr", "route_reflection", "extension", routes)
    assert harness.dut.provenance is None and harness.dut.host.provenance is None
    benchmark.pedantic(harness.run, rounds=1, iterations=1)
    unaware.run()
    assert harness.dut.vmm.stats() == unaware.dut.vmm.stats()


def test_provenance_overhead_measured(benchmark):
    """Provenance-on vs telemetry-only, interleaved to cancel drift.

    Provenance records every API call, extension outcome, decision
    elimination, RIB change and export per route, so its overhead is
    expectedly much larger than bare telemetry's.  The printed figure feeds EXPERIMENTS.md; the
    bound only guards against pathological regressions (e.g. stories
    growing unbounded).
    """
    baseline = make_run(True, provenance=False)
    traced = make_run(True, provenance=True)
    baseline_times, traced_times = [], []
    baseline()
    traced()  # warm both arms (JIT translation, allocator)
    for _ in range(5):
        baseline_times.append(min(timeit.repeat(baseline, number=1, repeat=2)))
        traced_times.append(min(timeit.repeat(traced, number=1, repeat=2)))
    benchmark.pedantic(traced, rounds=3, iterations=1, warmup_rounds=1)
    baseline_time = statistics.median(baseline_times)
    traced_time = statistics.median(traced_times)
    overhead = traced_time / baseline_time - 1.0
    print(
        f"\nprovenance overhead: {overhead * 100:+.1f}% "
        f"(telemetry-only {baseline_time * 1000:.1f} ms, "
        f"provenance {traced_time * 1000:.1f} ms, {ROUTES} routes)"
    )
    assert overhead < 4.0


@pytest.mark.parametrize(
    "arm", ["telemetry-only", "profiling"], ids=["telemetry", "profiling"]
)
def test_profiling_arm_cost(benchmark, arm):
    run = make_run(True, profiling=(arm == "profiling"))
    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)


def test_profiling_off_is_never_mentioning_it(benchmark):
    """Like provenance, the profiling flag itself must be free: a
    profiling-off harness leaves every VM on its unprofiled path and
    counts the same runs as one never told about it."""
    routes = RibGenerator(n_routes=50, seed=SEED).generate()
    harness = ConvergenceHarness(
        "frr", "route_reflection", "extension", routes, profiling=False
    )
    unaware = ConvergenceHarness("frr", "route_reflection", "extension", routes)
    assert harness.dut.profiler is None and harness.dut.vmm.profiler is None
    assert all(
        item.profile is None and item.vm.profile is None
        for chain in harness.dut.vmm._chains.values()
        for item in chain
    )
    benchmark.pedantic(harness.run, rounds=1, iterations=1)
    unaware.run()
    assert harness.dut.vmm.stats() == unaware.dut.vmm.stats()


def test_profiling_overhead_measured(benchmark):
    """Profiling-on vs telemetry-only, interleaved to cancel drift.

    Profiling times every phase, attributes wall clock to helpers,
    and counts every executed PC (interp) or block (JIT) — so like
    provenance it is expected to cost real multiples of bare telemetry.  The printed figure feeds
    EXPERIMENTS.md; the bound only guards pathological regressions.
    """
    baseline = make_run(True, profiling=False)
    traced = make_run(True, profiling=True)
    baseline_times, traced_times = [], []
    baseline()
    traced()  # warm both arms (JIT translation, allocator)
    for _ in range(5):
        baseline_times.append(min(timeit.repeat(baseline, number=1, repeat=2)))
        traced_times.append(min(timeit.repeat(traced, number=1, repeat=2)))
    benchmark.pedantic(traced, rounds=3, iterations=1, warmup_rounds=1)
    baseline_time = statistics.median(baseline_times)
    traced_time = statistics.median(traced_times)
    overhead = traced_time / baseline_time - 1.0
    print(
        f"\nprofiling overhead: {overhead * 100:+.1f}% "
        f"(telemetry-only {baseline_time * 1000:.1f} ms, "
        f"profiling {traced_time * 1000:.1f} ms, {ROUTES} routes)"
    )
    assert overhead < 6.0


@pytest.mark.parametrize(
    "arm", ["telemetry-only", "sampled"], ids=["telemetry", "sampled"]
)
def test_timeseries_sampler_arm_cost(benchmark, arm):
    run = make_run(True, timeseries_every=(25 if arm == "sampled" else 0))
    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)


def test_timeseries_sampler_overhead_measured(benchmark):
    """Time-series sampling on vs telemetry-only, interleaved.

    Every 25 routes the sampler snapshots the whole registry into the
    bounded ring (16 samples across the 400-route run) — a full
    ``snapshot_registry`` walk each time, but off the per-route hot
    path.  The printed figure feeds the EXPERIMENTS.md ablation row;
    off (``timeseries_every=0``, the default) takes one integer
    comparison per run and allocates nothing.
    """
    baseline = make_run(True, timeseries_every=0)
    sampled = make_run(True, timeseries_every=25)
    baseline_times, sampled_times = [], []
    baseline()
    sampled()  # warm both arms (JIT translation, allocator)
    for _ in range(5):
        baseline_times.append(min(timeit.repeat(baseline, number=1, repeat=2)))
        sampled_times.append(min(timeit.repeat(sampled, number=1, repeat=2)))
    benchmark.pedantic(sampled, rounds=3, iterations=1, warmup_rounds=1)
    baseline_time = statistics.median(baseline_times)
    sampled_time = statistics.median(sampled_times)
    overhead = sampled_time / baseline_time - 1.0
    print(
        f"\ntimeseries sampler overhead: {overhead * 100:+.1f}% "
        f"(telemetry-only {baseline_time * 1000:.1f} ms, "
        f"sampled {sampled_time * 1000:.1f} ms, "
        f"{ROUTES} routes, every 25)"
    )
    # Sampling is registry-walk work every N routes, not per-route
    # work: anything past 50% means the sampler leaked onto the hot
    # path (e.g. snapshotting per update).
    assert overhead < 0.50


def test_record_route_reflection_scenario(benchmark, bench_recorder):
    """The continuous-tracking record for the ablation's headline
    scenario.  With ``--bench-record`` this writes
    ``BENCH_route-reflection-frr-jit.json``; without, it is just one
    more measured convergence run."""
    routes = RibGenerator(n_routes=ROUTES, seed=SEED).generate()

    def run():
        harness = ConvergenceHarness(
            "frr", "route_reflection", "extension", routes, engine="jit"
        )
        harness.run()
        return harness

    warm = run()  # warm (JIT translation, allocator)
    wall, harness = [], warm
    for _ in range(5):
        harness = ConvergenceHarness(
            "frr", "route_reflection", "extension", routes, engine="jit"
        )
        wall.append(harness.run())
    benchmark.pedantic(lambda: run() and None, rounds=1, iterations=1)
    snapshot = harness.telemetry_snapshot()
    series = snapshot["metrics"].get("xbgp_extension_instructions", {}).get("series", [])
    instructions = sum(int(s["value"]) for s in series)
    path = bench_recorder.record(
        "route-reflection-frr-jit",
        wall,
        ROUTES,
        instructions=instructions,
        extra={"implementation": "frr", "engine": "jit", "seed": SEED},
    )
    if path is not None:
        print(f"\nwrote {path}")
