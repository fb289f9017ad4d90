"""Fig. 4: relative performance impact of extension vs native code.

Reproduces the §3.2/§3.4 experiment: for each implementation under
test (xFRRouting → PyFRR, xBIRD → PyBIRD) and each feature (route
reflection over iBGP, origin validation over eBGP), measure the
first-announce-to-last-receive convergence delay with the *native*
feature and with the *extension code* implementing the same feature,
over N interleaved runs, and report the distribution of the relative
impact — the quantity the paper's boxplots show.

Two extension engines are reported by default (see EXPERIMENTS.md for
the claim each carries):

* ``jit``   — genuine eBPF bytecode on the compiled tier; carries the
  Python-substrate interpretation tax;
* ``pyext`` — the same logic as host-speed code through the same VMM
  and glue; models the paper's compiled-eBPF cost ratio.

``interp`` (the reference interpreter) runs through the same cells on
demand; interpreter vs compiled tier is measured in
benchmarks/test_ablation_engines.py.
"""

from __future__ import annotations

import gc
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from ..bgp.roa import Roa, make_roas_for_prefixes
from ..sim.harness import ConvergenceHarness
from ..workload.rib_gen import RibGenerator, RouteSpec, origins_of

__all__ = ["Fig4Result", "run_cell", "run_figure", "render_table", "boxplot_stats"]


class Fig4Result:
    """One figure cell: impact distribution for (impl, feature, engine)."""

    def __init__(
        self,
        implementation: str,
        feature: str,
        engine: str,
        native_seconds: List[float],
        extension_seconds: List[float],
    ):
        self.implementation = implementation
        self.feature = feature
        self.engine = engine
        self.native_seconds = native_seconds
        self.extension_seconds = extension_seconds

    @property
    def impacts_percent(self) -> List[float]:
        """Per-run relative impact against the native median (%)."""
        base = statistics.median(self.native_seconds)
        return [(value - base) / base * 100.0 for value in self.extension_seconds]

    def stats(self) -> Dict[str, float]:
        return boxplot_stats(self.impacts_percent)


def boxplot_stats(values: Sequence[float]) -> Dict[str, float]:
    """The five numbers a boxplot shows."""
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "p25": _percentile(ordered, 0.25),
        "median": _percentile(ordered, 0.5),
        "p75": _percentile(ordered, 0.75),
        "max": ordered[-1],
    }


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


def run_cell(
    implementation: str,
    feature: str,
    routes: List[RouteSpec],
    roas: Optional[List[Roa]],
    runs: int = 15,
    engine: str = "jit",
    warmup: int = 1,
) -> Fig4Result:
    """Run one figure cell: ``runs`` interleaved native/extension pairs.

    Interleaving (native, extension, native, extension…) spreads any
    machine drift across both arms, like the paper's repeated runs.
    """
    native_times: List[float] = []
    extension_times: List[float] = []
    gc_was_enabled = gc.isenabled()
    try:
        for iteration in range(warmup + runs):
            for mode, bucket in (("native", native_times), ("extension", extension_times)):
                harness = ConvergenceHarness(
                    implementation, feature, mode, routes, roas, engine=engine
                )
                gc.collect()
                gc.disable()
                try:
                    elapsed = harness.run()
                finally:
                    if gc_was_enabled:
                        gc.enable()
                if iteration >= warmup:
                    bucket.append(elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return Fig4Result(implementation, feature, engine, native_times, extension_times)


def run_figure(
    n_routes: int = 5000,
    runs: int = 15,
    seed: int = 20200604,
    engines: Sequence[str] = ("jit", "pyext"),
    implementations: Sequence[str] = ("frr", "bird"),
    features: Sequence[str] = ("route_reflection", "origin_validation"),
) -> List[Fig4Result]:
    """Run the whole figure; returns one result per cell."""
    generator = RibGenerator(n_routes=n_routes, seed=seed)
    routes = generator.generate()
    roas = make_roas_for_prefixes(origins_of(routes), valid_fraction=0.75, seed=seed)
    results = []
    for engine in engines:
        for implementation in implementations:
            for feature in features:
                results.append(
                    run_cell(implementation, feature, routes, roas, runs, engine)
                )
    return results


def render_table(results: Sequence[Fig4Result], n_routes: int, runs: int) -> str:
    """The figure as text, one row per boxplot."""
    lines = [
        f"Fig. 4 — Relative performance impact of extension bytecode vs "
        f"native code ({n_routes} routes, {runs} runs)",
        "",
        f"{'impl':6s} {'feature':18s} {'engine':6s} "
        f"{'native-med':>11s} {'ext-med':>11s} "
        f"{'impact med':>10s} {'p25':>7s} {'p75':>7s} {'min':>7s} {'max':>7s}",
    ]
    for result in results:
        stats = result.stats()
        native_median = statistics.median(result.native_seconds)
        ext_median = statistics.median(result.extension_seconds)
        lines.append(
            f"{result.implementation:6s} {result.feature:18s} {result.engine:6s} "
            f"{native_median * 1000:9.1f}ms {ext_median * 1000:9.1f}ms "
            f"{stats['median']:+9.1f}% {stats['p25']:+6.1f}% {stats['p75']:+6.1f}% "
            f"{stats['min']:+6.1f}% {stats['max']:+6.1f}%"
        )
    return "\n".join(lines)
