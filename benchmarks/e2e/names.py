"""The benchmark's contract, read from ``BENCHMARK.json``.

Later issues name their claim by a workload and a metric name, so the
names are the contract, and ``BENCHMARK.json`` at the repo root is the
one place they, their units and their bounds are written.  What that
file's format has no room for lives here: each workload's size, the
sibling pairs, and the workloads a per-layer metric is taken on.  Units
avoid non-ASCII on purpose: ``us`` is microseconds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, NamedTuple, Tuple

__all__ = [
    "DEFAULT_SEED",
    "RUN_SECONDS",
    "SHRINK",
    "WORKLOADS",
    "ROUTES",
    "SIBLING",
    "END_TO_END",
    "SETUP_FLOOR_S",
    "PER_LAYER",
    "EXACT_COUNTS",
    "UNITS",
    "layer_applies",
]

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(_ROOT, "BENCHMARK.json")) as _handle:
    _CONTRACT = json.load(_handle)

DEFAULT_SEED = 20200604

#: Seconds of trials per workload in one run.
RUN_SECONDS = float(_CONTRACT["run_seconds"])

#: The self-tests divide every route count by this through the
#: environment, so that a whole run takes seconds; nothing else sets it,
#: and a run that does prints it in its header and its ``--out`` file.
SHRINK = int(os.environ.get("XBGP_E2E_SHRINK", "1"))

#: Workload names, in the order they run and print.
WORKLOADS: Tuple[str, ...] = tuple(entry["name"] for entry in _CONTRACT["workloads"])

#: Routes (churn, full table: prefixes) the generator makes for each
#: workload.  A fifth of what the issue proposed: a trial then lasts 0.3
#: to 1.2 s on two cores and a ``run_seconds`` run holds 15 to 45 of
#: them; on a shared machine the median of many short trials repeats
#: far better than that of seven long ones.
ROUTES: Dict[str, int] = {
    "rr-ext-frr": 6_000,
    "rr-native-frr": 6_000,
    "ov-ext-bird": 6_000,
    "churn-native-bird": 4_000,
    "full-table-sharded": 20_000,
}

#: Workloads whose Loc-RIB and downstream prefix set must equal their
#: sibling's (same feed bytes, extension vs native).
SIBLING: Dict[str, str] = {
    "rr-ext-frr": "rr-native-frr",
    "rr-native-frr": "rr-ext-frr",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # share of the median by which it may worsen


#: ``failed_share`` is the fifth end-to-end metric of the issue.  It is
#: printed for every workload and any increase fails the run, but it is
#: 0 on a healthy run, so in the driver's JSON it travels as
#: ``failed``/``attempted`` instead of as a bounded metric.
END_TO_END: Tuple[EndToEnd, ...] = tuple(
    EndToEnd(entry["name"], entry["unit"], entry["better"], entry["bound"])
    for entry in _CONTRACT["end_to_end"]
)

#: ``setup_s`` on the native workloads is some 15 ms, where a share
#: alone is a bound of a few milliseconds: ``--aa`` lets it differ by
#: this much before the share is looked at.  (``BENCHMARK.json`` can
#: express a share only.)
SETUP_FLOOR_S = 0.015


class Layer(NamedTuple):
    name: str
    unit: str
    on: Tuple[str, ...]  # workloads it is taken on


_SEQUENTIAL = ("rr-ext-frr", "rr-native-frr", "ov-ext-bird", "churn-native-bird")
_EXTENSION = ("rr-ext-frr", "ov-ext-bird")
_RR = ("rr-ext-frr", "rr-native-frr")
_SHARDED = ("full-table-sharded",)

#: Where a per-layer metric is taken, by the longest matching name
#: prefix; a metric no prefix matches is taken on every workload.
_ON: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("mrt.", _SHARDED),
    ("scale.", _SHARDED),
    ("bgp.roa_validate_us.", ("ov-ext-bird",)),
    ("core.vm_us_per_run.bgp_inbound_filter", _EXTENSION),
    ("core.vm_us_per_run.bgp_outbound_filter", ("rr-ext-frr",)),
    ("core.executions", _EXTENSION),
    ("core.fallbacks", _EXTENSION),
    ("core.ext_", _RR),
    ("core.attach_ms", _EXTENSION),
    ("xc.compile_ms", _EXTENSION),
    ("ebpf.instructions_per_run.rr_", ("rr-ext-frr",)),
    ("ebpf.helper_calls_per_run.rr_", ("rr-ext-frr",)),
    ("ebpf.instructions_per_run.rov_", ("ov-ext-bird",)),
    ("ebpf.helper_calls_per_run.rov_", ("ov-ext-bird",)),
    ("frr.self_us_per_route", _RR),
    ("bird.self_us_per_route", ("ov-ext-bird", "churn-native-bird")),
    ("bird.", ("churn-native-bird",)),
    ("host.update_us.", _SEQUENTIAL),
    ("sink.", _SEQUENTIAL),
)


def _taken_on(name: str) -> Tuple[str, ...]:
    matches = [entry for entry in _ON if name.startswith(entry[0])]
    return max(matches, key=lambda entry: len(entry[0]))[1] if matches else WORKLOADS


PER_LAYER: Tuple[Layer, ...] = tuple(
    Layer(entry["name"], entry["unit"], _taken_on(entry["name"]))
    for entry in _CONTRACT["per_layer"]
)

#: Layer metrics that are counts made by the program: they must repeat
#: exactly between two runs of the same code on the same seed.
EXACT_COUNTS = (
    "core.executions",
    "core.fallbacks",
    "scale.updates_per_batch",
) + tuple(
    layer.name
    for layer in PER_LAYER
    if layer.name.startswith(("ebpf.instructions_per_run.", "ebpf.helper_calls_per_run."))
)

UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
UNITS["failed_share"] = "fraction"


def layer_applies(layer: Layer, workload: str) -> bool:
    return workload in layer.on
