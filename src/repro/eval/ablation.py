"""Ablation micro-benchmarks for the design choices DESIGN.md calls out.

Each function returns a callable suitable for pytest-benchmark (or
plain timing): the per-operation cost of one design alternative.

Covered ablations:

* ROA store: trie browse (FRR style) vs hash probe (BIRD style) vs the
  extension's program-map probe — the §3.4 mechanism;
* execution engine: interpreter vs compiled tier for the same
  bytecode;
* ``next()`` chain length: cost of stacking extension codes on one
  insertion point;
* verifier cost per program size.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from ..bgp.prefix import Prefix
from ..bgp.roa import HashRoaTable, Roa, TrieRoaTable, make_roas_for_prefixes
from ..core import (
    ExecutionContext,
    HELPER_IDS,
    InsertionPoint,
    Manifest,
    VirtualMachineManager,
    VmmConfig,
)
from ..core.host_interface import HostImplementation
from ..ebpf import VerifierConfig, verify
from ..xc import compile_source

__all__ = [
    "make_validation_workload",
    "trie_check_fn",
    "hash_check_fn",
    "engine_fn",
    "chain_fn",
    "verifier_fn",
]


def make_validation_workload(
    n: int = 2000, valid_fraction: float = 0.75, seed: int = 7
) -> Tuple[List[Tuple[Prefix, int]], List[Roa]]:
    """(prefix, origin) checks plus a matching ROA set."""
    rng = random.Random(seed)
    checks: List[Tuple[Prefix, int]] = []
    seen = set()
    while len(checks) < n:
        length = rng.choice((24, 24, 24, 22, 20, 19, 16))
        network = rng.randrange(0x01000000, 0xDF000000)
        prefix = Prefix(network, length)
        if prefix in seen:
            continue
        seen.add(prefix)
        checks.append((prefix, rng.randrange(3, 64000)))
    roas = make_roas_for_prefixes(checks, valid_fraction, seed=seed)
    return checks, roas


def trie_check_fn(checks, roas) -> Callable[[], int]:
    """FRR-style: browse the ROA trie on every check."""
    table = TrieRoaTable()
    table.extend(roas)

    def run() -> int:
        total = 0
        for prefix, origin in checks:
            total += int(table.validate(prefix, origin))
        return total

    return run


def hash_check_fn(checks, roas) -> Callable[[], int]:
    """BIRD-style: hash probes per covering length."""
    table = HashRoaTable()
    table.extend(roas)

    def run() -> int:
        total = 0
        for prefix, origin in checks:
            total += int(table.validate(prefix, origin))
        return total

    return run


class _NullHost(HostImplementation):
    """Minimal host for engine micro-benchmarks."""

    name = "null"

    def get_attr(self, ctx, code):
        return None

    def set_attr(self, ctx, code, flags, value):
        return True

    def add_attr(self, ctx, code, flags, value):
        return True

    def remove_attr(self, ctx, code):
        return False

    def get_nexthop(self, ctx):
        return 0, 0, False

    def get_xtra(self, ctx, key):
        return None

    def rib_announce(self, ctx, prefix, next_hop):
        return True

    def log(self, message):
        pass


_ARITH_SOURCE = """
u64 work(u64 args) {
    u64 acc = 0;
    u64 i = 0;
    while (i < 64) {
        acc = acc + i * 3 + (acc >> 2);
        acc = acc ^ (i << 7);
        i = i + 1;
    }
    return acc;
}
"""


def engine_fn(engine: str) -> Callable[[], int]:
    """Cost of one bytecode invocation under ``engine`` (interp/jit)."""
    host = _NullHost()
    vmm = VirtualMachineManager(host, VmmConfig(tier=engine))
    manifest = Manifest(
        name=f"arith_{engine}",
        codes=[
            {
                "name": "work",
                "insertion_point": "BGP_INBOUND_FILTER",
                "seq": 0,
                "helpers": [],
                "source": _ARITH_SOURCE,
            }
        ],
    )
    vmm.attach_program(manifest.load())
    ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)

    def run() -> int:
        return vmm.run(ctx, lambda: 0)

    return run


_NEXT_SOURCE = """
u64 pass_on(u64 args) {
    next();
    return 0;
}
"""


def chain_fn(length: int) -> Callable[[], int]:
    """Cost of an insertion point with ``length`` chained codes, each
    delegating with ``next()`` down to the native default."""
    host = _NullHost()
    vmm = VirtualMachineManager(host, VmmConfig())
    codes = [
        {
            "name": f"pass_{index}",
            "insertion_point": "BGP_INBOUND_FILTER",
            "seq": index,
            "helpers": ["next"],
            "source": _NEXT_SOURCE,
        }
        for index in range(length)
    ]
    if codes:
        manifest = Manifest(name=f"chain_{length}", codes=codes)
        vmm.attach_program(manifest.load())
    ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER)

    def run() -> int:
        return vmm.run(ctx, lambda: 0)

    return run


def verifier_fn(repeats: int = 8) -> Callable[[], None]:
    """Cost of verifying a program of ~``repeats`` x the arith body."""
    body = "".join(
        f"""
    u64 v{i} = {i};
    while (v{i} < 32) {{ v{i} = v{i} + 3; }}
"""
        for i in range(repeats)
    )
    source = f"u64 big(u64 args) {{ {body} return 0; }}"
    program = compile_source(source, HELPER_IDS)
    config = VerifierConfig(allow_loops=True)

    def run() -> None:
        verify(program, config)

    return run
