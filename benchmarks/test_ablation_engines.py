"""Ablation — executing the instruction set: interpreter vs compiled.

The paper asks "how to implement this instruction set efficiently — so
as to minimize the overhead?".  On the Python substrate the answer is
one compiled tier (``tier="jit"``: repro.ebpf.native, structured Python
with repro.ebpf.jit's dispatch loop as its fallback) beside the
reference interpreter; this benchmark quantifies the per-invocation gap
on a fixed arithmetic bytecode, plus the cost of ``next()`` chains and
verification.
"""

import timeit

import pytest

from repro.eval import ablation


@pytest.mark.parametrize("engine", ["interp", "jit"])
def test_engine_invocation_cost(benchmark, engine):
    run = ablation.engine_fn(engine)
    benchmark(run)


def test_jit_speedup_over_interpreter(benchmark):
    """The compiled tier must clear 5× the interpreter's cost per
    invocation on the loop-heavy arithmetic bytecode (the structured
    loop measures far above that; the floor leaves room for CI noise)."""
    interp = ablation.engine_fn("interp")
    jitted = ablation.engine_fn("jit")
    assert interp() == jitted()
    interp_time = min(timeit.repeat(interp, number=50, repeat=3))
    jit_time = min(timeit.repeat(jitted, number=50, repeat=3))
    benchmark.pedantic(jitted, rounds=3, iterations=10, warmup_rounds=1)
    ratio = interp_time / jit_time
    print(f"\nJIT speedup over interpreter: {ratio:.1f}x")
    assert ratio > 5.0


@pytest.mark.parametrize("length", [0, 1, 2, 4, 8])
def test_next_chain_cost(benchmark, length):
    """Cost of an insertion point as the ``next()`` chain grows."""
    run = ablation.chain_fn(length)
    benchmark(run)
    assert run() == 0


def test_chain_cost_grows_linearly(benchmark):
    short = ablation.chain_fn(1)
    long = ablation.chain_fn(8)
    short_time = min(timeit.repeat(short, number=200, repeat=3))
    long_time = min(timeit.repeat(long, number=200, repeat=3))
    benchmark.pedantic(long, rounds=3, iterations=20, warmup_rounds=1)
    ratio = long_time / short_time
    print(f"\n8-deep chain / 1-deep chain = {ratio:.1f}x")
    assert 1.5 < ratio < 30.0


def test_verifier_cost(benchmark):
    """Verification is a load-time cost; confirm it's bounded."""
    run = ablation.verifier_fn(repeats=8)
    benchmark(run)
