"""What the engine oracle can see: planted single-fault mutants.

``test_fuzz_planted.py`` plants one bug for the host oracle; this file
does it for the engine oracle, several times over, the way BGPFuzz
judges a fuzzer — by seeded faults found.  Each mutant changes one
token of the VM's memory model, interpreter or compiler (the function's
source is re-compiled with the edit and monkeypatched in), and must be
*killed*: a bounded engine campaign reports a divergence.  The same
seeds on the unmutated tree must stay clean.

``python tests/integration/test_fuzz_planted_engine.py`` prints, for
every mutant, which oracle arms killed it over the full campaign — the
k/N-per-arm record EXPERIMENTS.md quotes.  The file only touches names
that exist on both sides of the change that introduced it, so the same
file scores the tree before it.
"""

import inspect
import re
import sys
import textwrap

import pytest

from repro.ebpf import jit, native
from repro.ebpf.memory import VmMemory
from repro.ebpf.vm import VirtualMachine
from repro.fuzz.runner import FuzzRunner

CASES = 300  # the bound every mutant must be killed within
CHUNK = 60
SEED = 20261002


def _edit(monkeypatch, owner, name, old, new):
    """Replace ``old`` by ``new`` (exactly one occurrence) in the source
    of ``owner.name`` and patch the recompiled function in."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{name}: {old!r} occurs {source.count(old)}x"
    scope = {}
    module = sys.modules[function.__module__]
    exec(compile(source.replace(old, new), f"<mutant {name}>", "exec"), vars(module), scope)
    monkeypatch.setattr(owner, name, scope[name])


def alloc_skips_the_lazy_scrub(monkeypatch):
    _edit(monkeypatch, VmMemory, "alloc", "if dirty > used:", "if False:")


def swapped_conditional_in_the_jump_table(monkeypatch):
    monkeypatch.setitem(jit._COND, "jle", "<")


def lddw_counts_two_steps_on_the_dispatch_loop(monkeypatch):
    _edit(
        monkeypatch, jit._BlockEmitter, "emit_block",
        "index += 2\n", "index += 2; self._pending += 1\n",
    )


def lddw_counts_two_steps_in_structured_code(monkeypatch):
    _edit(
        monkeypatch, native._Structurer, "emit_range",
        "i += 2\n", "i += 2; em._pending += 1\n",
    )


def helper_result_truncated_to_32_bits(monkeypatch):
    _edit(
        monkeypatch, VirtualMachine, "run",
        "regs[0] = int(result) & _U64", "regs[0] = int(result) & _U32",
    )


MUTANTS = (
    alloc_skips_the_lazy_scrub,
    swapped_conditional_in_the_jump_table,
    lddw_counts_two_steps_on_the_dispatch_loop,
    lddw_counts_two_steps_in_structured_code,
    helper_result_truncated_to_32_bits,
)


def _campaign(chunk, iterations):
    return FuzzRunner(
        seed=SEED + chunk, iterations=iterations, oracles=("engine",), minimize=False
    ).run()


def _signatures(stop_at_first_kill):
    """Divergence signatures over ≤ CASES engine cases."""
    found = set()
    for chunk in range(CASES // CHUNK):
        report = _campaign(chunk, CHUNK)
        found.update(d["signature"] for d in report["divergences"])
        if found and stop_at_first_kill:
            break
    return found


@pytest.mark.parametrize("plant", MUTANTS, ids=lambda plant: plant.__name__)
def test_planted_engine_mutant_is_killed(plant, monkeypatch):
    plant(monkeypatch)
    assert _signatures(stop_at_first_kill=True), f"{plant.__name__} survived {CASES} cases"


def test_the_same_campaign_is_clean_without_a_plant():
    assert _signatures(stop_at_first_kill=False) == set()


def _arms(signature):
    """The oracle arm(s) a divergence signature blames."""
    if ":crash:" in signature:
        return {"crash"}
    rerun = re.match(r"engine:rerun:(\w+):", signature)
    if rerun:
        return {f"{rerun.group(1)} (rerun)"}
    versus = re.match(r"engine:outcome:\w+-vs-(\w+):(?:fast\d-vs-fast(\d):)?", signature)
    if versus:
        memory = {None: "", "1": "/lazy", "0": "/eager"}[versus.group(2)]
        return {versus.group(1) + memory}
    return {signature.split(":", 1)[1]}


if __name__ == "__main__":
    per_arm = {}
    killed = 0
    for plant in MUTANTS:
        with pytest.MonkeyPatch.context() as patch:
            plant(patch)
            arms = set().union(*map(_arms, _signatures(stop_at_first_kill=False)))
        killed += bool(arms)
        for arm in arms:
            per_arm[arm] = per_arm.get(arm, 0) + 1
        print(f"{plant.__name__:<48} {'killed by ' + ', '.join(sorted(arms)) if arms else 'SURVIVED'}")
    print(f"killed {killed}/{len(MUTANTS)}; per arm: " + ", ".join(
        f"{arm} {count}/{len(MUTANTS)}" for arm, count in sorted(per_arm.items())
    ))
