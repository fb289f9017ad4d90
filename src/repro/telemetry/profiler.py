"""Execution profiling for xBGP extensions and the host update path.

Telemetry (PR 1) and provenance (PR 4) can say *that* an extension ran
slow; this module says *where* the cycles went.  A :class:`Profiler`
aggregates three views:

* **bytecode hotspots** — one :class:`VmProfile` per attached
  extension code.  Under the interpreter the counts are exact and
  PC-level (every executed instruction bumps its slot, so the per-PC
  sum equals ``steps_executed`` on returning, delegating and faulting
  runs alike).  Under the compiled tier the equivalent is compiled
  into the translated function at basic-block granularity: entry and
  instruction counters per block leader, flushed wherever the
  translator flushes ``steps``.  Both tiers agree on
  :meth:`VmProfile.block_profile` for non-faulting runs, which the
  parity tests check.  Helper calls are timed individually, and the
  heap/stack high watermarks ride the lazily zeroed VM heap.

* **phase breakdown** — wall-clock totals for the daemon update path
  (``decode`` plus the five insertion points), fed by the FRR/BIRD
  pipelines when profiling is enabled.

* **exports** — annotated disassembly listings
  (:meth:`Profiler.render`) and collapsed-stack files
  (:meth:`Profiler.collapsed`) loadable in speedscope or
  flamegraph.pl: ``router;phase;extension;pc_<block> weight``.

Profiling is off by default and free when off: the daemons'
``enable_profiling()`` has the VMM bind a timing watch into every
step and swap each VM onto its profiled path (exactly like
provenance's hooks), and ``disable_profiling()`` binds them back out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ebpf.disassembler import disassemble_one
from ..ebpf.isa import OP_LDDW
from ..ebpf.memory import STACK_SIZE

__all__ = ["Profiler", "VmProfile", "PHASES"]

#: The update hot path, in pipeline order (Fig. 2 of the paper).
PHASES = (
    "decode",
    "bgp_receive_message",
    "bgp_inbound_filter",
    "bgp_decision",
    "bgp_outbound_filter",
    "bgp_encode_message",
)


class VmProfile:
    """Hotspot profile of one attached extension code.

    ``pc_counts`` (interpreter) is indexed by instruction *slot* — the
    second slot of an ``lddw`` never fires, matching how the program
    counter moves.  ``block_entries``/``block_insns`` (compiled tier)
    are indexed by block-leader slot.  ``stack_low`` is a one-element
    list so generated code can close over it as a mutable cell.
    ``engine`` is the code's tier (``host`` for host-native codes);
    ``compiled`` is the compiler's :class:`~repro.ebpf.native.NativeInfo`
    on the compiled tier — what it structured, what runs on the
    dispatch loop, and why if it declined the program.
    """

    __slots__ = (
        "point",
        "extension",
        "engine",
        "compiled",
        "program",
        "helper_names",
        "pc_counts",
        "block_entries",
        "block_insns",
        "helper_seconds",
        "helper_count",
        "heap_hwm",
        "stack_low",
        "runs",
        "run_seconds",
    )

    def __init__(self, point: str, extension: str, vm=None):
        self.point = point
        self.extension = extension
        if vm is None:
            # Host-native (pyext) codes run no VM at all.
            self.engine = "host"
            self.compiled = None
            self.program = []
            self.helper_names = {}
        else:
            self.engine = vm.tier
            self.compiled = vm.compile_info
            self.program = vm.program
            self.helper_names = {
                helper_id: vm.helpers.get(helper_id).name
                for helper_id in vm.helpers.ids()
            }
        size = len(self.program)
        self.pc_counts = [0] * size
        self.block_entries = [0] * size
        self.block_insns = [0] * size
        # Pre-seeded so generated code can use plain indexed updates.
        self.helper_seconds = {helper_id: 0.0 for helper_id in self.helper_names}
        self.helper_count = {helper_id: 0 for helper_id in self.helper_names}
        self.heap_hwm = 0
        self.stack_low = [STACK_SIZE]
        self.runs = 0
        self.run_seconds = 0.0

    # -- feeding ---------------------------------------------------------

    def note_run(self, elapsed: float, heap_used: int) -> None:
        """Per-run bookkeeping, called from the VMM's observe seam."""
        self.runs += 1
        self.run_seconds += elapsed
        if heap_used > self.heap_hwm:
            self.heap_hwm = heap_used

    # -- derived views ---------------------------------------------------

    @property
    def stack_hwm(self) -> int:
        """Deepest stack touch in bytes (r10 grows down from the top)."""
        low = self.stack_low[0]
        return STACK_SIZE - low if low < STACK_SIZE else 0

    def instructions(self) -> int:
        """Total instructions attributed — equals the VMM's
        ``xbgp_extension_instructions`` counter for runs made while
        profiling was enabled."""
        if self.engine == "interp":
            return sum(self.pc_counts)
        return sum(self.block_insns)

    def _leaders(self) -> List[int]:
        from ..ebpf.jit import _leaders

        return _leaders(self.program)

    def block_profile(self) -> Dict[int, Tuple[int, int]]:
        """``{leader: (entries, instructions)}`` — the engine-neutral
        granularity.  Under the interpreter a block's entry count is its
        leader's execution count (blocks are single-entry), and its
        instruction count is the sum over its slots; under the JIT both
        are maintained directly by the generated code.  Identical for
        runs that do not blow the budget (the known per-block-vs-per-step
        blowout asymmetry is the engines' documented divergence).
        """
        if not self.program:
            return {}
        leaders = self._leaders()
        result: Dict[int, Tuple[int, int]] = {}
        if self.engine == "interp":
            bounds = leaders + [len(self.program)]
            for index, leader in enumerate(leaders):
                entries = self.pc_counts[leader]
                insns = sum(self.pc_counts[leader : bounds[index + 1]])
                if entries or insns:
                    result[leader] = (entries, insns)
            return result
        for leader in leaders:
            entries = self.block_entries[leader]
            insns = self.block_insns[leader]
            if entries or insns:
                result[leader] = (entries, insns)
        return result

    def hotspots(self, top: int = 10) -> List[Dict[str, object]]:
        """Top-``top`` hot locations with their disassembly.

        PC-level under the interpreter; block-level under the JIT
        (ranked by instructions executed in the block, annotated with
        the leader instruction).
        """
        spots: List[Dict[str, object]] = []
        if self.engine == "interp":
            for pc, count in enumerate(self.pc_counts):
                if count:
                    spots.append(
                        {"pc": pc, "count": count, "insn": self._disasm(pc)}
                    )
            spots.sort(key=lambda s: (-s["count"], s["pc"]))
        else:
            for leader, (entries, insns) in self.block_profile().items():
                spots.append(
                    {
                        "pc": leader,
                        "count": insns,
                        "entries": entries,
                        "insn": self._disasm(leader),
                    }
                )
            spots.sort(key=lambda s: (-s["count"], s["pc"]))
        return spots[:top]

    def _disasm(self, pc: int) -> str:
        insn = self.program[pc]
        next_imm = (
            self.program[pc + 1].imm
            if insn.opcode == OP_LDDW and pc + 1 < len(self.program)
            else 0
        )
        return disassemble_one(insn, next_imm, self.helper_names)

    def annotate(self) -> List[str]:
        """The full disassembly with execution counts in the margin.

        Interpreter profiles annotate exact per-PC counts; JIT profiles
        annotate each instruction with its containing block's entry
        count and mark block leaders.
        """
        lines: List[str] = []
        if not self.program:
            return lines
        if self.engine == "interp":
            counts = self.pc_counts
            marks = {}
        else:
            blocks = self.block_profile()
            leaders = self._leaders()
            counts = [0] * len(self.program)
            current = 0
            for pc in range(len(self.program)):
                if pc in blocks or pc in leaders:
                    current = blocks.get(pc, (0, 0))[0]
                counts[pc] = current
            marks = {leader: "▸" for leader in leaders}
        pc = 0
        while pc < len(self.program):
            mark = marks.get(pc, " ")
            lines.append(f"{mark}{pc:>5} {counts[pc]:>10}  {self._disasm(pc)}")
            pc += 2 if self.program[pc].opcode == OP_LDDW else 1
        return lines

    def snapshot(self) -> Dict[str, object]:
        helpers = {
            self.helper_names.get(helper_id, str(helper_id)): {
                "calls": self.helper_count[helper_id],
                "seconds": self.helper_seconds[helper_id],
            }
            for helper_id in self.helper_count
            if self.helper_count[helper_id]
        }
        return {
            "point": self.point,
            "extension": self.extension,
            "engine": self.engine,
            "compiled": self.compiled.summary() if self.compiled else None,
            "runs": self.runs,
            "run_seconds": self.run_seconds,
            "instructions": self.instructions(),
            "hotspots": self.hotspots(),
            "helpers": helpers,
            "memory": {
                "heap_high_watermark": self.heap_hwm,
                "stack_high_watermark": self.stack_hwm,
            },
        }


class Profiler:
    """Aggregates phase timings and per-extension VM profiles.

    One instance belongs to one daemon; the daemon feeds
    :meth:`phase` from its pipeline seams and the VMM creates one
    :class:`VmProfile` per attached code via :meth:`profile_for`.
    """

    def __init__(self, router: str = "", implementation: str = ""):
        self.router = router or "router"
        self.implementation = implementation
        #: phase name -> [invocations, wall seconds]
        self.phases: Dict[str, List[float]] = {}
        self._profiles: Dict[Tuple[str, str], VmProfile] = {}

    # -- feeding ---------------------------------------------------------

    def phase(self, name: str, seconds: float) -> None:
        entry = self.phases.get(name)
        if entry is None:
            self.phases[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def profile_for(self, point: str, extension: str, vm=None) -> VmProfile:
        """The (point, extension) profile, created on first use."""
        key = (point, extension)
        profile = self._profiles.get(key)
        if profile is None:
            profile = VmProfile(point, extension, vm)
            self._profiles[key] = profile
        return profile

    # -- views -----------------------------------------------------------

    def profiles(self) -> List[VmProfile]:
        return [self._profiles[key] for key in sorted(self._profiles)]

    def report(self, top: int = 10) -> Dict[str, object]:
        """One JSON-able view: phases + per-extension profiles."""
        phases = {}
        for name in PHASES:
            if name in self.phases:
                count, seconds = self.phases[name]
                phases[name] = {"count": int(count), "seconds": seconds}
        for name, (count, seconds) in self.phases.items():
            if name not in phases:
                phases[name] = {"count": int(count), "seconds": seconds}
        return {
            "router": self.router,
            "implementation": self.implementation,
            "phases": phases,
            "extensions": [
                dict(profile.snapshot(), hotspots=profile.hotspots(top))
                for profile in self.profiles()
            ],
        }

    def render(self, top: int = 10) -> str:
        """Human-readable hotspot report with annotated listings."""
        lines: List[str] = [f"profile: {self.router} ({self.implementation})"]
        if self.phases:
            lines.append("")
            lines.append("phase breakdown (wall clock):")
            total = sum(entry[1] for entry in self.phases.values())
            ordered = [name for name in PHASES if name in self.phases]
            ordered += [name for name in self.phases if name not in PHASES]
            for name in ordered:
                count, seconds = self.phases[name]
                share = (seconds / total * 100.0) if total else 0.0
                lines.append(
                    f"  {name:<22} {seconds * 1000:>9.2f} ms"
                    f"  {share:>5.1f}%  ({int(count)} calls)"
                )
        for profile in self.profiles():
            lines.append("")
            lines.append(
                f"== {profile.point} / {profile.extension}"
                f" ({profile.engine}, {profile.runs} runs,"
                f" {profile.run_seconds * 1000:.2f} ms,"
                f" {profile.instructions()} insns) =="
            )
            if profile.engine == "host":
                continue
            if profile.compiled is not None:
                done = profile.compiled.summary()
                lines.append(
                    f"   compiled: {done['shape']}"
                    f" ({done['structured_blocks']} structured,"
                    f" {done['tail_blocks']} tail,"
                    f" {done['dispatch_only_blocks']} dispatch-only blocks)"
                    + (f" — declined: {done['declined']}" if done["declined"] else "")
                )
            lines.append(
                f"   heap high-watermark {profile.heap_hwm} B,"
                f" stack high-watermark {profile.stack_hwm} B"
            )
            unit = "x" if profile.engine == "interp" else "insns"
            for spot in profile.hotspots(top):
                entries = (
                    f" ({spot['entries']} entries)" if "entries" in spot else ""
                )
                lines.append(
                    f"   pc {spot['pc']:>4}  {spot['count']:>10} {unit}"
                    f"{entries}  {spot['insn']}"
                )
            helpers = sorted(
                (
                    (profile.helper_seconds[hid], profile.helper_count[hid], hid)
                    for hid in profile.helper_count
                    if profile.helper_count[hid]
                ),
                reverse=True,
            )
            for seconds, calls, helper_id in helpers[:top]:
                name = profile.helper_names.get(helper_id, str(helper_id))
                lines.append(
                    f"   helper {name:<20} {seconds * 1000:>8.2f} ms"
                    f"  ({calls} calls)"
                )
        return "\n".join(lines)

    def annotated_listing(self, point: str, extension: str) -> str:
        """Full annotated disassembly for one attached code."""
        profile = self._profiles.get((point, extension))
        if profile is None:
            return f"no profile for {point}/{extension}"
        header = (
            f"{profile.point}/{profile.extension} ({profile.engine}):"
            f" count = "
            + (
                "exact per-pc executions"
                if profile.engine == "interp"
                else "containing block's entry count (▸ marks leaders)"
            )
        )
        return "\n".join([header] + profile.annotate())

    # -- collapsed-stack export ------------------------------------------

    def collapsed(self, weights: str = "instructions") -> List[str]:
        """Collapsed-stack lines for speedscope / flamegraph.pl.

        ``instructions`` (default): one line per executed basic block,
        ``router;point;extension;pc_<leader> <instructions>``.
        ``time``: phase wall clock in microseconds with per-extension
        children; each phase line carries its *exclusive* time so stack
        totals do not double count.
        """
        if weights not in ("instructions", "time"):
            raise ValueError(f"bad weights {weights!r}")
        lines: List[str] = []
        router = self.router
        if weights == "instructions":
            for profile in self.profiles():
                for leader, (_entries, insns) in sorted(
                    profile.block_profile().items()
                ):
                    if insns:
                        lines.append(
                            f"{router};{profile.point};{profile.extension};"
                            f"pc_{leader} {insns}"
                        )
            return lines
        nested: Dict[str, float] = {}
        for profile in self.profiles():
            micros = int(profile.run_seconds * 1e6)
            if micros:
                lines.append(
                    f"{router};{profile.point};{profile.extension} {micros}"
                )
            nested[profile.point] = (
                nested.get(profile.point, 0.0) + profile.run_seconds
            )
        for name, (_count, seconds) in self.phases.items():
            exclusive = seconds - nested.get(name, 0.0)
            micros = int(max(exclusive, 0.0) * 1e6)
            if micros:
                lines.append(f"{router};{name} {micros}")
        return lines

    def export_collapsed(self, path: str, weights: str = "instructions") -> int:
        """Write the collapsed-stack file; returns the line count."""
        lines = self.collapsed(weights)
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)
