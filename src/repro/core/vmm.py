"""The Virtual Machine Manager — libxbgp's multiplexer (§2.1).

The host implementation calls :meth:`VirtualMachineManager.run` instead
of its native function at every insertion point.  The VMM:

1. checks whether extension codes are attached to that point — if not,
   it executes the host's default function;
2. otherwise runs the first code in manifest order;
3. a code either *returns a result* (which the VMM hands back to the
   host) or calls ``next()`` to delegate to the following code, falling
   back to the default function at chain end;
4. execution is monitored: a sandbox violation, a blown instruction
   budget or a helper error aborts the code, notifies the host and
   falls back to the default function.

That sequence is written once.  Whenever what is attached or what is
watching changes (attach, detach, ``enable_*``/``disable_*``) the point
is *bound*: each attached code becomes one ``step(ctx)`` closure — the
only place an extension code is executed — and the point's runner
walks its steps and ends in the default function.  A circuit breaker
(:mod:`repro.telemetry.health`) is part of the step: a code that keeps
faulting is skipped so the rest of the chain and the native path keep
the router converging.  Everything that merely *watches* a run —
metrics and the trace ring of a :class:`repro.telemetry.Telemetry`,
breaker bookkeeping, the host's provenance tracker, a profiler — is a
:class:`_Watch`, composed into the step when the point is bound, so a
run nobody watches executes the bare code.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from ..ebpf.helpers import HelperError, HelperTable
from ..ebpf.memory import SandboxViolation, VmMemory
from ..ebpf.verifier import VerifierConfig, VerifierError, verify
from ..ebpf.vm import ExecutionError, VirtualMachine
from ..telemetry import QuarantineEngine, QuarantinePolicy, Telemetry
from .api import build_helper_table
from .context import ExecutionContext, NextRequested
from .extension import ExtensionCode, NativeExtensionCode, ProgramState, XbgpProgram
from .host_interface import HostImplementation
from .insertion_points import InsertionPoint

__all__ = ["VmmConfig", "VirtualMachineManager", "AttachError"]

Runner = Callable[[ExecutionContext, Callable[[], int]], int]

#: What a step returns instead of a result: the code delegated with
#: ``next()`` (or the breaker skipped it) / the code faulted and the
#: chain falls back to the host's native function.
NEXT = object()
ABORTED = object()

#: The faults a bytecode run is allowed to end in; anything else raised
#: on the bytecode path is a bug in this repo and propagates.  A
#: host-native code is arbitrary Python, so every exception is a fault.
_SANDBOX_FAULTS = (SandboxViolation, ExecutionError, HelperError)


class AttachError(Exception):
    """A program could not be attached (verification or lookup failed)."""


class VmmConfig:
    """Resource limits applied to every attached extension code.

    ``tier`` selects the execution engine for attached bytecode:
    ``"interp"`` (the reference interpreter) or ``"jit"`` (the compiled
    tier, :mod:`repro.ebpf.native`, which decides per program how much
    of it runs structured and how much on its dispatch loop).

    ``telemetry=False`` builds no metrics registry and no trace ring;
    ``quarantine`` configures the circuit breaker, which works with or
    without them (default: never quarantine, matching the paper's
    always-retry fallback).
    """

    __slots__ = (
        "step_budget",
        "heap_size",
        "allow_loops",
        "max_instructions",
        "tier",
        "telemetry",
        "quarantine",
    )

    def __init__(
        self,
        step_budget: int = 1_000_000,
        heap_size: int = 1 << 16,
        allow_loops: bool = True,
        max_instructions: int = 65536,
        tier: str = "jit",
        telemetry: bool = True,
        quarantine: Optional[QuarantinePolicy] = None,
    ):
        if tier not in ("jit", "interp"):
            raise ValueError(f"bad tier {tier!r}")
        self.step_budget = step_budget
        self.heap_size = heap_size
        self.allow_loops = allow_loops
        self.max_instructions = max_instructions
        self.tier = tier
        self.telemetry = telemetry
        self.quarantine = quarantine


class _Attached:
    """One attached extension code with its persistent VM and stats."""

    __slots__ = (
        "code",
        "vm",
        "state",
        "executions",
        "errors",
        "fallbacks",
        "health",
        "profile",
    )

    def __init__(self, code, vm: Optional[VirtualMachine], state: ProgramState, health):
        self.code = code
        self.vm = vm
        self.state = state
        self.executions = 0
        self.errors = 0
        self.fallbacks = 0
        #: The code's breaker state; stays ``closed`` unless something
        #: keeps the books (see :meth:`VirtualMachineManager._watches`).
        self.health = health
        #: The extension's VmProfile while a profiler is enabled.
        self.profile = None


class _Watch(NamedTuple):
    """What one observer wants to hear about one attached code.

    Any subset of: ``enter(ctx)`` before a run, then exactly one of
    ``returned(ctx, result)`` / ``delegated(ctx)`` / ``faulted(ctx,
    exc)`` after it; ``skipped(ctx)`` when the breaker withholds the
    run; ``observe(seconds)`` with the run's wall time, however it
    ended.
    """

    enter: Optional[Callable] = None
    returned: Optional[Callable] = None
    delegated: Optional[Callable] = None
    faulted: Optional[Callable] = None
    skipped: Optional[Callable] = None
    observe: Optional[Callable] = None


def _ignore(*_args) -> None:
    """The hook of a step nobody watches."""


def _fan_out(hooks: Iterable[Optional[Callable]]) -> Optional[Callable]:
    """One callable invoking every non-None hook in order; None if none."""
    wanted = [hook for hook in hooks if hook is not None]
    if len(wanted) <= 1:
        return wanted[0] if wanted else None

    def fan_out(*args) -> None:
        for hook in wanted:
            hook(*args)

    return fan_out


def _timed(run, observe):
    """``run`` with its wall time reported to ``observe`` on every
    outcome — the ``finally`` also times runs that end in ``next()``, a
    fault, or an exception that propagates out of the VMM."""

    def timed(*args):
        start = perf_counter()
        try:
            return run(*args)
        finally:
            observe(perf_counter() - start)

    return timed


def _verdict(result) -> Optional[int]:
    return result if isinstance(result, int) else None


def _native_only(ctx: ExecutionContext, default_fn: Callable[[], int]) -> int:
    """The runner of a point with nothing attached."""
    return default_fn()


class VirtualMachineManager:
    """Attach xBGP programs to a host and execute them at runtime."""

    def __init__(
        self,
        host: HostImplementation,
        config: Optional[VmmConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.host = host
        self.config = config or VmmConfig()
        self.helper_table: HelperTable = build_helper_table()
        self._chains: Dict[InsertionPoint, List[_Attached]] = {}
        #: The bound runner of every point with at least one code.
        self._runners: Dict[InsertionPoint, Runner] = {}
        self._programs: Dict[str, XbgpProgram] = {}
        self.fallbacks = 0
        self._point_fallbacks: Dict[InsertionPoint, int] = {}
        #: The active Profiler, or None; see :meth:`enable_profiling`.
        self.profiler = None
        if telemetry is None and self.config.telemetry:
            telemetry = Telemetry(policy=self.config.quarantine)
        self.telemetry = telemetry
        #: The circuit breaker.  Telemetry's when there is one (so its
        #: transitions are traced and counted); its own otherwise.
        self.breaker: QuarantineEngine = (
            telemetry.health
            if telemetry is not None
            else QuarantineEngine(self.config.quarantine)
        )

    # -- attachment -----------------------------------------------------

    def attach_program(self, program: XbgpProgram) -> None:
        """Verify and attach every extension code of ``program``.

        Verification enforces the manifest contract: each bytecode may
        only call the helpers it declared.  Any verification failure
        rejects the whole program (no partial attachment).
        """
        if program.name in self._programs:
            raise AttachError(f"program {program.name!r} already attached")
        state = program.build_state()
        vms: List[Optional[VirtualMachine]] = []
        for code in program.codes:
            if isinstance(code, NativeExtensionCode):
                vms.append(None)
                continue
            if not isinstance(code, ExtensionCode):
                raise AttachError(f"unsupported code object {code!r}")
            try:
                helpers = self.helper_table.restricted(code.helper_names)
            except KeyError as exc:
                raise AttachError(f"{code.name}: {exc}") from exc
            verifier_config = VerifierConfig(
                max_instructions=self.config.max_instructions,
                allow_loops=self.config.allow_loops,
                allowed_helpers=set(helpers.ids()),
            )
            try:
                verify(code.instructions, verifier_config)
            except VerifierError as exc:
                raise AttachError(f"{code.name}: verification failed: {exc}") from exc
            memory = VmMemory(heap_size=self.config.heap_size)
            memory.attach(state.shared)
            vm = VirtualMachine(
                code.instructions,
                helpers,
                memory=memory,
                step_budget=self.config.step_budget,
                tier=self.config.tier,
                trusted_layout=code.layout_hint,
            )
            vm.program_state = state
            vm.prepare()  # pay translation cost at attach, not first run
            vms.append(vm)
        touched = set()
        for code, vm in zip(program.codes, vms):
            point = code.insertion_point
            item = _Attached(
                code, vm, state, self.breaker.state_for(point.value, code.name)
            )
            if self.profiler is not None:
                self._profile_item(item)
            chain = self._chains.setdefault(point, [])
            chain.append(item)
            chain.sort(key=lambda entry: entry.code.seq)
            touched.add(point)
        self._programs[program.name] = program
        for point in touched:
            self._bind(point)

    def detach_program(self, name: str) -> None:
        """Remove every extension code of program ``name``.

        Quarantine state bound to the detached codes is discarded too:
        re-attaching a fixed extension under the same name must start
        with a fresh (closed) breaker, not inherit its predecessor's
        open circuit.
        """
        program = self._programs.pop(name, None)
        if program is None:
            raise KeyError(name)
        codes = set(id(code) for code in program.codes)
        for point, chain in self._chains.items():
            removed = [item for item in chain if id(item.code) in codes]
            if not removed:
                continue
            chain[:] = [item for item in chain if id(item.code) not in codes]
            for item in removed:
                self.breaker.discard(point.value, item.code.name)
            self._bind(point)

    def rebind_all(self) -> None:
        """Bind every point again.

        Called after anything the bound steps captured changes —
        toggling the host's provenance tracker or this manager's
        profiler on or off.
        """
        for point in list(self._chains):
            self._bind(point)

    # -- profiling ---------------------------------------------------------

    def enable_profiling(self, profiler) -> None:
        """Install ``profiler``: one
        :class:`~repro.telemetry.profiler.VmProfile` per attached code
        (swapping each VM onto its profiled execution path) fed by a
        watch on every step.  On pays for what it measures, off is
        free — the same discipline as the host's ``enable_provenance``.
        """
        if profiler is None:
            raise ValueError("enable_profiling requires a Profiler")
        self.profiler = profiler
        for chain in self._chains.values():
            for item in chain:
                self._profile_item(item)
        self.rebind_all()

    def disable_profiling(self) -> None:
        """Remove the profiler and its watches."""
        if self.profiler is None:
            return
        self.profiler = None
        for chain in self._chains.values():
            for item in chain:
                item.profile = None
                if item.vm is not None:
                    item.vm.set_profile(None)
        self.rebind_all()

    def _profile_item(self, item: _Attached) -> None:
        """Give ``item`` its profile and put its VM on the profiled path."""
        point = item.code.insertion_point.value
        item.profile = self.profiler.profile_for(point, item.code.name, item.vm)
        if item.vm is not None:
            item.vm.set_profile(item.profile)
            # set_profile re-translates the compiled tier and the
            # compiler's verdict may differ under profiling, so refresh
            # the attribution captured at profile creation.
            item.profile.compiled = item.vm.compile_info

    # -- inspection ----------------------------------------------------------

    def attached_codes(self, point: InsertionPoint) -> List[str]:
        """Names of the codes attached to ``point``, in execution order."""
        return [item.code.name for item in self._chains.get(point, [])]

    def active(self, point: InsertionPoint) -> bool:
        """O(1): is any extension code attached at ``point``?

        Daemons use this to skip context construction (and, at the
        encode point, building the neutral wire copy) when nothing is
        attached — semantics are identical because an empty chain always
        reduces to ``default_fn()``.
        """
        return bool(self._chains.get(point))

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-code execution, error and caused-fallback counters."""
        result: Dict[str, Dict[str, int]] = {}
        for chain in self._chains.values():
            for item in chain:
                result[item.code.name] = {
                    "executions": item.executions,
                    "errors": item.errors,
                    "fallbacks": item.fallbacks,
                }
        return result

    def point_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-insertion-point aggregates, including fallback counts."""
        result: Dict[str, Dict[str, int]] = {}
        for point, chain in self._chains.items():
            entry = {
                "executions": 0,
                "errors": 0,
                "fallbacks": self._point_fallbacks.get(point, 0),
            }
            for item in chain:
                entry["executions"] += item.executions
                entry["errors"] += item.errors
            result[point.value] = entry
        for point, count in self._point_fallbacks.items():
            if point.value not in result:
                result[point.value] = {"executions": 0, "errors": 0, "fallbacks": count}
        return result

    def tiers(self) -> Dict[str, Dict[str, object]]:
        """Per-code execution-tier attribution.

        Maps code name to its tier — ``"host"`` for host-native (pyext)
        codes — and, on the compiled tier, to what the compiler did with
        the program (:meth:`repro.ebpf.native.NativeInfo.summary`:
        structured / tail / dispatch-only block counts and, if the
        structurer declined it, why).
        """
        result: Dict[str, Dict[str, object]] = {}
        for chain in self._chains.values():
            for item in chain:
                if item.vm is None:
                    result[item.code.name] = {"tier": "host"}
                    continue
                entry: Dict[str, object] = {"tier": item.vm.tier}
                if item.vm.compile_info is not None:
                    entry["compiled"] = item.vm.compile_info.summary()
                result[item.code.name] = entry
        return result

    def quarantined_codes(self) -> List[str]:
        """Names of codes currently detached by the circuit breaker."""
        return [
            health.name
            for health in self.breaker.quarantined()
            if health.state == "open"
        ]

    # -- execution ---------------------------------------------------------

    def run(
        self,
        ctx: ExecutionContext,
        default_fn: Callable[[], int],
    ) -> int:
        """Execute the chain at ``ctx.insertion_point``.

        ``default_fn`` is the host's native implementation of the
        operation; it runs when nothing is attached, when every code
        delegates with ``next()``, or when a code errors out.
        """
        runner = self._runners.get(ctx.insertion_point)
        if runner is None:
            return default_fn()
        return runner(ctx, default_fn)

    def runner(self, point: InsertionPoint) -> Runner:
        """Resolve :meth:`run`'s dispatch for ``point`` once.

        Batch pipelines call this once per UPDATE vector and invoke the
        returned callable per route, saving the per-call dict probe of
        :meth:`run`.  The binding stays valid for the whole batch: the
        events that rebind a point (attach/detach, provenance or
        profiling toggles) cannot happen mid-batch.
        """
        return self._runners.get(point, _native_only)

    def _note_fallback(self, item: _Attached, ctx: ExecutionContext, exc: Exception) -> None:
        """Bookkeeping when a code aborts the chain."""
        item.errors += 1
        item.fallbacks += 1
        self.fallbacks += 1
        point = ctx.insertion_point
        self._point_fallbacks[point] = self._point_fallbacks.get(point, 0) + 1
        ctx.error = f"{item.code.name}: {exc}"
        ctx.faulted_extension = item.code.name
        self.host.log(f"[vmm] {ctx.error}; falling back to native")

    # -- binding -----------------------------------------------------------

    def _bind(self, point: InsertionPoint) -> None:
        """Build (or drop) the runner of ``point`` from what is attached
        and what is watching right now."""
        chain = self._chains.get(point)
        if not chain:
            self._runners.pop(point, None)
            return
        steps = tuple(self._bind_step(item) for item in chain)
        exhausted = _fan_out(self._exhausted_hooks(point.value)) or _ignore

        def run_point(ctx: ExecutionContext, default_fn: Callable[[], int]) -> int:
            for step in steps:
                result = step(ctx)
                if result is NEXT:
                    continue
                if result is ABORTED:
                    return default_fn()
                return result
            exhausted(ctx)
            return default_fn()

        self._runners[point] = run_point

    def _bind_step(self, item: _Attached) -> Callable[[ExecutionContext], object]:
        """``item`` as one ``step(ctx) -> result | NEXT | ABORTED``.

        The hooks that fire on every run (``enter``/``returned``, the
        timer) are folded into the callable the step executes, so a
        step nobody watches executes the bare code; the hooks of the
        rarer outcomes are plain calls that default to a no-op.
        """
        watches = self._watches(item)
        observe = _fan_out(watch.observe for watch in watches)
        enter = _fan_out(watch.enter for watch in watches)
        returned = _fan_out(watch.returned for watch in watches)
        delegated = _fan_out(watch.delegated for watch in watches) or _ignore
        faulted = _fan_out(watch.faulted for watch in watches) or _ignore
        skipped = _fan_out(watch.skipped for watch in watches) or _ignore

        vm = item.vm
        if vm is None:
            faults = Exception
            fn, host = item.code.fn, self.host

            def execute(ctx):
                return fn(ctx, host)

            if observe is not None:
                execute = _timed(execute, observe)
        else:
            faults = _SANDBOX_FAULTS
            run = vm.prepare() if observe is None else _timed(vm.prepare(), observe)
            reset_heap = vm.memory.reset_heap

            def execute(ctx):
                vm.ctx = ctx
                reset_heap()
                return run()

        if enter is not None or returned is not None:
            bare, enter, returned = execute, enter or _ignore, returned or _ignore

            def execute(ctx):
                enter(ctx)
                result = bare(ctx)
                returned(ctx, result)
                return result

        health = item.health
        allow = self.breaker.allow
        note_fallback = self._note_fallback

        def step(ctx: ExecutionContext):
            if health.state != "closed" and not allow(health):
                skipped(ctx)
                return NEXT
            item.executions += 1
            try:
                return execute(ctx)
            except NextRequested:
                delegated(ctx)
                return NEXT
            except faults as exc:  # must never crash the host
                note_fallback(item, ctx, exc)
                faulted(ctx, exc)
                return ABORTED

        return step

    # -- what watches a run ------------------------------------------------

    def _watches(self, item: _Attached) -> List[_Watch]:
        """Everything watching ``item`` right now, in hook order."""
        watches = []
        if self.telemetry is not None or self.breaker.policy.enabled:
            watches.append(self._watch_breaker(item))
        if self.telemetry is not None:
            watches.append(self._watch_telemetry(item))
        if self.host.provenance is not None:
            watches.append(self._watch_provenance(item, self.host.provenance))
        if item.profile is not None:
            note_run = item.profile.note_run
            memory = item.vm.memory if item.vm is not None else None

            def observe(seconds):
                # reset_heap precedes each run, so heap_used afterwards
                # is this run's allocation high watermark.
                note_run(seconds, memory.heap_used if memory is not None else 0)

            watches.append(_Watch(observe=observe))
        return watches

    def _exhausted_hooks(self, point: str) -> List[Callable]:
        """Hooks for "every code delegated: the native function decides"."""
        hooks = []
        if self.telemetry is not None:
            record = self.telemetry.trace.record
            hooks.append(lambda ctx: record("default", point))
        prov = self.host.provenance
        if prov is not None:
            hooks.append(lambda ctx: prov.vmm_native(ctx, point))
        return hooks

    def _watch_breaker(self, item: _Attached) -> _Watch:
        """Keep the breaker's books (the *decision* is in the step)."""
        breaker, health = self.breaker, item.health

        def succeeded(ctx, result=None):
            breaker.record_success(health)

        return _Watch(
            returned=succeeded,
            delegated=succeeded,
            faulted=lambda ctx, exc: breaker.record_error(health),
        )

    def _watch_telemetry(self, item: _Attached) -> _Watch:
        """The ``xbgp_extension_*`` series and the trace ring."""
        registry = self.telemetry.registry
        record = self.telemetry.trace.record
        point = item.code.insertion_point.value
        name = item.code.name
        labels = {"point": point, "extension": name}
        m_exec = registry.counter(
            "xbgp_extension_executions", "extension code invocations", **labels
        )
        m_err = registry.counter(
            "xbgp_extension_errors", "aborted extension runs", **labels
        )
        m_fallback = registry.counter(
            "xbgp_extension_fallbacks", "fallbacks to native caused by this code", **labels
        )
        m_next = registry.counter(
            "xbgp_extension_next", "next() delegations", **labels
        )
        m_insns = registry.counter(
            "xbgp_extension_instructions", "eBPF instructions executed", **labels
        )
        m_helpers = registry.counter(
            "xbgp_extension_helper_calls", "helper functions invoked", **labels
        )
        hist = registry.histogram(
            "xbgp_extension_run_seconds", "per-run latency", **labels
        )
        vm = item.vm
        if vm is None:
            count_work = _ignore
        else:

            def count_work():
                m_insns.inc(vm.steps_executed)
                m_helpers.inc(vm.helper_calls)

        def enter(ctx):
            m_exec.inc()
            record("enter", point, name)

        def returned(ctx, result):
            count_work()
            record("exit", point, name, outcome="return", verdict=_verdict(result))

        def delegated(ctx):
            m_next.inc()
            count_work()
            record("next", point, name)
            record("exit", point, name, outcome="next")

        def faulted(ctx, exc):
            m_err.inc()
            m_fallback.inc()
            count_work()
            record("exit", point, name, outcome="error", error=str(exc))
            record("fallback", point, name, error=ctx.error)
            # Created on first fallback, so the series only materialises
            # once a fallback actually happens.
            registry.counter(
                "xbgp_vmm_fallbacks", "chain fallbacks to native", point=point
            ).inc()

        def skipped(ctx):
            record("skip", point, name, reason="quarantined")

        return _Watch(enter, returned, delegated, faulted, skipped, hist.observe)

    @staticmethod
    def _watch_provenance(item: _Attached, prov) -> _Watch:
        """The host's provenance tracker: spans and per-prefix stories."""
        point = item.code.insertion_point.value
        name = item.code.name

        def faulted(ctx, exc):
            prov.vmm_exit(ctx, point, name, "error", error=str(exc))
            prov.vmm_fallback(ctx, point, name, str(exc))

        return _Watch(
            enter=lambda ctx: prov.vmm_enter(ctx, point, name),
            returned=lambda ctx, result: prov.vmm_exit(
                ctx, point, name, "return", verdict=_verdict(result)
            ),
            delegated=lambda ctx: prov.vmm_exit(ctx, point, name, "next"),
            faulted=faulted,
            skipped=lambda ctx: prov.vmm_skip(ctx, point, name),
        )
