"""Command-line tools: ``xbgp <subcommand>``.

Subcommands:

* ``compile``  — compile an xc source file to eBPF bytecode (hex) or
  disassembly, with ``-D NAME=VALUE`` constants;
* ``disasm``   — disassemble bytecode hex;
* ``verify``   — run the static verifier over bytecode hex;
* ``fig1``     — print the Fig. 1 standardization-delay CDF;
* ``fig4``     — run one Fig. 4 cell (implementation × feature ×
  engine) and print the paper-style row;
* ``gen-table`` — generate a synthetic RIS-like table and write it as
  an MRT TABLE_DUMP_V2 file;
* ``loc``      — print the §2.1 glue-size report;
* ``stats``    — drive one harness scenario and print the VMM's
  telemetry (per-insertion-point/extension counters, latency
  histograms, quarantine state) as Prometheus text and/or JSON;
  ``--merge`` instead aggregates registry snapshot files offline and
  ``--diff A B`` prints what moved between two recorded runs;
* ``events``   — tail, filter, validate or convert a JSONL structured
  event log (replay/shard lifecycle, batch flushes, quarantine trips,
  convergence signals);
* ``explain``  — drive a provenance-enabled route-reflection scenario
  and reconstruct the full causal chain behind a prefix: peer →
  extension runs → attribute deltas → decision verdict → exports;
* ``spans``    — same scenario, but print the cross-router span tree
  (or export it as JSON Lines);
* ``fuzz``     — run a differential fuzzing campaign over the codec
  round-trip, interpreter-vs-JIT and FRR-vs-BIRD oracles; prints a
  JSON report, writes minimized divergences to a corpus directory,
  exits non-zero if any divergence was found;
* ``profile``  — drive one scenario with the profiler on and print the
  hot-path phase breakdown plus per-extension PC/block-level hotspots
  (optionally a collapsed-stack file for speedscope/flamegraph.pl);
* ``bench``    — run one scenario (the sharded replay, the telemetry
  plane and alert drills) ``--runs`` times and print a JSON summary:
  median wall time, routes per second, instructions, per-shard rows;
  ``--telemetry``/``--serve``/``--events`` attach the cross-process
  telemetry plane (merged worker registries, live progress over HTTP,
  streamed lifecycle events); ``--timeseries`` samples the registry
  into a time-series (served at ``/timeseries``, recordable as JSONL)
  and ``--alert``/``--alert-rules`` evaluate declarative alert rules
  over it — a fired critical rule makes the bench exit non-zero;
* ``top``      — live ANSI dashboard (progress bars, rate sparklines,
  histogram quantiles, firing alerts) over a live exporter URL or a
  recorded time-series file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .core.abi import HELPER_IDS, PLUGIN_CONSTANTS
from .core.vmm import TIERS

__all__ = ["main"]


def _parse_defines(pairs: List[str]) -> Dict[str, int]:
    constants = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"bad -D {pair!r}: expected NAME=VALUE")
        constants[name] = int(value, 0)
    return constants


def _cmd_compile(args) -> int:
    from .ebpf.disassembler import disassemble
    from .ebpf.isa import encode_program
    from .xc import compile_source

    with open(args.source) as handle:
        source = handle.read()
    constants = dict(PLUGIN_CONSTANTS)
    constants.update(_parse_defines(args.define))
    program = compile_source(source, HELPER_IDS, constants)
    if args.disasm:
        names = {helper_id: name for name, helper_id in HELPER_IDS.items()}
        output = disassemble(program, names) + "\n"
    else:
        output = encode_program(program).hex() + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    print(f"# {len(program)} instructions", file=sys.stderr)
    return 0


def _read_bytecode(path: str):
    from .ebpf.isa import decode_program

    with open(path) as handle:
        text = handle.read().strip()
    return decode_program(bytes.fromhex(text))


def _cmd_disasm(args) -> int:
    from .ebpf.disassembler import disassemble

    names = {helper_id: name for name, helper_id in HELPER_IDS.items()}
    print(disassemble(_read_bytecode(args.bytecode), names))
    return 0


def _cmd_verify(args) -> int:
    from .ebpf.verifier import VerifierConfig, VerifierError, verify

    program = _read_bytecode(args.bytecode)
    config = VerifierConfig(
        allow_loops=not args.no_loops,
        allowed_helpers=set(HELPER_IDS.values()),
    )
    try:
        verify(program, config)
    except VerifierError as exc:
        print(f"REJECTED: {exc}")
        return 1
    print(f"OK: {len(program)} instructions verified")
    return 0


def _cmd_fig1(args) -> int:
    from .eval import fig1

    print(fig1.render_table())
    return 0


def _cmd_fig4(args) -> int:
    from .bgp.roa import make_roas_for_prefixes
    from .eval import fig4
    from .workload import RibGenerator, origins_of

    routes = RibGenerator(n_routes=args.routes, seed=args.seed).generate()
    roas = None
    if args.feature == "origin_validation":
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=args.seed)
    result = fig4.run_cell(
        args.implementation, args.feature, routes, roas, runs=args.runs, engine=args.engine
    )
    print(fig4.render_table([result], args.routes, args.runs))
    return 0


def _cmd_gen_table(args) -> int:
    from .bgp.prefix import parse_ipv4
    from .mrt import MrtPeer, RibEntry, write_table
    from .workload import RibGenerator, build_updates

    routes = RibGenerator(n_routes=args.routes, seed=args.seed).generate()
    peer_address = parse_ipv4("10.0.0.9")
    updates = build_updates(routes, next_hop=peer_address, session="ebgp", sender_asn=65100)
    written = 0

    def entries():
        # Streamed into write_table one record at a time, so a full
        # 724k-route table never materializes as RibEntry rows.
        nonlocal written
        for update in updates:
            for prefix in update.nlri:
                written += 1
                yield RibEntry(prefix, 0, args.timestamp, update.attributes)

    with open(args.output, "wb") as handle:
        write_table(
            handle,
            [MrtPeer(peer_address, peer_address, 65100)],
            entries(),
            timestamp=args.timestamp,
        )
    print(f"wrote {written} RIB entries to {args.output}")
    return 0


def _cmd_loc(args) -> int:
    from .eval import loc_report

    print(loc_report.render_table())
    return 0


def _merge_stats(args) -> int:
    """Offline aggregation: merge registry snapshots from files.

    Accepts both raw mergeable snapshots (``MetricsRegistry.snapshot``
    output) and full ``xbgp stats`` JSON documents (their ``registry``
    key) — the same merge core the sharded replay uses in-process.
    """
    import json as _json

    from .telemetry import merge_into, render_prometheus, snapshot_registry
    from .telemetry.metrics import MetricsRegistry

    snapshots = []
    for path in args.merge:
        with open(path) as handle:
            try:
                document = _json.load(handle)
            except _json.JSONDecodeError as exc:
                raise SystemExit(f"xbgp stats: {path}: not JSON ({exc})")
        if isinstance(document, dict) and "registry" in document:
            document = document["registry"]
        if not isinstance(document, dict) or "families" not in document:
            raise SystemExit(
                f"xbgp stats: {path}: neither a registry snapshot nor a "
                "stats document with a 'registry' key"
            )
        snapshots.append(document)
    merged = MetricsRegistry()
    try:
        for snapshot in snapshots:
            merge_into(merged, snapshot)
    except ValueError as exc:
        raise SystemExit(f"xbgp stats: merge failed: {exc}")
    sections: List[str] = []
    if args.format in ("prom", "both"):
        sections.append(render_prometheus(merged))
    if args.format in ("json", "both"):
        sections.append(_json.dumps(snapshot_registry(merged), indent=2) + "\n")
    output = "".join(sections)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
        print(f"# merged stats written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(output)
    return 0


def _diff_stats(args) -> int:
    """``xbgp stats --diff A B``: what changed between two runs."""
    import json as _json

    from .telemetry.timeseries import (
        diff_samples,
        load_snapshot_source,
        render_diff,
    )

    before_path, after_path = args.diff
    try:
        before = load_snapshot_source(before_path)
        after = load_snapshot_source(after_path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"xbgp stats: {exc}")
    diff = diff_samples(before, after)
    if args.format == "json":
        output = _json.dumps(diff, indent=2, sort_keys=True) + "\n"
    else:
        output = render_diff(diff) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
        print(f"# diff written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(output)
    print(
        f"# {len(diff['changes'])} changed series, "
        f"{len(diff['added_families'])} added / "
        f"{len(diff['removed_families'])} removed families",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args) -> int:
    """Run one convergence scenario and expose its telemetry."""
    import json as _json

    from .bgp.roa import make_roas_for_prefixes
    from .sim.harness import ConvergenceHarness
    from .workload import RibGenerator, origins_of

    if args.merge and args.diff:
        raise SystemExit("xbgp stats: --merge and --diff are exclusive")
    if args.merge:
        return _merge_stats(args)
    if args.diff:
        return _diff_stats(args)
    routes = RibGenerator(n_routes=args.routes, seed=args.seed).generate()
    roas = None
    if args.feature == "origin_validation":
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=args.seed)
    if args.quarantine_after < 0:
        raise SystemExit("xbgp stats: --quarantine-after must be >= 0")
    harness = ConvergenceHarness(
        args.implementation,
        args.feature,
        args.mode,
        routes,
        roas,
        engine=args.engine,
        quarantine_after=args.quarantine_after,
    )
    elapsed = harness.run()
    telemetry = harness.dut.vmm.telemetry
    if args.health:
        # Quarantine / circuit-breaker state only (ExtensionHealth).
        rows = telemetry.health.snapshot()
        if not rows:
            print("no extensions attached")
            return 0
        header = f"{'POINT':<24} {'EXTENSION':<20} {'STATE':<10} {'ERRS':>5} {'SKIPPED':>8} {'QUARANTINES':>12}"
        print(header)
        for row in rows:
            print(
                f"{row['point']:<24} {row['extension']:<20} {row['state']:<10} "
                f"{row['consecutive_errors']:>5} {row['skipped']:>8} "
                f"{row['quarantine_count']:>12}"
            )
        quarantined = harness.dut.vmm.quarantined_codes()
        print(
            f"# {len(rows)} extension(s), {len(quarantined)} quarantined"
            + (f": {', '.join(map(str, quarantined))}" if quarantined else "")
        )
        return 0
    if args.trace_out:
        count = telemetry.trace.export_jsonl(args.trace_out)
        print(f"# wrote {count} trace events to {args.trace_out}", file=sys.stderr)
    sections: List[str] = []
    if args.format in ("prom", "both"):
        sections.append(telemetry.render_prometheus())
    if args.format in ("json", "both"):
        snapshot = telemetry.snapshot()
        snapshot["run"] = {
            "implementation": args.implementation,
            "feature": args.feature,
            "mode": args.mode,
            "engine": args.engine,
            "routes": args.routes,
            "elapsed_seconds": elapsed,
            "vmm": {
                "codes": harness.dut.vmm.stats(),
                "points": harness.dut.vmm.point_stats(),
                "quarantined": harness.dut.vmm.quarantined_codes(),
            },
        }
        sections.append(_json.dumps(snapshot, indent=2) + "\n")
    output = "".join(sections)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
        print(f"# stats written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(output)
    return 0


def _cmd_events(args) -> int:
    """Tail / filter / validate / convert a JSONL event log."""
    import json as _json

    from .telemetry.events import (
        EventSchemaError,
        filter_events,
        read_events,
        render_event,
        rotated_paths,
        validate_jsonl,
    )

    if args.validate:
        # A rotated log is a pair (events.jsonl.1 then events.jsonl);
        # validate whatever portion of the pair exists, oldest first.
        paths = rotated_paths(args.log)
        valid, errors = 0, []
        for path in paths:
            try:
                file_valid, file_errors = validate_jsonl(path)
            except OSError as exc:
                raise SystemExit(f"xbgp events: {exc}")
            valid += file_valid
            errors.extend(f"{path}: {error}" for error in file_errors)
        for error in errors:
            print(error, file=sys.stderr)
        suffix = f" across {len(paths)} file(s)" if len(paths) > 1 else ""
        print(f"# {valid} valid event(s), {len(errors)} error(s){suffix}")
        return 1 if errors else 0
    try:
        events = read_events(args.log)
    except OSError as exc:
        raise SystemExit(f"xbgp events: {exc}")
    except EventSchemaError as exc:
        raise SystemExit(f"xbgp events: {exc}")
    kinds = [k for part in args.type for k in part.split(",") if k] or None
    events = filter_events(events, kinds=kinds, shard=args.shard)
    if args.tail:
        events = events[-args.tail:]
    if args.format == "text":
        for event in events:
            print(render_event(event))
    elif args.format == "jsonl":
        for event in events:
            print(_json.dumps(event))
    else:
        print(_json.dumps(events, indent=2))
    print(f"# {len(events)} event(s)", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    """Reconstruct the causal chain behind one prefix (provenance)."""
    import json as _json

    from .bgp.prefix import Prefix
    from .sim.harness import build_explain_scenario

    try:
        prefix = Prefix.parse(args.prefix)
    except ValueError as exc:
        raise SystemExit(f"xbgp explain: bad prefix {args.prefix!r}: {exc}")
    network, up, dut, down = build_explain_scenario(
        args.implementation, prefix, engine=args.engine
    )
    routers = {"up": up, "dut": dut, "down": down}
    tracker = routers[args.router].provenance
    if args.output:
        count = tracker.export_jsonl(args.output)
        print(f"# wrote {count} provenance records to {args.output}", file=sys.stderr)
    if args.json:
        print(_json.dumps(tracker.explain(prefix), indent=2))
    else:
        print(tracker.render_explain(prefix))
    return 0


def _cmd_spans(args) -> int:
    """Print (or export) the cross-router span tree for one prefix."""
    from .bgp.prefix import Prefix
    from .sim.harness import build_explain_scenario

    try:
        prefix = Prefix.parse(args.prefix)
    except ValueError as exc:
        raise SystemExit(f"xbgp spans: bad prefix {args.prefix!r}: {exc}")
    network, up, dut, down = build_explain_scenario(
        args.implementation, prefix, engine=args.engine
    )
    routers = (("up", up), ("dut", dut), ("down", down))
    if args.output:
        from .telemetry.records import write_jsonl

        total = write_jsonl(
            (
                {"node": name, **span}
                for name, daemon in routers
                for span in daemon.provenance.spans.spans()
            ),
            args.output,
        )
        print(f"# wrote {total} spans to {args.output}", file=sys.stderr)
        return 0
    for name, daemon in routers:
        recorder = daemon.provenance.spans
        print(f"{name} ({daemon.provenance.router}): {len(recorder)} span(s)")
        for span in recorder.spans():
            duration = span.get("end", span["start"]) - span["start"]
            detail = " ".join(
                f"{key}={span[key]}"
                for key in ("peer", "prefix", "point", "extension", "outcome")
                if span.get(key) is not None
            )
            print(
                f"  [{span['trace']}] {span['span']} "
                f"<- {span['parent'] or 'root'} {span['kind']} "
                f"({duration * 1000:.3f}ms){' ' + detail if detail else ''}"
            )
    return 0


def _cmd_fuzz(args) -> int:
    """Run a differential fuzzing campaign (see repro.fuzz)."""
    import json as _json

    from .fuzz import FuzzRunner

    oracles = tuple(part.strip() for part in args.oracles.split(",") if part.strip())
    try:
        runner = FuzzRunner(
            seed=args.seed,
            iterations=args.iterations,
            time_budget=args.time_budget,
            oracles=oracles,
            corpus_dir=args.corpus,
            minimize=not args.no_minimize,
        )
    except ValueError as exc:
        raise SystemExit(f"xbgp fuzz: {exc}")
    report = runner.run()
    rendered = _json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(rendered + "\n")
        print(f"# report written to {args.report}", file=sys.stderr)
    print(rendered)
    summary = (
        f"# {report['iterations_run']} cases "
        f"({', '.join(f'{k}={v}' for k, v in report['cases'].items())}) "
        f"in {report['elapsed_seconds']}s: "
        f"{len(report['divergences'])} unique divergence(s)"
    )
    print(summary, file=sys.stderr)
    return 1 if report["divergences"] else 0


_SCENARIO_FEATURES = {
    "route-reflection": "route_reflection",
    "origin-validation": "origin_validation",
    "full-table": "plain",
}


def _scenario_routes(args):
    """Resolve the scenario's route table once per CLI invocation.

    bench builds a fresh harness per run; caching on the parsed-args
    namespace keeps a 724k-route table from being regenerated (or an
    MRT dump re-read) for every repetition.
    """
    routes = getattr(args, "_routes_cache", None)
    if routes is None:
        if getattr(args, "mrt", None):
            from .workload import iter_routes_from_mrt

            routes = list(iter_routes_from_mrt(args.mrt))
            args.routes = len(routes)  # report the true table size
        else:
            from .workload import RibGenerator

            routes = RibGenerator(n_routes=args.routes, seed=args.seed).generate()
        args._routes_cache = routes
    return routes


def _scenario_harness(args, profiling=False, events=None, progress=None):
    """Build a ConvergenceHarness for a profile/bench scenario slug."""
    from .bgp.roa import make_roas_for_prefixes
    from .sim.harness import ConvergenceHarness
    from .workload import origins_of

    feature = _SCENARIO_FEATURES[args.scenario]
    routes = _scenario_routes(args)
    roas = None
    if feature == "origin_validation":
        roas = make_roas_for_prefixes(origins_of(routes), 0.75, seed=args.seed)
    # "plain" carries no extension; run it as the native baseline so the
    # full-table scenario measures the batched/sharded pipeline itself.
    mode = "native" if feature == "plain" else "extension"
    # Run fields this subcommand has a flag for; the rest keep the
    # RunSpec defaults.
    fields = {
        name: getattr(args, name)
        for name in ("batch", "shards", "quarantine_after", "inject_crasher")
        if hasattr(args, name)
    }
    return ConvergenceHarness(
        args.impl,
        feature,
        mode,
        routes,
        roas,
        engine=args.engine,
        profiling=profiling,
        # bench/profile only need timings and counts: keep per-route
        # state in the workers instead of marshalling 724k-entry
        # snapshots through the Pool pipe.
        collect="summary",
        shard_telemetry=getattr(args, "telemetry", False),
        events=events,
        progress=progress,
        timeseries_every=getattr(args, "_timeseries_every", 0),
        **fields,
    )


def _cmd_profile(args) -> int:
    """Profile one scenario: phases, hotspots, collapsed stacks."""
    import json as _json

    from .telemetry.aggregate import select

    harness = _scenario_harness(args, profiling=True)
    elapsed = harness.run()
    profiler = harness.dut.profiler
    if args.flamegraph:
        count = profiler.export_collapsed(args.flamegraph, weights=args.weights)
        print(
            f"# wrote {count} collapsed-stack lines to {args.flamegraph}",
            file=sys.stderr,
        )
    if args.format == "json":
        report = profiler.report(top=args.top)
        report["run"] = {
            "scenario": args.scenario,
            "implementation": args.impl,
            "engine": args.engine,
            "routes": args.routes,
            "elapsed_seconds": elapsed,
        }
        # The VMM's own instruction counters, for cross-checking that
        # profile sums match what telemetry already counted.
        registry, _ = harness.run_registry()
        _, rows = select(registry.snapshot(), "xbgp_extension_instructions")
        report["telemetry_instructions"] = {
            f"{labels['point']}/{labels['extension']}": row["value"]
            for labels, row in rows
        }
        report["tiers"] = harness.dut.vmm.tiers()
        print(_json.dumps(report, indent=2))
    else:
        print(profiler.render(top=args.top))
        tiers = harness.dut.vmm.tiers()
        if tiers:
            print()
            print("tier attribution:")
            for name, entry in sorted(tiers.items()):
                line = f"  {name:<24} {entry['tier']}"
                done = entry.get("compiled")
                if done:
                    line += (
                        f"  {done['shape']}"
                        f"  [{done['structured_blocks']} structured,"
                        f" {done['tail_blocks']} tail,"
                        f" {done['dispatch_only_blocks']} dispatch-only blocks,"
                        f" {done['loops']} loops,"
                        f" {done['direct_stack_ops']} direct stack ops]"
                    )
                    if done["declined"]:
                        line += f"  (declined: {done['declined']})"
                print(line)
        if args.listing:
            for profile in profiler.profiles():
                print()
                print(f"== {profile.point}/{profile.extension} ({profile.engine}) ==")
                print(profiler.annotated_listing(profile.point, profile.extension))
    return 0


def _write_shard_profiles(args) -> None:
    """One extra profiled run after the timed ones; write per-shard
    profile reports (or the single DUT's report) as JSON artifacts."""
    import json as _json
    import os as _os

    harness = _scenario_harness(args, profiling=True)
    harness.run()
    _os.makedirs(args.profile_dir, exist_ok=True)
    if harness.shard_result is not None:
        for report in harness.shard_result.per_shard:
            path = _os.path.join(
                args.profile_dir, f"shard-{report['shard']}-profile.json"
            )
            with open(path, "w") as handle:
                _json.dump(
                    {
                        "shard": report["shard"],
                        "routes": report["routes"],
                        "updates": report["updates"],
                        "batches": report["batches"],
                        "build_seconds": report["build_seconds"],
                        "replay_seconds": report["replay_seconds"],
                        "profile": report["profile"],
                        "stats": report["stats"],
                    },
                    handle,
                    indent=2,
                    sort_keys=True,
                )
            print(f"# wrote {path}", file=sys.stderr)
    else:
        path = _os.path.join(args.profile_dir, "profile.json")
        with open(path, "w") as handle:
            _json.dump(
                harness.dut.profiler.report(top=10), handle, indent=2, sort_keys=True
            )
        print(f"# wrote {path}", file=sys.stderr)


def _bench_alert_engine(args):
    """Parse ``--alert`` / ``--alert-rules`` into an AlertEngine (or
    None when no rule was given, so rule-free benches stay rule-free)."""
    from .telemetry.alerts import AlertEngine, AlertRuleError, load_rules, parse_rule

    rules = []
    try:
        for expression in getattr(args, "alert", None) or []:
            rules.append(parse_rule(expression))
        if getattr(args, "alert_rules", None):
            rules.extend(load_rules(args.alert_rules))
    except AlertRuleError as exc:
        raise SystemExit(f"xbgp bench: {exc}")
    except OSError as exc:
        raise SystemExit(f"xbgp bench: {exc}")
    if not rules:
        return None
    try:
        return AlertEngine(rules)
    except AlertRuleError as exc:
        raise SystemExit(f"xbgp bench: {exc}")


def _bench_telemetry_plane(args, alert_engine=None):
    """Build the optional bench observability plane.

    Returns ``(event_log, on_heartbeat, exporter)`` — all ``None`` when
    neither ``--serve`` nor ``--events`` was given, so the default bench
    path carries zero telemetry-plane cost.  With ``--serve`` the
    exporter also serves ``/alerts`` (the engine's rule table) and, when
    ``--timeseries`` is on, a live ``/timeseries`` fed by parent-side
    samples of the progress registry on every worker heartbeat.
    """
    import threading
    import time as _time

    if getattr(args, "serve", None) is None and not getattr(args, "events", None):
        return None, None, None
    from .telemetry import EventLog, ReplayProgress, TelemetryExporter
    from .telemetry.metrics import MetricsRegistry
    from .telemetry.timeseries import TimeSeriesSampler

    event_log = EventLog(args.events) if getattr(args, "events", None) else None
    if alert_engine is not None and event_log is not None:
        alert_engine.events = event_log
    live_registry = MetricsRegistry()
    progress = ReplayProgress(live_registry)
    sampler = None
    if getattr(args, "timeseries", None) is not None:
        # Live temporal feed: the progress gauges, sampled at most once
        # a second while heartbeats arrive.
        sampler = TimeSeriesSampler(
            live_registry, every_seconds=1.0, labels={"source": "progress"}
        )
    exporter = None
    if getattr(args, "serve", None) is not None:
        exporter = TelemetryExporter(
            registry=live_registry,
            health=lambda: [],
            events=event_log,
            alerts=alert_engine,
            timeseries=sampler.series if sampler is not None else None,
            port=args.serve,
        ).start()
        print(f"# serving telemetry on {exporter.url('/')}", file=sys.stderr)
    lock = exporter.lock if exporter is not None else threading.RLock()
    last_line = [0.0]

    def on_heartbeat(event):
        with lock:
            progress.on_event(event)
            if sampler is not None:
                sampler.maybe_sample()
        now = _time.monotonic()
        if now - last_line[0] >= 1.0 or event.get("event") == "replay_finish":
            last_line[0] = now
            print(f"# {progress.render()}", file=sys.stderr)

    return event_log, on_heartbeat, exporter


def _cmd_bench(args) -> int:
    """Run one scenario ``--runs`` times and print a JSON summary."""
    import json as _json
    import statistics

    from .telemetry.aggregate import select

    if args.runs < 1:
        raise SystemExit("xbgp bench: --runs must be >= 1")
    timeseries_on = getattr(args, "timeseries", None) is not None
    if timeseries_on:
        args._timeseries_every = max(1, getattr(args, "timeseries_every", 200))
        if getattr(args, "shards", 1) > 1 and not args.telemetry:
            # Worker-side sampling rides the telemetry channel.
            print("# --timeseries implies --telemetry", file=sys.stderr)
            args.telemetry = True
    alert_engine = _bench_alert_engine(args)
    # Built before the telemetry plane, so a refused run field (a
    # RunSpec ValueError) leaves no exporter or event log behind.
    try:
        warm = _scenario_harness(args)
    except ValueError as exc:
        raise SystemExit(f"xbgp bench: {exc}")
    event_log, on_heartbeat, exporter = _bench_telemetry_plane(args, alert_engine)
    warm.run()  # warm (JIT translation, allocator)
    wall = []
    for _ in range(args.runs):
        harness = _scenario_harness(
            args, events=event_log, progress=on_heartbeat
        )
        wall.append(harness.run())
    final_series = harness.timeseries
    sources = harness.run_registry()
    if exporter is not None:
        if sources is not None:
            registry, health_rows = sources
            exporter.replace_sources(registry=registry, health=health_rows)
        if final_series:
            # /timeseries switches from the live progress feed to the
            # merged (shard-labeled) worker series of the last run.
            exporter.replace_sources(timeseries=final_series)
    if alert_engine is not None:
        alert_engine.evaluate(final_series or [])
        for row in alert_engine.firing():
            print(
                f"# ALERT [{row['severity']}] {row['rule']}"
                f" value={row['value']}",
                file=sys.stderr,
            )
    if timeseries_on and args.timeseries:
        from .telemetry.timeseries import write_timeseries

        count = write_timeseries(final_series or [], args.timeseries)
        print(
            f"# wrote {count} time-series sample(s) to {args.timeseries}",
            file=sys.stderr,
        )
    instructions = 0
    if sources is not None:
        _, rows = select(sources[0].snapshot(), "xbgp_extension_instructions")
        instructions = sum(int(row["value"]) for _, row in rows)
    median = statistics.median(wall)
    summary = {
        "scenario": f"{args.scenario}-{args.impl}-{args.engine}",
        "runs": len(wall),
        "routes": args.routes,
        "median_wall_seconds": median,
        "routes_per_second": args.routes / median if median > 0 else 0.0,
        "instructions": instructions,
        "implementation": args.impl,
        "engine": args.engine,
        "seed": args.seed,
        "batch": getattr(args, "batch", 1),
        "shards": getattr(args, "shards", 1),
    }
    if alert_engine is not None:
        summary["alerts_fired"] = alert_engine.ever_fired()
    if harness.shard_result is not None:
        summary["per_shard"] = [
            {
                "shard": s["shard"],
                "routes": s["routes"],
                "updates": s["updates"],
                "batches": s["batches"],
                "build_seconds": s["build_seconds"],
                "replay_seconds": s["replay_seconds"],
            }
            for s in harness.shard_result.per_shard
        ]
    print(_json.dumps(summary, indent=2, sort_keys=True))
    if getattr(args, "profile_dir", None):
        _write_shard_profiles(args)
    exit_code = 0
    if alert_engine is not None:
        critical = alert_engine.ever_fired("critical")
        if critical:
            print(
                "# ALERT GATE: critical rule(s) fired: "
                + ", ".join(critical),
                file=sys.stderr,
            )
            exit_code = 1
    if exporter is not None:
        linger = getattr(args, "serve_linger", 0.0) or 0.0
        if linger > 0:
            # Keep /metrics scrapeable after the run (CI smoke curls it
            # here; a human can inspect the merged registry).
            import time as _time

            print(
                f"# exporter lingering {linger:.0f}s on {exporter.url('/')}",
                file=sys.stderr,
            )
            _time.sleep(linger)
        exporter.stop()
    if event_log is not None:
        event_log.close()
        print(f"# {event_log.recorded} event(s) -> {args.events}", file=sys.stderr)
    return exit_code


def _cmd_top(args) -> int:
    """``xbgp top``: live dashboard over /timeseries or a JSONL file."""
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from .telemetry.dashboard import render_dashboard
    from .telemetry.timeseries import read_timeseries

    if bool(args.file) == bool(args.url):
        raise SystemExit(
            "xbgp top: give a recorded time-series FILE or --url, not both"
        )

    def _fetch_json(url):
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                return _json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # /health answers 503 (with a JSON body) while degraded;
            # that body is exactly what the dashboard should show.
            return _json.loads(exc.read().decode("utf-8"))

    def _frame() -> str:
        if args.file:
            samples = read_timeseries(args.file)
            alerts = health = None
            source = args.file
        else:
            base = args.url.rstrip("/")
            doc = _fetch_json(base + "/timeseries?limit=128")
            samples = doc.get("samples", [])
            alerts = _fetch_json(base + "/alerts")
            health = _fetch_json(base + "/health")
            source = base
        return render_dashboard(samples, alerts, health, source=source)

    try:
        frame = _frame()
    except (OSError, ValueError) as exc:
        raise SystemExit(f"xbgp top: {exc}")
    if args.once:
        print(frame)
        return 0
    try:
        while True:
            sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
            sys.stdout.flush()
            _time.sleep(args.interval)
            try:
                frame = _frame()
            except (OSError, ValueError) as exc:
                frame = f"xbgp top: {exc} (retrying)"
    except KeyboardInterrupt:
        print()
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xbgp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile xc source to eBPF bytecode")
    p.add_argument("source", help="xc source file")
    p.add_argument("-o", "--output", help="write hex/disasm here (default stdout)")
    p.add_argument("--disasm", action="store_true", help="emit disassembly, not hex")
    p.add_argument(
        "-D", dest="define", action="append", default=[], metavar="NAME=VALUE",
        help="predefine a constant (repeatable)",
    )
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("disasm", help="disassemble bytecode hex")
    p.add_argument("bytecode", help="file holding hex bytecode")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("verify", help="verify bytecode hex")
    p.add_argument("bytecode", help="file holding hex bytecode")
    p.add_argument("--no-loops", action="store_true", help="reject back-edges")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fig1", help="print the Fig. 1 CDF")
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig4", help="run one Fig. 4 cell")
    p.add_argument("--implementation", choices=["frr", "bird"], default="frr")
    p.add_argument(
        "--feature",
        choices=["route_reflection", "origin_validation"],
        default="route_reflection",
    )
    p.add_argument("--engine", choices=TIERS, default="jit")
    p.add_argument("--routes", type=int, default=2500)
    p.add_argument("--runs", type=int, default=7)
    p.add_argument("--seed", type=int, default=20200604)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("gen-table", help="write a synthetic MRT table dump")
    p.add_argument("output", help="MRT file to write")
    p.add_argument("--routes", type=int, default=10000)
    p.add_argument("--seed", type=int, default=20200604)
    p.add_argument("--timestamp", type=int, default=1_591_228_800)  # 2020-06-04
    p.set_defaults(fn=_cmd_gen_table)

    p = sub.add_parser("loc", help="print the glue LoC report")
    p.set_defaults(fn=_cmd_loc)

    p = sub.add_parser("stats", help="run one scenario, print VMM telemetry")
    p.add_argument("--implementation", choices=["frr", "bird"], default="frr")
    p.add_argument(
        "--feature",
        choices=["route_reflection", "origin_validation", "plain"],
        default="route_reflection",
    )
    p.add_argument("--mode", choices=["extension", "native"], default="extension")
    p.add_argument("--engine", choices=TIERS, default="jit")
    p.add_argument("--routes", type=int, default=500)
    p.add_argument("--seed", type=int, default=20200604)
    p.add_argument(
        "--format", choices=["prom", "json", "both"], default="both",
        help="exposition format (default: both)",
    )
    p.add_argument(
        "--quarantine-after", type=int, default=0, metavar="N",
        help="quarantine an extension after N consecutive errors (0: never)",
    )
    p.add_argument(
        "--health", action="store_true",
        help="print only quarantine/circuit-breaker state per extension",
    )
    p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="also export the trace ring as JSON Lines",
    )
    p.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="write the exposition to FILE instead of stdout",
    )
    p.add_argument(
        "--merge", nargs="+", metavar="SNAPSHOT", default=None,
        help="skip the scenario: merge these registry snapshot files "
        "(raw snapshots or stats JSON documents) and print the result",
    )
    p.add_argument(
        "--diff", nargs=2, metavar=("BEFORE", "AFTER"), default=None,
        help="skip the scenario: diff two runs (registry snapshots, "
        "stats JSON documents or time-series JSONL files) and print "
        "what moved (--format json for machine-readable output)",
    )
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("events", help="tail/filter/validate a JSONL event log")
    p.add_argument("log", help="event log file (JSON Lines)")
    p.add_argument(
        "--type", action="append", default=[], metavar="KIND",
        help="keep only these event types (repeatable, comma-splittable)",
    )
    p.add_argument(
        "--shard", type=int, default=None,
        help="keep only events from this shard",
    )
    p.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="keep only the last N events after filtering",
    )
    p.add_argument(
        "--format", choices=["text", "jsonl", "json"], default="text",
        help="output rendering (default: text)",
    )
    p.add_argument(
        "--validate", action="store_true",
        help="schema-check every line; exit 1 if any is invalid",
    )
    p.set_defaults(fn=_cmd_events)

    p = sub.add_parser(
        "explain", help="reconstruct why a prefix is (not) in the Loc-RIB"
    )
    p.add_argument("prefix", help="prefix to explain, e.g. 198.51.100.0/24")
    p.add_argument("--implementation", choices=["frr", "bird"], default="frr")
    p.add_argument("--engine", choices=TIERS, default="jit")
    p.add_argument(
        "--router", choices=["up", "dut", "down"], default="dut",
        help="whose provenance to read (default: the route reflector DUT)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON, not text")
    p.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="also export the router's full provenance as JSON Lines",
    )
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("spans", help="print the cross-router span tree")
    p.add_argument("prefix", help="prefix to trace, e.g. 198.51.100.0/24")
    p.add_argument("--implementation", choices=["frr", "bird"], default="frr")
    p.add_argument("--engine", choices=TIERS, default="jit")
    p.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="export every router's spans as JSON Lines instead of text",
    )
    p.set_defaults(fn=_cmd_spans)

    p = sub.add_parser("fuzz", help="run a differential fuzzing campaign")
    p.add_argument("--iterations", type=int, default=200, help="case budget")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new cases after this many seconds",
    )
    p.add_argument(
        "--oracles", default="codec,engine,host",
        help="comma-separated subset of codec,engine,host",
    )
    p.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write minimized divergence entries to this directory",
    )
    p.add_argument("--report", default=None, metavar="FILE", help="also write the JSON report here")
    p.add_argument(
        "--no-minimize", action="store_true",
        help="skip ddmin minimization of divergent cases",
    )
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "profile", help="profile one scenario: phases, hotspots, flamegraph"
    )
    p.add_argument(
        "--scenario", choices=sorted(_SCENARIO_FEATURES), default="route-reflection"
    )
    p.add_argument("--impl", choices=["frr", "bird"], default="frr")
    p.add_argument("--engine", choices=TIERS, default="jit")
    p.add_argument("--routes", type=int, default=400)
    p.add_argument("--seed", type=int, default=20200604)
    p.add_argument(
        "--batch", type=int, default=1,
        help="UPDATEs decoded and processed per batch (1: sequential)",
    )
    p.add_argument("--top", type=int, default=10, help="hotspots per extension")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--listing", action="store_true",
        help="append the full annotated disassembly per extension (text mode)",
    )
    p.add_argument(
        "--flamegraph", metavar="FILE", default=None,
        help="write a collapsed-stack file (speedscope / flamegraph.pl)",
    )
    p.add_argument(
        "--weights", choices=["instructions", "time"], default="instructions",
        help="collapsed-stack weights (default: instructions)",
    )
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "bench", help="run one scenario N times; print a JSON summary"
    )
    p.add_argument(
        "--scenario", choices=sorted(_SCENARIO_FEATURES), default="route-reflection"
    )
    p.add_argument("--impl", choices=["frr", "bird"], default="frr")
    p.add_argument("--engine", choices=TIERS, default="jit")
    p.add_argument("--routes", type=int, default=400)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=20200604)
    p.add_argument(
        "--batch", type=int, default=1,
        help="UPDATEs decoded and processed per batch (1: sequential)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="worker processes the table is partitioned across by prefix range",
    )
    p.add_argument(
        "--mrt", metavar="FILE", default=None,
        help="replay this MRT table dump instead of generating --routes",
    )
    p.add_argument(
        "--profile-dir", metavar="DIR", default=None,
        help="after the timed runs, run once profiled and write "
        "per-shard profile JSON artifacts here",
    )
    p.add_argument(
        "--telemetry", action="store_true",
        help="run shard workers with telemetry on and merge their "
        "registries/breakers/trace tails into the parent",
    )
    p.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve /metrics, /health and /events over HTTP during the "
        "run (0: ephemeral port); live progress gauges while replaying, "
        "the merged registry afterwards",
    )
    p.add_argument(
        "--serve-linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the exporter up this long after the bench finishes",
    )
    p.add_argument(
        "--events", metavar="FILE", default=None,
        help="stream schema'd lifecycle events to this JSONL file",
    )
    p.add_argument(
        "--timeseries", nargs="?", const="", default=None, metavar="FILE",
        help="sample the metric registry periodically during the replay "
        "(serving /timeseries with --serve); with FILE, also write the "
        "final merged samples as JSON Lines",
    )
    p.add_argument(
        "--timeseries-every", type=int, default=200, metavar="N",
        help="take a sample every N replayed messages (default 200)",
    )
    p.add_argument(
        "--alert", action="append", default=[], metavar="EXPR",
        help="declarative alert rule, e.g. "
        "'xbgp_quarantine_transitions > 0' or "
        "'warning: xbgp_extension_run_seconds p95 > 0.001 for 5s' "
        "(repeatable); a fired critical rule makes the bench exit 1",
    )
    p.add_argument(
        "--alert-rules", metavar="FILE", default=None,
        help="load alert rules from FILE (one expression per line, "
        "# comments allowed)",
    )
    p.add_argument(
        "--quarantine-after", type=int, default=0, metavar="N",
        help="arm the workers' circuit breaker: quarantine an extension "
        "after N consecutive errors (0: never)",
    )
    p.add_argument(
        "--inject-crasher", action="store_true",
        help="attach the deliberately crashing 'faulty' filter to the "
        "DUT (fault-injection drill for the quarantine alert path)",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "top", help="live ANSI dashboard over /timeseries or a JSONL file"
    )
    p.add_argument(
        "file", nargs="?", default=None,
        help="recorded time-series JSONL file (from bench --timeseries)",
    )
    p.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a live exporter (e.g. http://127.0.0.1:9179)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2s)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    p.set_defaults(fn=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "routes", 1) < 1:
        raise SystemExit(f"xbgp {args.command}: --routes must be >= 1")
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `xbgp disasm ... | head`
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
