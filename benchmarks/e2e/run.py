#!/usr/bin/env python3
"""The repo benchmark: one command, every number.

    python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--seconds S] [--trace 0|1] [--aa] [--out FILE]

Five route-replay workloads, the end-to-end metrics of each, and (with
``--trace 1``) a per-layer ledger timed from outside.  README.md in this
directory has the tables; BENCHMARK.json at the repo root is the contract.

The last line of standard output is one JSON object.  Called with one
``--workload`` it is the object the benchmark driver reads:
``{"correct", "attempted", "failed", "metrics"}``, the metrics being the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
#: Generated files (the MRT table) live here for the length of one run;
#: one directory per process, so concurrent runs leave each other alone.
WORKDIR = os.path.join(HERE, ".work", str(os.getpid()))

#: A trial child that has not reported by then is killed and counted as
#: failed; the slowest healthy trial is a few seconds.
TRIAL_TIMEOUT_S = 120.0
#: However short the ``--seconds`` budget, never fewer trials than this.
MIN_TRIALS = 3


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from names import DEFAULT_SEED, RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--workload", choices=WORKLOADS, default=None,
        help="run one workload (default: all five, interleaved round-robin)",
    )
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="spend this long on each workload's trials, at least "
        f"{MIN_TRIALS} of them (default %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: one extra traced trial per workload; prints the per-layer ledger",
    )
    parser.add_argument(
        "--aa", action="store_true",
        help="the traced run twice on the same code; fail unless the two agree",
    )
    parser.add_argument("--out", default=None, help="write spans and results as JSON")
    return parser.parse_args(argv)


# -- one set of trials -------------------------------------------------------


def run_set(inputs, selected: Sequence[str], args, traced: bool) -> Dict[str, Dict[str, object]]:
    """Trials of every selected workload, interleaved round-robin so
    machine drift hits all of them alike.  Returns per workload its
    trial results, and with ``traced`` the traced trial and spans."""
    from isolate import run_isolated
    from ledger import Tracer, probe_layers
    from names import SIBLING
    from trials import crashed_trial, run_trial

    # A sibling that was not selected still runs: once, as the reference
    # its partner's digest is compared with; in a traced run as often as
    # its partner, because the ledger's extension-vs-native numbers need
    # both walls, and then the two share the one time box.
    order = list(selected)
    seconds = {name: args.seconds for name in selected}
    for name in selected:
        sibling = SIBLING.get(name)
        if sibling is not None and sibling not in order:
            order.append(sibling)
            if traced:
                seconds[name] = seconds[sibling] = args.seconds / 2

    state = {name: {"trials": [], "spent": 0.0, "last": 0.0} for name in order}

    def done(name: str) -> bool:
        entry = state[name]
        if name not in seconds:
            return len(entry["trials"]) >= 1
        return (
            len(entry["trials"]) >= MIN_TRIALS
            and entry["spent"] + entry["last"] > seconds[name]
        )

    while not all(done(name) for name in order):
        for name in order:
            if done(name):
                continue
            started = perf_counter()
            result, error = run_isolated(
                lambda: run_trial(inputs[name]), TRIAL_TIMEOUT_S
            )
            entry = state[name]
            entry["last"] = perf_counter() - started
            entry["spent"] += entry["last"]
            if error is not None:
                print(f"# {name}: {error}", file=sys.stderr)
                result = crashed_trial(inputs[name], error)
            entry["trials"].append(result)

    outcome: Dict[str, Dict[str, object]] = {
        name: {"trials": state[name]["trials"]} for name in order
    }
    if traced:
        for name in selected:
            tracer = Tracer(name + "/traced")

            def traced_body(tracer=tracer, name=name):
                result = run_trial(inputs[name], tracer)
                return result, tracer.spans

            traced_result, error = run_isolated(traced_body, TRIAL_TIMEOUT_S)
            if error is None:
                probe = Tracer(name + "/probe")

                def probe_body(probe=probe, name=name):
                    return probe_layers(inputs[name], probe), probe.spans

                probed, error = run_isolated(probe_body, TRIAL_TIMEOUT_S)
            if error is not None:
                print(f"# {name}: traced run: {error}", file=sys.stderr)
                outcome[name]["trials"].append(crashed_trial(inputs[name], error))
                continue
            outcome[name]["traced"] = traced_result[0]
            outcome[name]["counts"] = probed[0]
            outcome[name]["spans"] = traced_result[1] + probed[1]
    return outcome


# -- trials -> named metrics -----------------------------------------------------


def end_to_end(inputs, outcome, selected: Sequence[str]) -> Dict[str, Dict[str, object]]:
    """Per workload: the end-to-end metrics over its healthy trials and
    the failure count of all of them."""
    from names import SIBLING

    report: Dict[str, Dict[str, object]] = {}
    for name in selected:
        routes = inputs[name].routes
        trials = outcome[name]["trials"]
        healthy = [trial for trial in trials if not trial.get("crashed")]
        failed = sum(trial["failed"] for trial in trials)
        problems = [problem for trial in trials for problem in trial["problems"]]

        sibling = SIBLING.get(name)
        if sibling is not None:
            digests = {
                member: {
                    trial["digest"]
                    for trial in outcome[member]["trials"]
                    if not trial.get("crashed")
                }
                for member in (name, sibling)
            }
            if not digests[sibling]:
                failed += routes
                problems.append(f"{name}: no healthy {sibling} trial to compare with")
            elif len(digests[name] | digests[sibling]) > 1:
                failed += routes
                problems.append(
                    f"{name}: Loc-RIB or downstream prefix set differs from {sibling}'s"
                )

        row: Dict[str, object] = {
            "routes": routes,
            "trials": len(trials),
            "healthy": len(healthy),
            "attempted": routes * len(trials),
            "failed": failed,
            "problems": problems,
            "metrics": {},
            "detail": {},
        }
        if healthy:
            # Every number is the plain median of the trials.
            row["wall_s"] = statistics.median(trial["wall_s"] for trial in healthy)
            for metric, (key, convert) in {
                "routes_per_s": ("wall_s", lambda seconds: routes / seconds),
                "cpu_us_per_route": ("cpu_s", lambda seconds: seconds * 1e6 / routes),
                "peak_rss_mb": ("peak_rss_bytes", lambda size: size / 2**20),
                "setup_s": ("setup_s", lambda seconds: seconds),
            }.items():
                samples = [trial[key] for trial in healthy]
                row["metrics"][metric] = convert(statistics.median(samples))
                row["detail"][metric] = sorted((convert(min(samples)), convert(max(samples))))
        row["metrics"]["failed_share"] = failed / row["attempted"]
        report[name] = row
    return report


def per_layer(inputs, outcome, report, selected: Sequence[str]) -> Dict[str, Dict[str, float]]:
    from ledger import layer_metrics
    from names import SIBLING

    ledgers: Dict[str, Dict[str, float]] = {}
    for name in selected:
        if "traced" not in outcome[name] or "wall_s" not in report[name]:
            continue
        pair_walls = None
        sibling = SIBLING.get(name)
        if sibling is not None:
            sibling_walls = [
                trial["wall_s"] for trial in outcome[sibling]["trials"] if not trial.get("crashed")
            ]
            if sibling_walls:
                pair_walls = {
                    name: report[name]["wall_s"],
                    sibling: statistics.median(sibling_walls),
                }
        ledgers[name] = layer_metrics(
            inputs[name],
            outcome[name]["traced"],
            outcome[name]["spans"],
            outcome[name]["counts"],
            report[name]["wall_s"],
            pair_walls,
        )
    return ledgers


# -- printing ----------------------------------------------------------------------


def print_report(report, ledgers, outcome) -> None:
    from ledger import summarise
    from names import END_TO_END, PER_LAYER, UNITS, layer_applies

    for name, row in report.items():
        print(f"workload {name}  routes={row['routes']} trials={row['trials']}")
        metrics = row["metrics"]
        for metric in END_TO_END:
            if metric.name not in metrics:
                continue
            low, high = row["detail"][metric.name]
            line = (
                f"  {metric.name:<18} {metrics[metric.name]:>12.4f} {metric.unit:<9}"
                f" median of {row['healthy']} trials, min {low:.4f}, max {high:.4f}"
            )
            if metric.name == "routes_per_s":
                line += f"; convergence delay {row['wall_s']:.4f} s"
            print(line)
        print(
            f"  {'failed_share':<18} {metrics['failed_share']:>12.6f} {UNITS['failed_share']:<9}"
            f" {row['failed']} of {row['attempted']} routes"
        )
        for problem in row["problems"]:
            print(f"  CHECK FAILED: {problem}")
        ledger = ledgers.get(name)
        if ledger is None:
            continue
        calls = summarise(outcome[name]["spans"]).get("host.receive_raw", {}).get("count", 0)
        print("  per-layer ledger (one traced trial plus direct calls into each layer):")
        for layer in PER_LAYER:
            if not layer_applies(layer, name):
                continue
            note = f" ({calls} receive_raw calls)" if layer.name.startswith("host.update_us") else ""
            print(f"    {layer.name:<40} {ledger[layer.name]:>14.4f} {layer.unit}{note}")


def run_aa(args) -> int:
    """--aa: the same traced command twice, each in a fresh interpreter
    (so both sets fork their trials from the same process image: what a
    trial inherits decides how much of its peak RSS is new), then the
    two result files compared."""
    import subprocess

    from names import END_TO_END, EXACT_COUNTS, SETUP_FLOOR_S

    command = [
        sys.executable, os.path.abspath(__file__), "--trace", "1",
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.workload is not None:
        command += ["--workload", args.workload]
    documents = []
    os.makedirs(WORKDIR, exist_ok=True)
    for label in "AB":
        path = args.out if label == "B" and args.out else os.path.join(WORKDIR, f"set-{label}.json")
        sys.stdout.flush()
        status = subprocess.run(command + ["--out", path]).returncode
        if status not in (0, 1):
            print(f"run.py: set {label} ended with status {status}", file=sys.stderr)
            return status
        with open(path) as handle:
            documents.append(json.load(handle))
    first, second = documents

    disagreements: List[str] = []
    spreads: Dict[str, Dict[str, object]] = {}
    print("A/A: distance between the two sets' values, as a share of the first")
    for name, row in first["end_to_end"].items():
        other = second["end_to_end"][name]
        for metric in END_TO_END:
            if metric.name not in row["metrics"] or metric.name not in other["metrics"]:
                disagreements.append(f"{name} {metric.name}: no healthy trial")
                continue
            a = row["metrics"][metric.name]["value"]
            b = other["metrics"][metric.name]["value"]
            spread = abs(b - a) / a
            spreads.setdefault(name, {})[metric.name] = {"value": spread, "unit": "fraction"}
            agree = spread <= metric.bound or (
                metric.name == "setup_s" and abs(b - a) <= SETUP_FLOOR_S
            )
            print(
                f"  {name:<20} {metric.name:<18} {a:>12.4f} {b:>12.4f}  spread {spread:7.2%}"
                f"  bound {metric.bound:.0%}  {'ok' if agree else 'DISAGREE'}"
            )
            if not agree:
                disagreements.append(f"{name} {metric.name}: spread {spread:.2%}")
        if row["failed"] or other["failed"]:
            disagreements.append(f"{name} failed: {row['failed']} and {other['failed']} routes")
        for count in EXACT_COUNTS:
            a = first["per_layer"].get(name, {}).get(count)
            b = second["per_layer"].get(name, {}).get(count)
            if a is None or a != b:
                disagreements.append(f"{name} {count}: {a} vs {b} (must repeat exactly)")
    for line in disagreements:
        print(f"A/A DISAGREEMENT: {line}")
    rows = [row for document in documents for row in document["end_to_end"].values()]
    print(
        json.dumps(
            {
                "correct": not disagreements,
                "attempted": sum(row["attempted"] for row in rows),
                "failed": sum(row["failed"] for row in rows),
                "metrics": spreads,
            }
        )
    )
    return 1 if disagreements else 0


# -- entry point ---------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program under test is missing: no {SRC}/repro", file=sys.stderr)
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order is part of what a trial does; pin it.
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    args = parse_args(argv)
    try:
        return run_aa(args) if args.aa else run_once(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORKDIR))
        except OSError:
            pass  # another run is using it, or nothing was generated


def run_once(args) -> int:
    from ledger import summarise
    from names import END_TO_END, PER_LAYER, SHRINK, UNITS, WORKLOADS
    from workloads import generate

    selected = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace)
    print(
        f"# xbgp e2e benchmark: seed={args.seed} nproc={os.cpu_count()}"
        f" python={platform.python_version()} traced={int(traced)}"
        + (f" sizes shrunk {SHRINK}x (self-test)" if SHRINK != 1 else "")
    )
    inputs = generate(selected, args.seed, WORKDIR)
    outcome = run_set(inputs, selected, args, traced)
    report = end_to_end(inputs, outcome, selected)
    ledgers = per_layer(inputs, outcome, report, selected) if traced else {}
    print_report(report, ledgers, outcome)

    failed = sum(row["failed"] for row in report.values())
    attempted = sum(row["attempted"] for row in report.values())
    complete = all(
        len(row["metrics"]) > 1 and (not traced or name in ledgers)
        for name, row in report.items()
    )
    correct = failed == 0 and complete

    def with_units(values: Dict[str, float], names) -> Dict[str, Dict[str, object]]:
        return {
            name: {"value": values[name], "unit": UNITS[name]}
            for name in names
            if name in values
        }

    e2e_names = [metric.name for metric in END_TO_END]
    layer_names = [layer.name for layer in PER_LAYER]
    if args.out is not None:
        document = {
            "seed": args.seed,
            "shrink": SHRINK,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "end_to_end": {
                name: {
                    "routes": row["routes"],
                    "trials": row["trials"],
                    "failed": row["failed"],
                    "attempted": row["attempted"],
                    "metrics": with_units(row["metrics"], e2e_names),
                }
                for name, row in report.items()
            },
            "per_layer": {
                name: with_units(ledger, layer_names) for name, ledger in ledgers.items()
            },
            "spans": [
                span for name in selected for span in outcome[name].get("spans", ())
            ],
        }
        document["span_summary"] = summarise(document["spans"])
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")

    summary: Dict[str, object] = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    if args.workload is not None:
        if traced:
            summary["metrics"] = with_units(ledgers.get(args.workload, {}), layer_names)
        else:
            summary["metrics"] = with_units(report[args.workload]["metrics"], e2e_names)
    else:
        summary["metrics"] = {
            name: with_units({**row["metrics"], **ledgers.get(name, {})}, e2e_names + layer_names)
            for name, row in report.items()
        }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
