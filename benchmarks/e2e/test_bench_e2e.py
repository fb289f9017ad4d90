"""Self-tests of the e2e benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1
collects ``tests/`` only).  Tiny sizes, through ``XBGP_E2E_SHRINK``:
the point is that every name of the contract is printed, the inputs are
a function of the seed, and a wrong result is counted, not how fast
anything is.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# 300 routes on the Fig. 4 workloads; names.py reads it when imported,
# here and in every run.py this file starts.
os.environ["XBGP_E2E_SHRINK"] = "20"
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import names  # noqa: E402
import run  # noqa: E402
from isolate import run_isolated  # noqa: E402
from trials import crashed_trial, run_trial  # noqa: E402
from workloads import feed_sha256, generate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ALL = list(names.WORKLOADS)
NATIVE = ("rr-native-frr", "churn-native-bird", "full-table-sharded")


def run_benchmark(*arguments):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    spans = tmp_path_factory.mktemp("e2e") / "spans.json"
    completed = run_benchmark("--seconds", "0", "--trace", "1", "--out", str(spans))
    assert completed.returncode == 0, completed.stderr
    with open(spans) as handle:
        return completed.stdout, json.load(handle)


def blocks(stdout):
    """The printed report, split per workload."""
    found = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("workload "):
            current = line.split()[1]
            found[current] = []
        elif current is not None and not line.startswith("{"):
            found[current].append(line)
    return found


def test_contract_file(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert set(names.ROUTES) == set(ALL)
    for entry in contract["workloads"] + contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
    for workload in contract["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_metric_is_printed_with_its_unit(contract, full_run):
    stdout, _ = full_run
    report = blocks(stdout)
    assert list(report) == [w["name"] for w in contract["workloads"]]
    for name, lines in report.items():
        text = "\n".join(lines)
        for metric in contract["end_to_end"]:
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+[0-9.]+ {re.escape(metric['unit'])}\s", text, re.M
            ), (name, metric["name"])
        assert re.search(r"^\s+failed_share\s+0\.0+ fraction", text, re.M), name
        for layer in names.PER_LAYER:
            printed = re.search(
                rf"^\s+{re.escape(layer.name)}\s+-?[0-9.]+ {re.escape(layer.unit)}(\s|$)", text, re.M
            )
            assert bool(printed) == names.layer_applies(layer, name), (name, layer.name)

    summary = json.loads(stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    expected = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for name in ALL:
        assert {k: v["unit"] for k, v in summary["metrics"][name].items()} == expected


def test_the_vm_is_idle_exactly_where_it_should_be(full_run):
    summary = json.loads(full_run[0].splitlines()[-1])["metrics"]
    for name in ALL:
        busy = summary[name]["core.vm_busy_s"]["value"]
        assert (busy == 0) == (name in NATIVE), (name, busy)
        for metric, entry in summary[name].items():
            if metric.startswith(("mrt.", "scale.")) and name != "full-table-sharded":
                assert entry["value"] == 0, (name, metric)
    assert summary["full-table-sharded"]["mrt.parse_s"]["value"] > 0


def test_span_file(full_run):
    _, document = full_run
    spans = document["spans"]
    assert {"id", "name", "start", "end", "parent", "trial"} == set(spans[0])
    by_key = {(span["trial"], span["id"]): span for span in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_key[(span["trial"], span["parent"])]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    assert {span["trial"].split("/")[0] for span in spans} == set(ALL)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_invocation(contract, trace):
    completed = run_benchmark(
        "--workload", "ov-ext-bird", "--seed", "7", "--seconds", "1", "--trace", trace
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = contract["per_layer"] if trace == "1" else contract["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted
    }
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_aa_repeats_the_counts_exactly():
    completed = run_benchmark("--aa", "--seconds", "0", "--workload", "rr-ext-frr")
    assert "A/A: distance between the two sets' values" in completed.stdout
    # Timing agreement is not asserted at 300 routes; the counts are.
    assert "must repeat exactly" not in completed.stdout
    assert completed.returncode in (0, 1)


def test_same_seed_same_bytes(tmp_path):
    def digests(seed, directory):
        inputs = generate(ALL, seed, str(tmp_path / directory))
        return {name: feed_sha256(inputs[name]) for name in ALL}

    first, again, other = digests(11, "a"), digests(11, "b"), digests(12, "c")
    assert first == again
    assert all(first[name] != other[name] for name in ALL)
    assert first["rr-ext-frr"] == first["rr-native-frr"]  # the same feed bytes


def test_a_wrong_expectation_is_counted_as_failure(tmp_path):
    inputs = generate(ALL, 5, str(tmp_path))

    def failed(candidate):
        result, error = run_isolated(lambda: run_trial(candidate), 60)
        assert error is None
        return result["failed"], result["problems"]

    for name in ALL:
        assert failed(inputs[name]) == (0, []), name

    rr = inputs["rr-ext-frr"]
    missing = frozenset(list(rr.expect["prefixes"])[1:])
    assert failed(rr._replace(expect={"prefixes": missing}))[0] >= 1

    ov = inputs["ov-ext-bird"]
    split = dict(ov.expect["validity"], VALID=ov.expect["validity"]["VALID"] + 3)
    assert failed(ov._replace(expect={**ov.expect, "validity": split}))[0] == 3

    churn = inputs["churn-native-bird"]
    winners = dict(churn.expect["winners"])
    prefix = next(iter(winners))
    winners[prefix] = 65100 if winners[prefix] == 65300 else 65300
    count, problems = failed(churn._replace(expect={**churn.expect, "winners": winners}))
    assert count == 1 and "generator's model" in problems[0]

    table = inputs["full-table-sharded"]
    assert failed(table._replace(prefixes=table.prefixes + 2))[0] == 4


def test_a_dead_or_stuck_trial_fails_every_route(tmp_path):
    inputs = generate(["ov-ext-bird"], 5, str(tmp_path))["ov-ext-bird"]

    def dies():
        raise RuntimeError("boom")

    result, error = run_isolated(dies, 30)
    assert result is None and "wait status" in error
    assert crashed_trial(inputs, error)["failed"] == inputs.routes

    started = time.monotonic()
    result, error = run_isolated(lambda: time.sleep(30), 0.3)
    assert result is None and "timeout" in error
    assert time.monotonic() - started < 5


def test_a_pair_without_a_healthy_sibling_fails_the_digest_check(tmp_path):
    inputs = generate(["rr-ext-frr"], 5, str(tmp_path))
    healthy, error = run_isolated(lambda: run_trial(inputs["rr-ext-frr"]), 60)
    assert error is None
    outcome = {
        "rr-ext-frr": {"trials": [healthy]},
        "rr-native-frr": {"trials": [crashed_trial(inputs["rr-native-frr"], "boom")]},
    }
    row = run.end_to_end(inputs, outcome, ["rr-ext-frr"])["rr-ext-frr"]
    assert row["failed"] == inputs["rr-ext-frr"].routes
    assert "no healthy rr-native-frr trial" in row["problems"][0]


def test_no_knob_slated_for_deletion_is_named_here():
    knobs = re.compile(
        r"hot_path|fast_path|lazy_heap|ship_intern_table"
        r"""|["']?\b(tier|engine)\b["']?\s*[=:]"""
    )
    for entry in sorted(os.listdir(HERE)):
        path = os.path.join(HERE, entry)
        if not os.path.isfile(path) or entry == os.path.basename(__file__):
            continue
        with open(path, errors="replace") as handle:
            for number, line in enumerate(handle, start=1):
                assert not knobs.search(line), f"{entry}:{number}: {line.strip()}"
