"""Unit tests for the xbgp command-line tools."""

import io
import sys

import pytest

from repro.cli import main


@pytest.fixture
def xc_file(tmp_path):
    path = tmp_path / "filter.xc"
    path.write_text(
        """
        u64 f(u64 args) {
            u64 peer = get_peer_info();
            if (peer == 0) { next(); }
            if (*(u32 *)(peer) != EBGP_SESSION) { next(); }
            if (*(u32 *)(peer + 4) == BAD_AS) { return FILTER_REJECT; }
            next();
        }
        """
    )
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestCompile:
    def test_compile_to_hex(self, xc_file, tmp_path, capsys):
        out = tmp_path / "prog.hex"
        code, _ = run_cli(
            ["compile", str(xc_file), "-o", str(out), "-D", "BAD_AS=65500"], capsys
        )
        assert code == 0
        blob = bytes.fromhex(out.read_text().strip())
        assert len(blob) % 8 == 0 and len(blob) > 0

    def test_compile_disasm(self, xc_file, capsys):
        code, output = run_cli(
            ["compile", str(xc_file), "--disasm", "-D", "BAD_AS=65500"], capsys
        )
        assert code == 0
        assert "call get_peer_info" in output
        assert "exit" in output

    def test_bad_define_rejected(self, xc_file, capsys):
        with pytest.raises(SystemExit):
            main(["compile", str(xc_file), "-D", "BROKEN"])


class TestVerifyDisasm:
    def test_verify_ok(self, xc_file, tmp_path, capsys):
        out = tmp_path / "prog.hex"
        main(["compile", str(xc_file), "-o", str(out), "-D", "BAD_AS=1"])
        capsys.readouterr()
        code, output = run_cli(["verify", str(out)], capsys)
        assert code == 0 and "OK" in output

    def test_verify_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.hex"
        bad.write_text("ff00000000000000")  # unknown opcode, no exit
        code, output = run_cli(["verify", str(bad)], capsys)
        assert code == 1 and "REJECTED" in output

    def test_disasm_roundtrip(self, xc_file, tmp_path, capsys):
        out = tmp_path / "prog.hex"
        main(["compile", str(xc_file), "-o", str(out), "-D", "BAD_AS=1"])
        capsys.readouterr()
        code, output = run_cli(["disasm", str(out)], capsys)
        assert code == 0 and "call" in output


class TestReports:
    def test_fig1(self, capsys):
        code, output = run_cli(["fig1"], capsys)
        assert code == 0 and "median" in output

    def test_loc(self, capsys):
        code, output = run_cli(["loc"], capsys)
        assert code == 0 and "FRR/BIRD" in output

    def test_gen_table_roundtrips(self, tmp_path, capsys):
        out = tmp_path / "table.mrt"
        code, output = run_cli(
            ["gen-table", str(out), "--routes", "50", "--seed", "3"], capsys
        )
        assert code == 0 and "50 RIB entries" in output
        from repro.mrt import read_table

        with open(out, "rb") as handle:
            peers, entries = read_table(handle)
        assert len(entries) == 50
        assert peers[0].asn == 65100

    def test_fig4_small_run(self, capsys):
        code, output = run_cli(
            [
                "fig4",
                "--implementation",
                "bird",
                "--feature",
                "route_reflection",
                "--engine",
                "pyext",
                "--routes",
                "60",
                "--runs",
                "2",
            ],
            capsys,
        )
        assert code == 0
        assert "route_reflection" in output and "impact" in output


class TestStats:
    def test_stats_prometheus_output(self, capsys):
        code, output = run_cli(
            ["stats", "--routes", "40", "--format", "prom"], capsys
        )
        assert code == 0
        assert "# TYPE xbgp_extension_executions counter" in output
        assert 'extension="rr_import"' in output
        assert "xbgp_extension_instructions_total" in output
        assert "xbgp_extension_run_seconds_bucket" in output
        assert 'xbgp_sessions{implementation="frr"} 2' in output

    def test_stats_json_output(self, capsys):
        import json

        code, output = run_cli(
            ["stats", "--routes", "40", "--format", "json"], capsys
        )
        assert code == 0
        snapshot = json.loads(output)
        assert snapshot["run"]["routes"] == 40
        codes = snapshot["run"]["vmm"]["codes"]
        assert codes["rr_import"]["executions"] == 40
        assert codes["rr_import"]["errors"] == 0
        points = snapshot["run"]["vmm"]["points"]
        assert points["bgp_inbound_filter"]["fallbacks"] == 0
        assert "xbgp_extension_run_seconds" in snapshot["metrics"]

    def test_stats_trace_export(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.jsonl"
        code, output = run_cli(
            [
                "stats",
                "--routes",
                "20",
                "--format",
                "json",
                "--trace-out",
                str(trace_file),
            ],
            capsys,
        )
        assert code == 0
        events = [
            json.loads(line) for line in trace_file.read_text().splitlines()
        ]
        assert events
        assert {event["kind"] for event in events} <= {
            "enter", "exit", "next", "default", "skip", "fallback", "quarantine",
        }

    def test_stats_output_file_honors_every_format(self, tmp_path, capsys):
        # --output diverts the exposition to a file: stdout stays empty
        # and the file holds exactly what --format selects.
        import json

        for fmt in ("prom", "json", "both"):
            out = tmp_path / f"stats.{fmt}"
            code, piped = run_cli(
                [
                    "stats", "--routes", "20", "--format", fmt,
                    "--output", str(out),
                ],
                capsys,
            )
            assert code == 0 and piped == ""
            written = out.read_text()
            has_prom = "# TYPE xbgp_extension_executions counter" in written
            has_json = '"elapsed_seconds"' in written
            assert has_prom == (fmt in ("prom", "both"))
            assert has_json == (fmt in ("json", "both"))
        # The json arm parses cleanly on its own.
        snapshot = json.loads((tmp_path / "stats.json").read_text())
        assert snapshot["run"]["routes"] == 20
        assert snapshot["run"]["vmm"]["codes"]["rr_import"]["executions"] == 20


class TestStatsMerge:
    def make_snapshot(self, tmp_path, name, routes):
        path = tmp_path / name
        code = main(
            [
                "stats", "--routes", str(routes), "--format", "json",
                "--output", str(path),
            ]
        )
        assert code == 0
        return path

    def test_merge_doubles_counters(self, tmp_path, capsys):
        import json

        path = self.make_snapshot(tmp_path, "one.json", 30)
        capsys.readouterr()
        code, output = run_cli(
            ["stats", "--merge", str(path), str(path), "--format", "prom"],
            capsys,
        )
        assert code == 0
        line = next(
            l
            for l in output.splitlines()
            if l.startswith("xbgp_extension_executions_total")
            and 'extension="rr_import"' in l
        )
        assert line.endswith(" 60")  # 30 + 30

        # JSON output is itself a mergeable snapshot (closure).
        code, output = run_cli(
            ["stats", "--merge", str(path), str(path), "--format", "json"],
            capsys,
        )
        merged = json.loads(output)
        assert merged["snapshot_version"] == 1
        assert "xbgp_extension_executions" in merged["families"]

    def test_merge_accepts_raw_registry_snapshots(self, tmp_path, capsys):
        import json

        stats_path = self.make_snapshot(tmp_path, "doc.json", 20)
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(
            json.dumps(json.loads(stats_path.read_text())["registry"])
        )
        capsys.readouterr()
        code, output = run_cli(
            ["stats", "--merge", str(stats_path), str(raw_path), "--format", "prom"],
            capsys,
        )
        assert code == 0
        assert "xbgp_extension_executions_total" in output

    def test_merge_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}')
        with pytest.raises(SystemExit, match="neither a registry snapshot"):
            main(["stats", "--merge", str(bogus)])


class TestEvents:
    def write_log(self, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        events = [
            {"event": "replay_start", "ts": 1.0, "shards": 2, "routes": 100},
            {"event": "shard_start", "ts": 1.1, "shard": 0, "routes": 60},
            {"event": "shard_start", "ts": 1.1, "shard": 1, "routes": 40},
            {"event": "shard_finish", "ts": 2.0, "shard": 0, "routes": 60,
             "replay_seconds": 0.9},
            {"event": "shard_finish", "ts": 2.1, "shard": 1, "routes": 40,
             "replay_seconds": 1.0},
            {"event": "replay_finish", "ts": 2.2, "shards": 2, "routes": 100,
             "wall_seconds": 1.2},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return path

    def test_text_rendering_and_filters(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        code, output = run_cli(["events", str(path)], capsys)
        assert code == 0
        assert len(output.splitlines()) == 6

        code, output = run_cli(
            ["events", str(path), "--type", "shard_finish", "--shard", "1"],
            capsys,
        )
        assert code == 0
        lines = output.splitlines()
        assert len(lines) == 1 and "shard=1" in lines[0]

        code, output = run_cli(["events", str(path), "--tail", "2"], capsys)
        assert code == 0
        assert "replay_finish" in output.splitlines()[-1]

    def test_jsonl_and_json_formats(self, tmp_path, capsys):
        import json

        path = self.write_log(tmp_path)
        code, output = run_cli(
            ["events", str(path), "--format", "jsonl", "--type", "shard_start"],
            capsys,
        )
        assert code == 0
        rows = [json.loads(line) for line in output.splitlines()]
        assert [r["shard"] for r in rows] == [0, 1]

        code, output = run_cli(["events", str(path), "--format", "json"], capsys)
        assert len(json.loads(output)) == 6

    def test_validate_clean_and_dirty(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        code, output = run_cli(["events", str(path), "--validate"], capsys)
        assert code == 0
        assert "6 valid event(s), 0 error(s)" in output

        with path.open("a") as handle:
            handle.write('{"event": "bogus", "ts": 1.0}\n')
        code, output = run_cli(["events", str(path), "--validate"], capsys)
        assert code == 1
        assert "1 error(s)" in output

    def test_invalid_log_without_validate_exits(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SystemExit, match="not JSON"):
            main(["events", str(path)])

    def test_bench_streams_a_valid_event_log(self, tmp_path, capsys):
        log = tmp_path / "bench-events.jsonl"
        code, _ = run_cli(
            [
                "bench", "--scenario", "full-table", "--routes", "200",
                "--shards", "2", "--runs", "1", "--telemetry",
                "--events", str(log),
            ],
            capsys,
        )
        assert code == 0
        code, output = run_cli(["events", str(log), "--validate"], capsys)
        assert code == 0 and "0 error(s)" in output
        code, output = run_cli(
            ["events", str(log), "--type", "replay_finish", "--format", "jsonl"],
            capsys,
        )
        import json

        rows = [json.loads(line) for line in output.splitlines()]
        assert rows and rows[-1]["routes"] == 200


class TestExplainAndSpans:
    def test_explain_reconstructs_causal_chain(self, capsys):
        # Bytecode engine: attribute writes flow through the recorded
        # xBGP API, so the chain shows the RR stamping its attributes.
        code, output = run_cli(["explain", "198.51.100.0/24"], capsys)
        assert code == 0
        assert "198.51.100.0/24 on 10.0.0.1" in output
        assert "learned from 10.0.1.1 (ibgp)" in output
        assert "set_attr(ORIGINATOR_ID)" in output
        assert "export -> 10.0.2.2: advertise" in output

    def test_explain_json_and_jsonl_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "prov.jsonl"
        code, output = run_cli(
            [
                "explain", "198.51.100.0/24", "--engine", "pyext",
                "--json", "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(output)
        assert report["prefix"] == "198.51.100.0/24"
        assert report["stories"]
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert {record["type"] for record in records} == {
            "story", "span", "convergence",
        }

    def test_explain_downstream_router_view(self, capsys):
        code, output = run_cli(
            [
                "explain", "198.51.100.0/24", "--engine", "pyext",
                "--router", "down",
            ],
            capsys,
        )
        assert code == 0
        assert "198.51.100.0/24 on 10.0.2.2" in output
        # The downstream story rides the originator's trace.
        assert "[trace 10.0.1.1#" in output

    def test_explain_rejects_bad_prefix(self, capsys):
        with pytest.raises(SystemExit):
            main(["explain", "not-a-prefix"])

    def test_spans_share_one_trace_across_routers(self, capsys):
        code, output = run_cli(
            ["spans", "198.51.100.0/24", "--engine", "pyext"], capsys
        )
        assert code == 0
        for node in ("up (10.0.1.1)", "dut (10.0.0.1)", "down (10.0.2.2)"):
            assert node in output
        trace_ids = {
            line.split("]")[0].split("[")[1]
            for line in output.splitlines()
            if "[" in line
        }
        assert trace_ids == {"10.0.1.1#1"}

    def test_spans_jsonl_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "spans.jsonl"
        code, _ = run_cli(
            [
                "spans", "198.51.100.0/24", "--engine", "pyext",
                "--output", str(out),
            ],
            capsys,
        )
        assert code == 0
        spans = [json.loads(line) for line in out.read_text().splitlines()]
        assert {span["node"] for span in spans} == {"up", "dut", "down"}
        assert {span["trace"] for span in spans} == {"10.0.1.1#1"}


class TestProfile:
    def test_profile_text_output(self, capsys):
        code, output = run_cli(["profile", "--routes", "40", "--top", "3"], capsys)
        assert code == 0
        assert "phase breakdown (wall clock):" in output
        assert "bgp_inbound_filter" in output
        assert "rr_import" in output
        assert "rr_export" in output

    def test_profile_json_hotspots_sum_to_telemetry(self, capsys):
        import json

        code, output = run_cli(
            [
                "profile", "--scenario", "route-reflection", "--impl", "frr",
                "--format", "json", "--routes", "40",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(output)
        counted = report["telemetry_instructions"]
        assert report["extensions"]
        for extension in report["extensions"]:
            key = f"{extension['point']}/{extension['extension']}"
            assert extension["instructions"] == counted[key] > 0

    def test_profile_flamegraph_export(self, tmp_path, capsys):
        out = tmp_path / "collapsed.txt"
        code, _ = run_cli(
            ["profile", "--routes", "40", "--flamegraph", str(out)], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames.count(";") >= 3
            assert weight.isdigit()

    def test_stats_health_prints_breaker_table(self, capsys):
        code, output = run_cli(["stats", "--health", "--routes", "40"], capsys)
        assert code == 0
        assert "STATE" in output
        assert "rr_import" in output
        assert "closed" in output
        assert "0 quarantined" in output


class TestBench:
    def test_bench_record_compare_and_regression_gate(self, tmp_path, capsys):
        import json

        baseline_dir = tmp_path / "baselines"
        argv = ["bench", "--routes", "40", "--runs", "2"]
        code, output = run_cli(argv + ["--record", str(baseline_dir)], capsys)
        assert code == 0
        path = baseline_dir / "BENCH_route-reflection-frr-jit.json"
        record = json.loads(path.read_text())
        assert record["schema_version"] == 1
        assert record["runs"] == 2
        assert record["median_wall_seconds"] > 0
        assert record["instructions"] > 0

        code, _ = run_cli(argv + ["--compare", str(baseline_dir)], capsys)
        assert code == 0

        # Synthetic slowdown: shrink the recorded baseline median far
        # past any run-to-run noise — the gate must trip.  (A mere 2x
        # shrink flaked: a warm compare run can be >25% faster than
        # the just-recorded median, slipping under the 1.5x gate.)
        record["median_wall_seconds"] /= 100.0
        path.write_text(json.dumps(record))
        code, _ = run_cli(
            argv + ["--compare", str(baseline_dir), "--threshold", "0.5"], capsys
        )
        assert code == 1

    def test_bench_compare_missing_baseline_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "bench", "--routes", "40", "--runs", "1",
                    "--compare", str(tmp_path / "nope"),
                ]
            )

    def test_bench_full_table_scenario_records_shards(self, tmp_path, capsys):
        import json

        code, output = run_cli(
            [
                "bench", "--scenario", "full-table", "--impl", "frr",
                "--routes", "300", "--runs", "1",
                "--batch", "32", "--shards", "2",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(output)
        assert record["scenario"] == "full-table-frr-jit"
        assert record["batch"] == 32 and record["shards"] == 2
        per_shard = record["per_shard"]
        assert len(per_shard) == 2
        assert sum(shard["routes"] for shard in per_shard) == 300
        assert all(shard["batches"] >= 1 for shard in per_shard)

    def test_bench_profile_dir_writes_per_shard_artifacts(self, tmp_path, capsys):
        import json

        profile_dir = tmp_path / "profiles"
        code, _ = run_cli(
            [
                "bench", "--scenario", "full-table", "--impl", "frr",
                "--routes", "200", "--runs", "1",
                "--batch", "32", "--shards", "2",
                "--profile-dir", str(profile_dir),
            ],
            capsys,
        )
        assert code == 0
        artifacts = sorted(profile_dir.iterdir())
        assert [path.name for path in artifacts] == [
            "shard-0-profile.json",
            "shard-1-profile.json",
        ]
        for path in artifacts:
            report = json.loads(path.read_text())
            assert report["profile"]["phases"]
            assert report["replay_seconds"] > 0

    def test_bench_replays_mrt_table(self, tmp_path, capsys):
        import json

        table = tmp_path / "table.mrt"
        main(["gen-table", str(table), "--routes", "120", "--seed", "3"])
        capsys.readouterr()
        code, output = run_cli(
            [
                "bench", "--scenario", "full-table", "--impl", "bird",
                "--runs", "1", "--batch", "16",
                "--mrt", str(table),
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(output)
        assert record["routes"] == 120  # table size, not the --routes default


class TestGenTableDeterminism:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.mrt", tmp_path / "b.mrt"
        for path in (a, b):
            code, output = run_cli(
                ["gen-table", str(path), "--routes", "80", "--seed", "11"], capsys
            )
            assert code == 0 and "80 RIB entries" in output
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_tables(self, tmp_path, capsys):
        a, b = tmp_path / "a.mrt", tmp_path / "b.mrt"
        main(["gen-table", str(a), "--routes", "80", "--seed", "11"])
        main(["gen-table", str(b), "--routes", "80", "--seed", "12"])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()


class TestStatsDiff:
    def _record(self, tmp_path, capsys, name, routes):
        path = tmp_path / name
        code, _ = run_cli(
            [
                "stats", "--routes", str(routes), "--format", "json",
                "-o", str(path),
            ],
            capsys,
        )
        assert code == 0
        return path

    def test_diff_between_two_runs(self, tmp_path, capsys):
        small = self._record(tmp_path, capsys, "small.json", 60)
        large = self._record(tmp_path, capsys, "large.json", 120)
        code, output = run_cli(
            ["stats", "--diff", str(small), str(large), "--format", "prom"],
            capsys,
        )
        assert code == 0
        assert "xbgp_extension_executions" in output
        assert "->" in output

    def test_diff_of_identical_runs_is_empty(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys, "run.json", 60)
        code, output = run_cli(
            ["stats", "--diff", str(path), str(path), "--format", "prom"],
            capsys,
        )
        assert code == 0
        assert "no differences" in output

    def test_diff_json_output(self, tmp_path, capsys):
        import json

        small = self._record(tmp_path, capsys, "small.json", 60)
        large = self._record(tmp_path, capsys, "large.json", 120)
        code, output = run_cli(
            ["stats", "--diff", str(small), str(large), "--format", "json"],
            capsys,
        )
        assert code == 0
        diff = json.loads(output)
        assert {"added_families", "removed_families", "changes"} <= set(diff)
        assert any(
            row["family"] == "xbgp_extension_executions"
            for row in diff["changes"]
        )

    def test_diff_rejects_junk(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text('{"hello": "world"}')
        with pytest.raises(SystemExit, match="not a registry snapshot"):
            main(["stats", "--diff", str(junk), str(junk)])

    def test_diff_and_merge_are_exclusive(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="exclusive"):
            main(
                [
                    "stats", "--merge", str(path),
                    "--diff", str(path), str(path),
                ]
            )


class TestEventsRotatedValidate:
    def test_validate_accepts_rotated_pair(self, tmp_path, capsys):
        from repro.telemetry.events import EventLog

        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), max_bytes=400, clock=lambda: 1.0)
        emitted = 0
        while log.rotations == 0:
            log.emit("shard_start", shard=emitted, routes=10)
            emitted += 1
            assert emitted < 100
        log.emit("shard_start", shard=emitted, routes=10)
        emitted += 1
        log.close()
        assert (tmp_path / "events.jsonl.1").exists()

        code, output = run_cli(["events", str(path), "--validate"], capsys)
        assert code == 0
        assert f"{emitted} valid event(s), 0 error(s) across 2 file(s)" in output

    def test_validate_reports_which_file_is_dirty(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        sibling = tmp_path / "events.jsonl.1"
        sibling.write_text('{"event": "bogus", "ts": 1.0}\n')
        path.write_text(
            '{"event": "shard_start", "ts": 1.0, "shard": 0, "routes": 5}\n'
        )
        code, _ = run_cli(["events", str(path), "--validate"], capsys)
        assert code == 1


class TestBenchTimeseriesAndAlerts:
    def test_bench_records_timeseries_jsonl(self, tmp_path, capsys):
        from repro.telemetry.timeseries import counter_total, read_timeseries

        out = tmp_path / "ts.jsonl"
        code, _ = run_cli(
            [
                "bench", "--scenario", "full-table",
                "--routes", "240", "--runs", "1", "--batch", "32",
                "--shards", "2", "--timeseries", str(out),
                "--timeseries-every", "50",
            ],
            capsys,
        )
        assert code == 0
        samples = read_timeseries(str(out))
        assert samples
        final = samples[-1]
        # Shard-labeled merged series: both shards contributed.
        assert counter_total(
            final, "xbgp_batches_flushed", {"shard": "0"}
        ) is not None
        assert counter_total(
            final, "xbgp_batches_flushed", {"shard": "1"}
        ) is not None

    def test_quiet_alert_keeps_exit_zero_and_lands_in_record(
        self, tmp_path, capsys
    ):
        import json

        code, output = run_cli(
            [
                "bench", "--routes", "40", "--runs", "1", "--timeseries",
                "--alert", "xbgp_quarantine_transitions > 0",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(output)
        assert record["alerts_fired"] == []

    def test_crasher_drill_trips_the_alert_gate(self, tmp_path, capsys):
        import json

        log = tmp_path / "events.jsonl"
        code, output = run_cli(
            [
                "bench", "--routes", "60", "--runs", "1", "--timeseries",
                "--alert", "xbgp_quarantine_transitions > 0",
                "--inject-crasher", "--quarantine-after", "3",
                "--events", str(log),
            ],
            capsys,
        )
        assert code == 1
        record = json.loads(output)
        assert record["alerts_fired"] == [
            "critical: xbgp_quarantine_transitions > 0"
        ]
        # The fire is also a schema'd event in the log.
        code, _ = run_cli(["events", str(log), "--validate"], capsys)
        assert code == 0
        code, output = run_cli(
            ["events", str(log), "--type", "alert_fire", "--format", "jsonl"],
            capsys,
        )
        rows = [json.loads(line) for line in output.splitlines()]
        assert rows and rows[0]["severity"] == "critical"

    def test_alert_rules_file_and_bad_rule_rejected(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("# no quarantines allowed\nxbgp_quarantine_transitions > 0\n")
        code, _ = run_cli(
            [
                "bench", "--routes", "40", "--runs", "1", "--timeseries",
                "--alert-rules", str(rules),
            ],
            capsys,
        )
        assert code == 0
        with pytest.raises(SystemExit, match="cannot parse"):
            main(["bench", "--routes", "40", "--runs", "1", "--alert", "bogus ~ 1"])


class TestTop:
    def _timeseries_file(self, tmp_path):
        import json

        from repro.telemetry.aggregate import snapshot_registry
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.timeseries import make_sample

        registry = MetricsRegistry()
        samples = []
        for seq, ts in enumerate((0.0, 1.0, 2.0), 1):
            registry.counter("xbgp_updates", "updates").inc(10)
            samples.append(make_sample(snapshot_registry(registry), ts, seq))
        path = tmp_path / "ts.jsonl"
        path.write_text("".join(json.dumps(s) + "\n" for s in samples))
        return path

    def test_top_once_renders_file(self, tmp_path, capsys):
        path = self._timeseries_file(tmp_path)
        code, output = run_cli(["top", str(path), "--once"], capsys)
        assert code == 0
        assert "xbgp top" in output
        assert "samples 3" in output
        assert "xbgp_updates" in output

    def test_top_once_renders_live_exporter(self, tmp_path, capsys):
        from repro.telemetry.aggregate import snapshot_registry
        from repro.telemetry.alerts import AlertEngine, parse_rule
        from repro.telemetry.exporter import TelemetryExporter
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.timeseries import TimeSeries, make_sample

        registry = MetricsRegistry()
        registry.counter("xbgp_updates", "updates").inc(5)
        series = TimeSeries()
        series.append(snapshot_registry(registry), 1.0)
        engine = AlertEngine([parse_rule("xbgp_updates > 0")])
        engine.observe(make_sample(snapshot_registry(registry), 1.0))
        with TelemetryExporter(
            registry=registry, alerts=engine, timeseries=series
        ) as exporter:
            code, output = run_cli(
                ["top", "--url", exporter.url(""), "--once"], capsys
            )
        assert code == 0
        assert "samples 1" in output
        assert "CRITICAL" in output
        assert "health degraded" in output

    def test_top_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            main(["top", "--once"])
        with pytest.raises(SystemExit, match="not both"):
            main(["top", "x.jsonl", "--url", "http://localhost:1", "--once"])
