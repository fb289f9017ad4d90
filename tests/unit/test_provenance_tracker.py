"""Unit tests for repro.telemetry.provenance / spans.

Covers the span recorder (parenting, cross-recorder trace adoption,
eviction accounting), the provenance tracker's story machinery, the
oscillation detector, and the daemon-level toggle that binds the
tracker's hooks into the VMM's steps and back out.
"""

import io
import json

import pytest

from repro.bgp import Prefix
from repro.bgp.prefix import parse_ipv4
from repro.frr import FrrDaemon
from repro.plugins import route_reflector
from repro.telemetry.provenance import ProvenanceTracker, attr_name
from repro.telemetry.spans import SpanRecorder

from test_profiler import _update

PREFIX = Prefix.parse("203.0.113.0/24")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeRoute:
    """The minimum a tracker needs from a route: identity + summary."""

    def __init__(self, key, peer=None):
        self.key = key
        self.source = None
        self.prefix = PREFIX
        self._peer = peer

    def story_key(self):
        return self.key

    def as_path_length(self):
        return 1

    def local_pref(self):
        return 100


class TestSpanRecorder:
    def test_root_span_starts_its_own_trace(self):
        recorder = SpanRecorder("r1")
        span = recorder.start("update")
        assert span["trace"] == span["span"] == "r1#1"
        assert span["parent"] is None

    def test_children_join_parent_trace(self):
        recorder = SpanRecorder("r1")
        root = recorder.start("update")
        child = recorder.start("decision", root)
        assert child["trace"] == root["trace"]
        assert child["parent"] == root["span"]

    def test_ref_adopts_trace_across_recorders(self):
        # The simulator ships (trace, span) refs with the bytes: the
        # receiving router's recorder continues the sender's trace.
        sender = SpanRecorder("a")
        receiver = SpanRecorder("b")
        root = sender.start("export")
        adopted = receiver.start("update", SpanRecorder.ref(root))
        assert adopted["trace"] == root["trace"]
        assert adopted["parent"] == root["span"]
        assert adopted["span"].startswith("b#")

    def test_finish_stamps_end_and_merges_fields(self):
        clock = FakeClock()
        recorder = SpanRecorder("r1", clock=clock)
        span = recorder.start("extension")
        clock.now = 2.5
        recorder.finish(span, outcome="next")
        assert span["end"] == 2.5 and span["outcome"] == "next"

    def test_point_is_instantaneous(self):
        recorder = SpanRecorder("r1")
        span = recorder.point("rib", prefix="p")
        assert span["start"] == span["end"]

    def test_eviction_keeps_newest_and_counts(self):
        recorder = SpanRecorder("r1", capacity=3)
        for _ in range(10):
            recorder.start("update")
        assert len(recorder) == 3
        assert recorder.recorded == 10
        assert recorder.evicted == 7
        assert recorder.stats()["buffered"] == 3

    def test_for_trace_filters(self):
        recorder = SpanRecorder("r1")
        a = recorder.start("update")
        recorder.start("update")  # separate trace
        recorder.start("decision", a)
        assert len(recorder.for_trace(a["trace"])) == 2

    def test_export_jsonl(self, tmp_path):
        recorder = SpanRecorder("r1")
        recorder.start("update", peer="10.0.0.9")
        path = tmp_path / "spans.jsonl"
        assert recorder.export_jsonl(str(path)) == 1
        record = json.loads(path.read_text())
        assert record["peer"] == "10.0.0.9"

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder("r1", capacity=0)


class TestTrackerStories:
    def make(self, **kwargs):
        clock = FakeClock()
        tracker = ProvenanceTracker("10.0.0.1", "frr", clock=clock, **kwargs)
        return tracker, clock

    def test_attr_name_falls_back_to_number(self):
        assert attr_name(5) == "LOCAL_PREF"
        assert attr_name(250) == "attr_250"

    def test_pending_parent_consumed_by_update_span(self):
        tracker, _ = self.make()
        tracker.pending_parent = ("a#1", "a#4")
        span = tracker.begin_update(None)
        assert span["trace"] == "a#1" and span["parent"] == "a#4"

    def test_end_update_finishes_orphaned_nested_spans(self):
        # An exception mid-phase must not mis-parent the next update.
        tracker, _ = self.make()
        tracker.begin_update(None)
        tracker.begin_phase("decision", PREFIX)
        tracker.end_update()
        assert tracker.active_ref() is None
        assert all("end" in span for span in tracker.spans.spans())
        fresh = tracker.begin_update(None)
        assert fresh["parent"] is None

    def test_story_ring_is_bounded_per_prefix(self):
        tracker, _ = self.make(stories_per_prefix=2)
        for _ in range(5):
            tracker.begin_update(None)
            tracker.begin_route(PREFIX, None)
            tracker.end_update()
        assert len(tracker.stories(PREFIX)) == 2

    def test_update_level_events_copied_into_story(self):
        # BGP_RECEIVE_MESSAGE extensions run before any NLRI import;
        # their events belong to every route the update then opens.
        tracker, _ = self.make()

        class Ctx:
            prefix = None
            span = None

        tracker.begin_update(None)
        tracker.record_api(Ctx(), "write_buf", length=23)
        story = tracker.begin_route(PREFIX, None)
        assert story["events"][0]["op"] == "write_buf"

    def test_stories_per_prefix_validated(self):
        with pytest.raises(ValueError):
            ProvenanceTracker("r", stories_per_prefix=0)

    def test_explain_render_covers_event_kinds(self):
        tracker, _ = self.make()

        class Ctx:
            prefix = PREFIX
            span = None

        tracker.begin_update(None)
        tracker.begin_route(PREFIX, None)
        tracker.vmm_skip(Ctx(), "bgp_inbound_filter", "crasher")
        tracker.vmm_fallback(Ctx(), "bgp_inbound_filter", "flaky", "boom")
        tracker.vmm_native(Ctx(), "bgp_inbound_filter")
        tracker.record_filter(PREFIX, "loop_rejected")
        tracker.record_elimination(
            PREFIX, "local_pref", FakeRoute("a"), FakeRoute("b")
        )
        tracker.rib_changed("install", PREFIX, FakeRoute("b"), None)
        tracker.record_export(PREFIX, 0x0A000202, "advertise")
        tracker.end_update()
        text = tracker.render_explain(PREFIX)
        assert "skipped by circuit-breaker" in text
        assert "FAULTED" in text
        assert "native default ran" in text
        assert "rejected: loop_rejected" in text
        assert "step: local_pref" in text
        assert "loc-rib: install" in text
        assert "export -> 10.0.2.2: advertise" in text

    def test_explain_unknown_prefix(self):
        tracker, _ = self.make()
        text = tracker.render_explain(Prefix.parse("192.0.2.0/24"))
        assert "no provenance recorded" in text

    def test_export_jsonl_mixes_stories_spans_and_convergence(self):
        tracker, _ = self.make()
        tracker.begin_update(None)
        tracker.begin_route(PREFIX, None)
        tracker.end_update()
        buffer = io.StringIO()
        count = tracker.export_jsonl(buffer)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert len(records) == count
        kinds = {record["type"] for record in records}
        assert kinds == {"story", "span", "convergence"}


class TestConvergenceObservability:
    def make(self):
        clock = FakeClock()
        return ProvenanceTracker("10.0.0.1", clock=clock), clock

    def test_install_alone_is_not_a_flap(self):
        tracker, _ = self.make()
        tracker.rib_changed("install", PREFIX, FakeRoute("a"), None)
        assert tracker.flap_counts() == {}

    def test_forward_progress_flaps_but_never_oscillates(self):
        tracker, clock = self.make()
        for index, key in enumerate(("a", "b", "c", "d")):
            clock.now = float(index)
            tracker.rib_changed("replace", PREFIX, FakeRoute(key), None)
        assert tracker.flap_counts() == {str(PREFIX): 3}
        assert tracker.oscillating() == []
        assert tracker.time_of_last_change() == 3.0

    def test_revisiting_abandoned_path_flags_oscillation(self):
        tracker, _ = self.make()
        for key in ("a", "b", "a", "b", "a"):
            tracker.rib_changed("replace", PREFIX, FakeRoute(key), None)
        assert str(PREFIX) in tracker.oscillating()
        report = tracker.convergence_report()
        assert report["revisits"][str(PREFIX)] >= 2
        assert report["oscillating"] == [str(PREFIX)]

    def test_single_revisit_below_threshold(self):
        tracker, _ = self.make()
        for key in ("a", "b", "a"):
            tracker.rib_changed("replace", PREFIX, FakeRoute(key), None)
        assert tracker.oscillating() == []
        assert tracker.oscillating(min_revisits=1) == [str(PREFIX)]

    def test_same_best_reinstalled_is_not_a_change(self):
        tracker, _ = self.make()
        tracker.rib_changed("install", PREFIX, FakeRoute("a"), None)
        tracker.rib_changed("replace", PREFIX, FakeRoute("a"), None)
        assert tracker.flap_counts() == {}


class TestDaemonToggle:
    """enable/disable_provenance binds the tracker's hooks into the
    VMM's steps and back out."""

    def make_daemon(self, **kwargs):
        daemon = FrrDaemon(asn=65001, router_id="1.1.1.1", **kwargs)
        daemon.attach_manifest(route_reflector.build_manifest())
        return daemon

    @staticmethod
    def replay(daemon):
        """One reflected route; returns the VMM's stats and trace."""
        daemon.add_neighbor("10.0.0.8", 65001, lambda data: None, rr_client=True)
        daemon._established[parse_ipv4("10.0.0.8")] = True
        daemon.receive_message("10.0.0.8", _update(65001, "10.0.0.8", path=()))
        trace = [
            {k: v for k, v in event.items() if k != "ts"}
            for event in daemon.vmm.telemetry.trace.events()
        ]
        return daemon.vmm.stats(), trace

    def test_fast_path_active_without_provenance(self):
        daemon = self.make_daemon()
        assert daemon.provenance is None and daemon.host.provenance is None
        stats, _ = self.replay(daemon)
        assert sum(row["executions"] for row in stats.values()) > 0

    def test_enable_drops_fast_path_and_wires_hooks(self):
        daemon = self.make_daemon()
        tracker = daemon.enable_provenance()
        assert daemon.provenance is tracker
        assert daemon.host.provenance is tracker
        assert daemon.loc_rib.on_change == tracker.rib_changed
        stats, _ = self.replay(daemon)
        runs = [
            event
            for story in tracker.stories(PREFIX)
            for event in story["events"]
            if event["op"] == "extension"
        ]
        assert len(runs) == sum(row["executions"] for row in stats.values()) > 0

    def test_disable_restores_fast_path(self):
        daemon = self.make_daemon()
        tracker = daemon.enable_provenance()
        daemon.disable_provenance()
        assert daemon.provenance is None
        assert daemon.host.provenance is None
        assert daemon.loc_rib.on_change is None
        # Off records nothing, and replays like a never-toggled daemon.
        assert self.replay(daemon) == self.replay(self.make_daemon())
        assert tracker.stories(PREFIX) == [] and len(tracker.spans) == 0

    def test_constructor_flag_enables_tracking(self):
        daemon = self.make_daemon(provenance=True)
        assert daemon.provenance is not None
        assert daemon.provenance.implementation == "frr"

    def test_enable_is_idempotent_per_tracker(self):
        daemon = self.make_daemon()
        first = daemon.enable_provenance()
        custom = ProvenanceTracker("1.1.1.1", "frr")
        second = daemon.enable_provenance(custom)
        assert second is custom
        assert daemon.host.provenance is custom
        assert first is not second
