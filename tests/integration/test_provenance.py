"""Integration: provenance across the full update path.

The same bytecode must produce the same causal chain on both hosts —
``xbgp explain`` is only trustworthy if the story it tells does not
depend on which implementation runs the extension.  Spans must follow
a route across simulated links, and when the circuit breaker skips a
quarantined extension the explain output must attribute the native
fallback to the breaker, not to the extension.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.attributes import make_as_path, make_next_hop, make_origin
from repro.bgp.aspath import AsPath
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import parse_ipv4
from repro.bird import BirdDaemon
from repro.core import Manifest, VmmConfig
from repro.frr import FrrDaemon
from repro.sim.harness import build_explain_scenario
from repro.telemetry import QuarantinePolicy

PREFIX = Prefix.parse("198.51.100.0/24")


def normalized_stories(tracker, prefix):
    """Stories stripped of everything implementation- or run-specific:
    what remains is the causal chain itself."""
    stories = []
    for story in tracker.stories(prefix):
        stories.append(
            {
                "peer": story["peer"],
                "session": story["session"],
                "events": story["events"],
            }
        )
    return stories


class TestCrossImplementation:
    @pytest.mark.parametrize("engine", ["jit", "interp"])
    def test_same_bytecode_same_causal_chain(self, engine):
        chains = {}
        for implementation in ("frr", "bird"):
            network, up, dut, down = build_explain_scenario(
                implementation, PREFIX, engine=engine
            )
            chains[implementation] = normalized_stories(dut.provenance, PREFIX)
        assert chains["frr"], "no story recorded on the FRR DUT"
        assert chains["frr"] == chains["bird"]

    def test_chain_covers_the_full_update_path(self):
        _, _, dut, _ = build_explain_scenario("frr", PREFIX)
        (story,) = dut.provenance.stories(PREFIX)
        ops = [event["op"] for event in story["events"]]
        # Import filter ran, decision decided, RIB changed, export ran:
        # the chain reaches every layer.
        assert "extension" in ops
        assert "decision" in ops
        assert "rib" in ops
        assert "export" in ops
        assert ops.index("decision") < ops.index("rib") < ops.index("export")
        # The RR extension's attribute stamping is attributed to it.
        set_attrs = [
            event for event in story["events"] if event["op"] == "set_attr"
        ]
        assert {event["attr"] for event in set_attrs} == {
            "ORIGINATOR_ID", "CLUSTER_LIST",
        }
        assert all(event["extension"] == "rr_export" for event in set_attrs)

    def test_rendered_explain_matches_across_hosts(self):
        rendered = {}
        for implementation in ("frr", "bird"):
            _, _, dut, _ = build_explain_scenario(implementation, PREFIX)
            text = dut.provenance.render_explain(PREFIX)
            # Scrub the header line (names the implementation).
            rendered[implementation] = text.splitlines()[1:]
        assert rendered["frr"] == rendered["bird"]


class TestSpanPropagation:
    def test_one_trace_spans_three_routers(self):
        _, up, dut, down = build_explain_scenario("frr", PREFIX)
        root = up.provenance.spans.spans("originate")[0]
        for daemon in (up, dut, down):
            spans = daemon.provenance.spans.spans()
            assert spans, daemon.provenance.router
            assert {span["trace"] for span in spans} == {root["trace"]}

    def test_downstream_update_parented_under_dut_export(self):
        # Exports leave in a packed flush after the sweep, so the link's
        # parent ref is the flush's ``send`` span: same trace, child of
        # the DUT's UPDATE span, naming the prefixes the message carries.
        _, _, dut, down = build_explain_scenario("frr", PREFIX)
        (update_span,) = down.provenance.spans.spans("update")
        (send_span,) = [
            span
            for span in dut.provenance.spans.spans("send")
            if str(PREFIX) in span["prefixes"]
        ]
        assert update_span["parent"] == send_span["span"]
        assert update_span["trace"] == send_span["trace"]
        (dut_update,) = dut.provenance.spans.spans("update")
        assert send_span["parent"] == dut_update["span"]
        (export_span,) = [
            span
            for span in dut.provenance.spans.spans("export")
            if span["prefix"] == str(PREFIX)
        ]
        assert export_span["parent"] == dut_update["span"]
        assert export_span["end"] <= send_span["start"]

    def test_story_trace_ids_link_the_routers(self):
        _, up, dut, down = build_explain_scenario("frr", PREFIX)
        origin_trace = up.provenance.stories(PREFIX)[0]["trace"]
        assert dut.provenance.stories(PREFIX)[0]["trace"] == origin_trace
        assert down.provenance.stories(PREFIX)[0]["trace"] == origin_trace


#: Dereferences NULL: faults in the sandbox at run time.
CRASHING = """
u64 crash(u64 args) {
    return *(u64 *)(0);
}
"""


def crasher_manifest():
    return Manifest(
        name="crasher",
        codes=[
            {
                "name": "crasher",
                "insertion_point": "BGP_INBOUND_FILTER",
                "seq": 0,
                "helpers": [],
                "source": CRASHING,
            }
        ],
    )


def feed(daemon, prefix):
    update = UpdateMessage(
        attributes=[
            make_origin(Origin.IGP),
            make_as_path(AsPath.from_sequence([65100])),
            make_next_hop(parse_ipv4("10.0.0.9")),
        ],
        nlri=[prefix],
    )
    daemon.receive_message("10.0.0.9", update)


@pytest.mark.parametrize("daemon_cls", [FrrDaemon, BirdDaemon], ids=["frr", "bird"])
class TestQuarantineAttribution:
    """explain must blame the breaker, not the extension, once the
    quarantine opens — and the faulting runs before that must carry the
    error that opened it."""

    def make_daemon(self, daemon_cls):
        config = VmmConfig(quarantine=QuarantinePolicy(error_threshold=2))
        daemon = daemon_cls(
            asn=65001, router_id="1.1.1.1", vmm_config=config, provenance=True
        )
        daemon.attach_manifest(crasher_manifest())
        daemon.add_neighbor("10.0.0.9", 65100, lambda data: None)
        daemon._established[parse_ipv4("10.0.0.9")] = True
        return daemon

    def test_pre_quarantine_faults_attributed_to_extension(self, daemon_cls):
        daemon = self.make_daemon(daemon_cls)
        first = Prefix.parse("10.0.0.0/24")
        feed(daemon, first)
        (story,) = daemon.provenance.stories(first)
        fallbacks = [
            event for event in story["events"] if event["op"] == "fallback"
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0]["extension"] == "crasher"
        assert "skipped" not in daemon.provenance.render_explain(first)

    def test_post_quarantine_skip_attributed_to_breaker(self, daemon_cls):
        daemon = self.make_daemon(daemon_cls)
        prefixes = [Prefix(0x0A000000 + (index << 8), 24) for index in range(4)]
        for prefix in prefixes:
            feed(daemon, prefix)
        assert daemon.vmm.quarantined_codes() == ["crasher"]
        # The route processed after the breaker opened: its story shows
        # the skip, credited to the circuit breaker.
        (story,) = daemon.provenance.stories(prefixes[-1])
        (skip,) = [event for event in story["events"] if event["op"] == "skip"]
        assert skip["by"] == "circuit-breaker"
        assert skip["extension"] == "crasher"
        assert skip["reason"] == "quarantined"
        text = daemon.provenance.render_explain(prefixes[-1])
        assert "skipped by circuit-breaker" in text
        assert "FAULTED" not in text  # no fault happened on this route

    def test_route_still_converges_with_full_story(self, daemon_cls):
        daemon = self.make_daemon(daemon_cls)
        prefixes = [Prefix(0x0A000000 + (index << 8), 24) for index in range(4)]
        for prefix in prefixes:
            feed(daemon, prefix)
        for prefix in prefixes:
            assert daemon.loc_rib.lookup(prefix) is not None
            (story,) = daemon.provenance.stories(prefix)
            ops = [event["op"] for event in story["events"]]
            assert "rib" in ops  # the chain still reaches installation


class TestFailureArtifacts:
    """The conftest failure hook: daemons created in a test get their
    trace ring and provenance dumped when the test fails."""

    def test_dump_writes_trace_and_provenance(self, tmp_path):
        import json

        from conftest import dump_observability

        daemon = FrrDaemon(asn=65001, router_id="1.1.1.1", provenance=True)
        daemon.add_neighbor("10.0.0.9", 65100, lambda data: None)
        daemon._established[parse_ipv4("10.0.0.9")] = True
        feed(daemon, PREFIX)
        written = dump_observability(
            str(tmp_path), "tests/integration/test_x.py::TestY::test_z[frr]"
        )
        names = sorted(path.rsplit("-", 1)[1] for path in written)
        assert names == ["provenance.jsonl", "trace.jsonl"]
        # The sanitized test id names the directory.
        assert all("test_x.py_TestY_test_z_frr_" in path for path in written)
        provenance = [
            json.loads(line)
            for path in written
            if path.endswith("provenance.jsonl")
            for line in open(path)
        ]
        assert {record["type"] for record in provenance} == {
            "story", "span", "convergence",
        }
        assert any(
            record.get("prefix") == str(PREFIX)
            for record in provenance
            if record["type"] == "story"
        )

    def test_daemons_without_instrumentation_write_nothing(self, tmp_path):
        from conftest import _LIVE, dump_observability

        _LIVE.clear()
        FrrDaemon(
            asn=65001, router_id="1.1.1.1", vmm_config=VmmConfig(telemetry=False)
        )
        written = dump_observability(str(tmp_path), "some::test")
        assert written == []
        assert not (tmp_path / "some_test").exists()
