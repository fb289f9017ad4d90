"""Integration: VMM fault tolerance (§2.1).

"While running extension codes, the VMM also monitors their execution
and stops them in case of error.  In this case, it falls back to the
default function and notifies the host implementation of the error."

These tests inject faulty bytecode into live daemons and check that
routing survives: the chain falls back to native behavior, errors are
counted and logged, and well-behaved programs keep working.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.attributes import make_as_path, make_next_hop, make_origin
from repro.bgp.aspath import AsPath
from repro.bgp.constants import Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import parse_ipv4
from repro.bird import BirdDaemon
from repro.core import Manifest, NextRequested, VmmConfig
from repro.core.extension import NativeExtensionCode, XbgpProgram
from repro.core.insertion_points import InsertionPoint
from repro.frr import FrrDaemon
from repro.telemetry import QuarantinePolicy

PREFIX = Prefix.parse("203.0.113.0/24")

#: Dereferences NULL: faults in the sandbox at run time.
CRASHING = """
u64 crash(u64 args) {
    return *(u64 *)(0);
}
"""

#: Burns its entire instruction budget in a loop.
SPINNING = """
u64 spin(u64 args) {
    u64 i = 0;
    while (1) {
        i += 1;
    }
    return i;
}
"""

#: Well-behaved: rejects one specific prefix, delegates otherwise.
SELECTIVE = """
u64 selective(u64 args) {
    u64 pfx = get_arg(ARG_PREFIX);
    if (pfx == 0) { next(); }
    u64 plen = *(u8 *)(pfx + 4);
    if (plen == 32) { return FILTER_REJECT; }
    next();
}
"""


def manifest_for(name, source, helpers=("next", "get_arg"), seq=0):
    return Manifest(
        name=name,
        codes=[
            {
                "name": name,
                "insertion_point": "BGP_INBOUND_FILTER",
                "seq": seq,
                "helpers": list(helpers),
                "source": source,
            }
        ],
    )


def feed(daemon, prefix=PREFIX):
    update = UpdateMessage(
        attributes=[
            make_origin(Origin.IGP),
            make_as_path(AsPath.from_sequence([65100])),
            make_next_hop(parse_ipv4("10.0.0.9")),
        ],
        nlri=[prefix],
    )
    daemon.receive_message("10.0.0.9", update)


def make_daemon(daemon_cls, vmm_config=None):
    daemon = daemon_cls(asn=65001, router_id="1.1.1.1", vmm_config=vmm_config)
    daemon.add_neighbor("10.0.0.9", 65100, lambda data: None)
    daemon._established[parse_ipv4("10.0.0.9")] = True
    return daemon


@pytest.mark.parametrize("daemon_cls", [FrrDaemon, BirdDaemon], ids=["frr", "bird"])
class TestFaultFallback:
    def test_crashing_bytecode_falls_back_to_native(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
        feed(daemon)
        # The route survives: native import accepted it after the fault.
        assert daemon.loc_rib.lookup(PREFIX) is not None
        assert daemon.vmm.fallbacks == 1
        assert daemon.vmm.stats()["crasher"]["errors"] == 1
        assert any("falling back" in line for line in daemon.log_messages)

    def test_spinning_bytecode_hits_budget_and_falls_back(self, daemon_cls):
        daemon = make_daemon(daemon_cls, VmmConfig(step_budget=10_000))
        daemon.attach_manifest(manifest_for("spinner", SPINNING, helpers=()))
        feed(daemon)
        assert daemon.loc_rib.lookup(PREFIX) is not None
        assert daemon.vmm.stats()["spinner"]["errors"] == 1
        assert any("budget" in line for line in daemon.log_messages)

    def test_faults_counted_per_route_not_fatal(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
        for index in range(5):
            feed(daemon, Prefix(0x0A000000 + (index << 8), 24))
        assert len(daemon.loc_rib) == 5
        assert daemon.vmm.stats()["crasher"]["errors"] == 5

    def test_healthy_code_after_faulty_code_still_runs(self, daemon_cls):
        # Chain: crasher (seq 0) then selective (seq 1).  A fault aborts
        # the whole chain to native — selective never runs on that
        # route — but the daemon keeps functioning.
        daemon = make_daemon(daemon_cls)
        daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
        daemon.attach_manifest(
            manifest_for("selective", SELECTIVE, seq=1)
        )
        feed(daemon)
        assert daemon.loc_rib.lookup(PREFIX) is not None
        assert daemon.vmm.stats()["selective"]["executions"] == 0

    def test_selective_rejection_works_alone(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        daemon.attach_manifest(manifest_for("selective", SELECTIVE))
        feed(daemon, Prefix.parse("192.0.2.1/32"))
        feed(daemon, PREFIX)
        assert daemon.loc_rib.lookup(Prefix.parse("192.0.2.1/32")) is None
        assert daemon.loc_rib.lookup(PREFIX) is not None

    def test_detach_restores_native_behavior(self, daemon_cls):
        daemon = make_daemon(daemon_cls)
        daemon.attach_manifest(manifest_for("selective", SELECTIVE))
        feed(daemon, Prefix.parse("192.0.2.1/32"))
        assert daemon.loc_rib.lookup(Prefix.parse("192.0.2.1/32")) is None
        daemon.vmm.detach_program("selective")
        feed(daemon, Prefix.parse("192.0.2.1/32"))
        assert daemon.loc_rib.lookup(Prefix.parse("192.0.2.1/32")) is not None

    def test_bad_verdict_values_treated_as_accept(self, daemon_cls):
        # A bytecode returning garbage (neither ACCEPT nor REJECT):
        # hosts compare against FILTER_REJECT only, so garbage routes
        # fall through to acceptance — never a crash.
        daemon = make_daemon(daemon_cls)
        daemon.attach_manifest(
            manifest_for("garbage", "u64 g(u64 args) { return 777; }", helpers=())
        )
        feed(daemon)
        assert daemon.loc_rib.lookup(PREFIX) is not None


def flaky_program(name, fail_times):
    """A native extension that errors its first ``fail_times`` runs,
    then delegates cleanly forever after."""
    calls = {"n": 0}

    def fn(ctx, host):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise RuntimeError(f"flaky failure #{calls['n']}")
        raise NextRequested()

    code = NativeExtensionCode(name, fn, InsertionPoint.BGP_INBOUND_FILTER)
    return XbgpProgram(name, [code]), calls


@pytest.mark.parametrize("daemon_cls", [FrrDaemon, BirdDaemon], ids=["frr", "bird"])
class TestQuarantine:
    """Circuit breaker: a faulting extension is detached from the chain
    after N consecutive errors; the chain and the native path keep the
    router converging."""

    def test_crash_looper_quarantined_rest_of_chain_keeps_running(self, daemon_cls):
        config = VmmConfig(quarantine=QuarantinePolicy(error_threshold=3))
        daemon = make_daemon(daemon_cls, config)
        daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
        daemon.attach_manifest(manifest_for("selective", SELECTIVE, seq=1))
        for index in range(6):
            feed(daemon, Prefix(0x0A000000 + (index << 8), 24))
        # Every route converged: the first three natively (fallback
        # after the crash), the rest through the surviving chain.
        assert len(daemon.loc_rib) == 6
        stats = daemon.vmm.stats()
        # The crasher stops being invoked once quarantined.
        assert stats["crasher"]["errors"] == 3
        assert stats["crasher"]["executions"] == 3
        # Downstream of the crasher, selective only ran after the
        # quarantine unblocked the chain.
        assert stats["selective"]["executions"] == 3
        assert daemon.vmm.quarantined_codes() == ["crasher"]
        trace = daemon.vmm.telemetry.trace
        skips = trace.events("skip")
        assert len(skips) == 3
        assert all(event["reason"] == "quarantined" for event in skips)
        assert trace.last("quarantine")["to_state"] == "open"

    def test_quarantined_selective_still_rejected_by_policy_chain(self, daemon_cls):
        # Quarantining the crasher lets the selective filter downstream
        # actually enforce its policy (a fault aborts the whole chain,
        # so pre-quarantine the /32 sneaks in natively).
        config = VmmConfig(quarantine=QuarantinePolicy(error_threshold=1))
        daemon = make_daemon(daemon_cls, config)
        daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
        daemon.attach_manifest(manifest_for("selective", SELECTIVE, seq=1))
        feed(daemon, PREFIX)  # crash -> native fallback, quarantines crasher
        feed(daemon, Prefix.parse("192.0.2.1/32"))
        assert daemon.loc_rib.lookup(Prefix.parse("192.0.2.1/32")) is None
        assert daemon.loc_rib.lookup(PREFIX) is not None

    def test_native_path_keeps_converging_after_quarantine(self, daemon_cls):
        config = VmmConfig(quarantine=QuarantinePolicy(error_threshold=2))
        daemon = make_daemon(daemon_cls, config)
        daemon.attach_manifest(manifest_for("crasher", CRASHING, helpers=()))
        for index in range(5):
            feed(daemon, Prefix(0x0A000000 + (index << 8), 24))
        assert len(daemon.loc_rib) == 5
        # Only the two pre-quarantine runs fell back; afterwards the
        # skip goes straight to the native default, not via a fault.
        assert daemon.vmm.fallbacks == 2
        assert daemon.vmm.stats()["crasher"]["errors"] == 2
        snapshot = daemon.vmm.telemetry.health.snapshot()
        assert snapshot[0]["state"] == "open"
        assert snapshot[0]["skipped"] == 3

    def test_breaker_works_with_metrics_off(self, daemon_cls):
        """Regression: with ``telemetry=False`` the breaker used to be
        silently off — ``build_scale_daemon``'s ``inject_crasher`` +
        ``quarantine_after`` drill ran the crasher on every route."""
        from repro.scale import build_scale_daemon, normalise_snapshot
        from repro.workload import RibGenerator, build_updates

        implementation = "frr" if daemon_cls is FrrDaemon else "bird"
        routes = RibGenerator(n_routes=50, seed=11).generate()
        feed_bytes = [
            update.encode()
            for update in build_updates(
                routes,
                next_hop=parse_ipv4("10.0.1.2"),
                session="ebgp",
                sender_asn=65100,
                max_prefixes_per_update=1,
            )
        ]
        ribs = {}
        for crasher in (True, False):
            daemon, collector = build_scale_daemon(
                {
                    "implementation": implementation,
                    "telemetry": False,
                    "inject_crasher": crasher,
                    "quarantine_after": 3,
                }
            )
            assert daemon.vmm.telemetry is None
            for payload in feed_bytes:
                daemon.receive_raw("10.0.1.2", payload)
            ribs[crasher] = normalise_snapshot(daemon.loc_rib_snapshot())
            assert len(collector.prefixes) == 50
            if crasher:
                assert daemon.vmm.stats()["crash"] == {
                    "executions": 3, "errors": 3, "fallbacks": 3
                }
                assert daemon.vmm.fallbacks == 3
                assert daemon.vmm.quarantined_codes() == ["crash"]
                assert daemon.vmm.breaker.state_for(
                    "bgp_inbound_filter", "crash"
                ).skipped == 47
        assert ribs[True] == ribs[False] and len(ribs[True]) == 50

    def test_probation_rearms_flaky_extension(self, daemon_cls):
        policy = QuarantinePolicy(
            error_threshold=2, probation_after=2, probation_successes=2
        )
        daemon = make_daemon(daemon_cls, VmmConfig(quarantine=policy))
        program, calls = flaky_program("flaky", fail_times=2)
        daemon.attach_program(program)
        for index in range(6):
            feed(daemon, Prefix(0x0A000000 + (index << 8), 24))
        # Timeline: errors on feeds 1-2 (-> open), skip on feed 3,
        # probation trials on feeds 4-5 (clean -> closed), normal on 6.
        assert len(daemon.loc_rib) == 6
        assert calls["n"] == 5  # feed 3 is the only skipped invocation
        health = daemon.vmm.telemetry.health.state_for(
            InsertionPoint.BGP_INBOUND_FILTER.value, "flaky"
        )
        assert health.state == "closed"
        assert health.quarantine_count == 1
        states = [
            event["to_state"]
            for event in daemon.vmm.telemetry.trace.events("quarantine")
        ]
        assert states == ["open", "half_open", "closed"]
        assert daemon.vmm.quarantined_codes() == []

    def test_probation_failure_reopens_quarantine(self, daemon_cls):
        policy = QuarantinePolicy(error_threshold=2, probation_after=1)
        daemon = make_daemon(daemon_cls, VmmConfig(quarantine=policy))
        program, calls = flaky_program("hopeless", fail_times=10_000)
        daemon.attach_program(program)
        for index in range(5):
            feed(daemon, Prefix(0x0A000000 + (index << 8), 24))
        # Every probation trial fails, so the breaker keeps re-opening —
        # and every route still converges natively.
        assert len(daemon.loc_rib) == 5
        health = daemon.vmm.telemetry.health.state_for(
            InsertionPoint.BGP_INBOUND_FILTER.value, "hopeless"
        )
        assert health.state == "open"
        assert health.quarantine_count >= 2
