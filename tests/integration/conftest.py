"""Failure observability for integration tests.

When an integration test fails, whatever the daemons under test
recorded — VMM trace rings, provenance stories, spans, convergence
state — is exactly what's needed to diagnose the failure, and exactly
what's gone once the process exits.  This conftest keeps a weak
registry of every daemon the test constructed and, on failure, dumps
each one's trace ring and provenance as JSON Lines under
``$REPRO_FAILURE_ARTIFACT_DIR`` (default ``test-failure-artifacts/``),
one directory per failed test.  CI uploads that directory as a build
artifact (see .github/workflows/ci.yml).
"""

import os
import re
import weakref

import pytest

from repro.bgp.prefix import format_ipv4
from repro.bgp.speaker import BgpSpeaker

#: Daemons constructed since the current test started (weak: a daemon
#: the test dropped and the GC collected is of no forensic interest).
_LIVE = weakref.WeakSet()


def _register_daemon_constructions() -> None:
    original = BgpSpeaker.__init__

    def wrapped(self, *args, **kwargs):
        original(self, *args, **kwargs)
        _LIVE.add(self)

    wrapped.__wrapped__ = original
    BgpSpeaker.__init__ = wrapped


_register_daemon_constructions()


@pytest.fixture(autouse=True)
def _fresh_daemon_registry():
    _LIVE.clear()
    yield


def artifact_root() -> str:
    return os.environ.get("REPRO_FAILURE_ARTIFACT_DIR", "test-failure-artifacts")


def dump_observability(root: str, test_id: str):
    """Write every live daemon's trace ring and provenance under
    ``root/<sanitized test id>/``; returns the paths written."""
    directory = os.path.join(root, re.sub(r"[^\w.-]+", "_", test_id))
    written = []
    for index, daemon in enumerate(sorted(_LIVE, key=id)):
        implementation = getattr(daemon, "implementation", "daemon")
        try:
            router = format_ipv4(daemon.router_id)
        except Exception:
            router = str(getattr(daemon, "router_id", index))
        stem = f"{index}-{implementation}-{router}"
        telemetry = getattr(getattr(daemon, "vmm", None), "telemetry", None)
        tracker = getattr(daemon, "provenance", None)
        if telemetry is None and tracker is None:
            continue
        os.makedirs(directory, exist_ok=True)
        if telemetry is not None:
            path = os.path.join(directory, f"{stem}-trace.jsonl")
            telemetry.trace.export_jsonl(path)
            written.append(path)
        if tracker is not None:
            path = os.path.join(directory, f"{stem}-provenance.jsonl")
            tracker.export_jsonl(path)
            written.append(path)
    return written


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    try:
        written = dump_observability(artifact_root(), item.nodeid)
    except Exception as exc:  # never mask the real failure
        item.add_report_section(
            "teardown", "observability", f"artifact dump failed: {exc!r}"
        )
        return
    if written:
        item.add_report_section(
            "teardown",
            "observability",
            "dumped trace/provenance artifacts:\n"
            + "\n".join(f"  {path}" for path in written),
        )
