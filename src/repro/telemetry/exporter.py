"""HTTP exporter: ``/metrics``, ``/health``, ``/events`` on stdlib only.

ROADMAP item 4 wants "the existing Prometheus/stats/health endpoints"
on a long-running daemon; this is that surface, built on
``http.server`` (no dependencies, per the repo's discipline) and
attachable to anything that can produce a registry:

* ``GET /metrics`` — Prometheus text exposition (v0.0.4) of the current
  registry;
* ``GET /health``  — the quarantine/circuit-breaker table as JSON;
  ``200`` when every breaker is closed, ``503`` when any extension sits
  in quarantine (so load-balancer-style checks work unmodified);
* ``GET /events``  — the recent structured-event ring as JSON
  (``?event=<type>`` filters, ``?limit=<n>`` truncates to the tail);
* ``GET /alerts``  — the alert engine's rule table as JSON (state,
  last value, fire counts); a firing **critical** rule also turns
  ``/health`` into a 503, so existing probes catch alert regressions
  without learning a new endpoint;
* ``GET /timeseries`` — the recorded metric time-series as JSON
  (``?limit=<n>`` truncates to the most recent samples);
* ``GET /``        — a plain-text index of the above.

Sources are late-bound callables, so the same exporter can serve a live
harness DUT, the progress registry of an in-flight sharded replay, and
the merged post-replay registry, switching as the run advances.  All
reads happen under :attr:`TelemetryExporter.lock`; writers that mutate
the served registry from another thread should hold the same lock.

The server runs on a daemon thread (``ThreadingHTTPServer``), binds
``port=0`` for an ephemeral port by default, and is also a context
manager (``with TelemetryExporter(...) as exporter:``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from .metrics import MetricsRegistry, render_prometheus
from .records import Ring

__all__ = ["TelemetryExporter"]

#: Every JSON endpoint declares its charset explicitly, like /metrics.
_JSON_TYPE = "application/json; charset=utf-8"


def _limited(items: List[Dict[str, object]], query: Dict[str, List[str]]):
    """The last ``?limit=<n>`` items; all of them unless ``n`` > 0."""
    try:
        limit = int(query.get("limit", ["0"])[0])
    except ValueError:
        limit = 0
    return items[-limit:] if limit > 0 else items


class TelemetryExporter:
    """Serve telemetry over HTTP (see module docstring).

    ``telemetry`` may be a :class:`~repro.telemetry.Telemetry` facade
    (registry + health wired automatically); each source can also be
    given explicitly as a value or a zero-argument callable:

    * ``registry``  — :class:`MetricsRegistry` (or ``() -> registry``);
    * ``health``    — list of breaker rows (or a callable producing it);
    * ``events``    — an :class:`~repro.telemetry.events.EventLog`, a
      list of event dicts, or a callable producing either;
    * ``alerts``    — an :class:`~repro.telemetry.alerts.AlertEngine`,
      a snapshot dict, or a callable producing either;
    * ``timeseries`` — a :class:`~repro.telemetry.timeseries.TimeSeries`,
      a list of samples, or a callable producing either.
    """

    def __init__(
        self,
        telemetry=None,
        *,
        registry=None,
        health=None,
        events=None,
        alerts=None,
        timeseries=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if telemetry is not None:
            registry = registry if registry is not None else telemetry.registry
            health = health if health is not None else telemetry.health.snapshot
        self._registry_source = registry
        self._health_source = health
        self._events_source = events
        self._alerts_source = alerts
        self._timeseries_source = timeseries
        self.host = host
        self.requested_port = port
        self.port: Optional[int] = None
        self.lock = threading.RLock()
        self.requests_served = 0
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- source resolution -------------------------------------------------

    @staticmethod
    def _resolve(source):
        return source() if callable(source) else source

    def registry(self) -> MetricsRegistry:
        registry = self._resolve(self._registry_source)
        return registry if registry is not None else MetricsRegistry()

    def health_rows(self) -> List[Dict[str, object]]:
        rows = self._resolve(self._health_source)
        return list(rows) if rows is not None else []

    def _records(self, source) -> List[Dict[str, object]]:
        """A recorder's buffered records, or a plain list of them."""
        source = self._resolve(source)
        if source is None:
            return []
        return source.records() if isinstance(source, Ring) else list(source)

    def alerts_snapshot(self):
        source = self._resolve(self._alerts_source)
        if source is None:
            return {"rules": [], "firing": 0, "critical_firing": False}
        if hasattr(source, "snapshot"):
            return source.snapshot()
        return source

    def replace_sources(
        self,
        registry=None,
        health=None,
        events=None,
        alerts=None,
        timeseries=None,
    ) -> None:
        """Swap sources atomically (e.g. live progress → merged result)."""
        with self.lock:
            if registry is not None:
                self._registry_source = registry
            if health is not None:
                self._health_source = health
            if events is not None:
                self._events_source = events
            if alerts is not None:
                self._alerts_source = alerts
            if timeseries is not None:
                self._timeseries_source = timeseries

    # -- responses ---------------------------------------------------------

    def _render_metrics(self) -> bytes:
        with self.lock:
            return render_prometheus(self.registry()).encode()

    def _render_health(self):
        with self.lock:
            rows = self.health_rows()
            alerts = self.alerts_snapshot()
        open_rows = [row for row in rows if row.get("state") == "open"]
        critical = bool(alerts.get("critical_firing"))
        body = {
            "status": "degraded" if (open_rows or critical) else "ok",
            "extensions": len(rows),
            "quarantined": len(open_rows),
            "alerts_firing": alerts.get("firing", 0),
            "critical_alerts": critical,
            "breakers": rows,
        }
        degraded = bool(open_rows) or critical
        return (503 if degraded else 200), json.dumps(body, indent=2).encode()

    def _render_events(self, query: Dict[str, List[str]]) -> bytes:
        with self.lock:
            events = self._records(self._events_source)
        kinds = query.get("event")
        if kinds:
            wanted = {k for value in kinds for k in value.split(",")}
            events = [e for e in events if e.get("event") in wanted]
        events = _limited(events, query)
        return json.dumps({"count": len(events), "events": events}).encode()

    def _render_alerts(self) -> bytes:
        with self.lock:
            snapshot = self.alerts_snapshot()
        return json.dumps(snapshot, indent=2).encode()

    def _render_timeseries(self, query: Dict[str, List[str]]) -> bytes:
        with self.lock:
            samples = _limited(self._records(self._timeseries_source), query)
        return json.dumps({"count": len(samples), "samples": samples}).encode()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TelemetryExporter":
        if self._server is not None:
            return self
        exporter = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # silence per-request noise
                pass

            def _reply(self, status: int, content_type: str, body: bytes):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 (stdlib naming)
                parsed = urlparse(self.path)
                exporter.requests_served += 1
                try:
                    if parsed.path == "/metrics":
                        self._reply(
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            exporter._render_metrics(),
                        )
                    elif parsed.path == "/health":
                        status, body = exporter._render_health()
                        self._reply(status, _JSON_TYPE, body)
                    elif parsed.path == "/events":
                        self._reply(
                            200,
                            _JSON_TYPE,
                            exporter._render_events(parse_qs(parsed.query)),
                        )
                    elif parsed.path == "/alerts":
                        self._reply(200, _JSON_TYPE, exporter._render_alerts())
                    elif parsed.path == "/timeseries":
                        self._reply(
                            200,
                            _JSON_TYPE,
                            exporter._render_timeseries(parse_qs(parsed.query)),
                        )
                    elif parsed.path == "/":
                        self._reply(
                            200,
                            "text/plain; charset=utf-8",
                            b"xbgp telemetry exporter\n"
                            b"  /metrics     Prometheus text exposition\n"
                            b"  /health      quarantine/breaker table (JSON)\n"
                            b"  /events      recent structured events (JSON)\n"
                            b"  /alerts      alert-rule states (JSON)\n"
                            b"  /timeseries  recorded metric samples (JSON)\n",
                        )
                    else:
                        self._reply(404, "text/plain", b"not found\n")
                except BrokenPipeError:
                    pass

        server = ThreadingHTTPServer((self.host, self.requested_port), Handler)
        server.daemon_threads = True
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="xbgp-telemetry-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5)

    def url(self, path: str = "/metrics") -> str:
        if self.port is None:
            raise RuntimeError("exporter not started")
        return f"http://{self.host}:{self.port}{path}"

    def __enter__(self) -> "TelemetryExporter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
