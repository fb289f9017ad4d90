"""Per-route provenance: the "why" record behind every RIB entry.

PR 1's counters say *that* an extension ran; this module records *what
it did to a given route* and *why the prefix ended up in (or out of)
the Loc-RIB*:

* every xBGP API call an extension makes against a route (which
  attribute it read, what it wrote, whether ``next()`` delegated);
* every extension run outcome at every insertion point, including
  fallbacks — attributed to the faulting code, or to the circuit
  breaker when quarantine skipped it;
* every decision-process elimination: which RFC 4271 ladder step (or
  which BGP_DECISION extension) eliminated each competing path;
* every Loc-RIB change and every export action per peer.

Records are grouped into *stories* — one story per (prefix, triggering
UPDATE) — kept in a bounded ring per prefix, so a flapping route keeps
its recent history without unbounded growth.  A :class:`SpanRecorder`
ties the same steps into cross-router causal traces.

The tracker also derives convergence observability: per-prefix flap
counts (Loc-RIB best-path changes), time-to-quiescence (clock of the
last change) and an oscillation detector that flags prefixes whose
best path *returns to a previously abandoned path* — the signature of
a divergent decision process (Griffin's BAD GADGET; Godfrey's
"BGP stability is precarious" shows essentially any decision change
can cause this), as opposed to ordinary convergence which only ever
moves forward through new best paths.

Everything is off unless a daemon's ``enable_provenance()`` installed
a tracker; the hosts' ``provenance`` attribute is ``None`` otherwise
and every hook site is a single None check.
"""

from __future__ import annotations

import io
import json
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from ..bgp.constants import AttrTypeCode
from ..bgp.prefix import format_ipv4
from .spans import DEFAULT_SPAN_CAPACITY, SpanRecorder

__all__ = ["ProvenanceTracker", "DEFAULT_STORIES_PER_PREFIX", "attr_name"]

DEFAULT_STORIES_PER_PREFIX = 16
#: Best-path history kept per prefix for flap/oscillation analysis.
_HISTORY_LIMIT = 128


def attr_name(code: int) -> str:
    """Human name of a path-attribute type code (falls back to the number)."""
    try:
        return AttrTypeCode(code).name
    except ValueError:
        return f"attr_{code}"


def _peer_name(neighbor) -> Optional[str]:
    if neighbor is None:
        return None
    return format_ipv4(neighbor.peer_address)


class ProvenanceTracker:
    """Per-router provenance recorder, spans included.

    One tracker belongs to one daemon; the daemon installs it on its
    host glue (``host.provenance``) so the VMM and the helper layer can
    reach it through the execution context, and on its Loc-RIB
    (``on_change``) so best-path changes are captured no matter which
    code path installed them.
    """

    def __init__(
        self,
        router: str,
        implementation: str = "",
        stories_per_prefix: int = DEFAULT_STORIES_PER_PREFIX,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        clock: Optional[Callable[[], float]] = None,
    ):
        if stories_per_prefix < 1:
            raise ValueError("stories_per_prefix must be >= 1")
        self.router = router
        self.implementation = implementation
        self.clock: Callable[[], float] = clock or time.monotonic
        self.spans = SpanRecorder(router, span_capacity, clock=self.clock)
        self.stories_per_prefix = stories_per_prefix
        self._stories: Dict[str, Deque[Dict[str, object]]] = {}
        #: Parent span ref delivered with the bytes currently being
        #: ingested (set by receive_raw, consumed by begin_update).
        self.pending_parent: Optional[Tuple[str, str]] = None
        #: Active span stack: update/originate root, then phases, then
        #: extension runs.  The top is the causal parent of anything
        #: that happens next (including sends to other routers).
        self._stack: List[Dict[str, object]] = []
        #: Events recorded before any story exists for the prefix in
        #: scope (BGP_RECEIVE_MESSAGE runs, which precede NLRI import);
        #: copied into each story the same update then opens.
        self._update_events: List[Dict[str, object]] = []
        #: Name of the last extension that *returned* a verdict, per
        #: insertion point — used to attribute decision verdicts.
        self._last_return: Dict[str, str] = {}
        # Convergence observability.
        self._best_history: Dict[str, List[object]] = {}
        self._flaps: Dict[str, int] = {}
        self._revisits: Dict[str, int] = {}
        self._last_change: Dict[str, float] = {}

    # -- clock wiring ------------------------------------------------------

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Swap the timestamp source (the simulator injects its virtual
        clock so spans and quiescence are in simulated seconds)."""
        self.clock = clock
        self.spans.clock = clock

    # -- span lifecycle ----------------------------------------------------

    def active_ref(self) -> Optional[Tuple[str, str]]:
        """(trace, span) of the innermost active span, or None.

        This is what a simulated link ships with the bytes: the
        receiver's UPDATE span adopts it as parent, extending the trace
        across routers.
        """
        if not self._stack:
            return None
        return SpanRecorder.ref(self._stack[-1])

    def begin_update(self, neighbor, kind: str = "update", **fields: object):
        """Open the root span for one UPDATE (or local origination)."""
        parent = self.pending_parent
        span = self.spans.start(kind, parent, peer=_peer_name(neighbor), **fields)
        self._stack.append(span)
        self._update_events = []
        return span

    def end_update(self) -> None:
        """Close the update span opened by :meth:`begin_update`.

        Also finishes any nested span an exception left open, rather
        than mis-parenting the next update under it.
        """
        while self._stack:
            self.spans.finish(self._stack.pop())
        self._update_events = []

    def begin_phase(self, kind: str, prefix=None, **fields: object) -> Dict[str, object]:
        """Open a child span for one processing phase: ``decision`` and
        ``export`` of one prefix, or the ``send`` of one packed UPDATE.

        While a ``send`` span is open it is what :meth:`active_ref`
        hands the link, so the downstream UPDATE is parented under a
        span that names the prefixes this router sent it.
        """
        parent = self._stack[-1] if self._stack else None
        if prefix is not None:
            fields["prefix"] = str(prefix)
        span = self.spans.start(kind, parent, **fields)
        self._stack.append(span)
        return span

    def end_phase(self, span: Dict[str, object], **fields: object) -> None:
        self.spans.finish(span, **fields)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    # -- stories -----------------------------------------------------------

    def begin_route(self, prefix, neighbor) -> Dict[str, object]:
        """Open the story of one NLRI import.

        Any events already recorded at update level (BGP_RECEIVE_MESSAGE
        extension runs rewrite attributes *before* per-prefix import)
        are copied in: they are part of this route's causality.
        """
        root = self._stack[0] if self._stack else None
        story: Dict[str, object] = {
            "router": self.router,
            "implementation": self.implementation,
            "prefix": str(prefix),
            "peer": _peer_name(neighbor),
            "session": (
                "ebgp" if neighbor is not None and neighbor.is_ebgp() else "ibgp"
            )
            if neighbor is not None
            else "local",
            "trace": root["trace"] if root is not None else None,
            "ts": self.clock(),
            "events": list(self._update_events),
        }
        ring = self._stories.get(story["prefix"])
        if ring is None:
            ring = deque(maxlen=self.stories_per_prefix)
            self._stories[story["prefix"]] = ring
        ring.append(story)
        return story

    def _story_for(self, prefix) -> Dict[str, object]:
        """Latest story for ``prefix``, synthesising one if needed.

        Decision/export activity can hit a prefix without a fresh
        import (a withdrawal elsewhere re-runs the decision); those
        events still deserve a home.
        """
        key = str(prefix)
        ring = self._stories.get(key)
        if ring:
            return ring[-1]
        root = self._stack[0] if self._stack else None
        story: Dict[str, object] = {
            "router": self.router,
            "implementation": self.implementation,
            "prefix": key,
            "peer": None,
            "session": "local",
            "trace": root["trace"] if root is not None else None,
            "ts": self.clock(),
            "events": [],
        }
        self._stories[key] = deque([story], maxlen=self.stories_per_prefix)
        return story

    def _record(self, prefix, event: Dict[str, object]) -> None:
        if prefix is None:
            self._update_events.append(event)
        else:
            self._story_for(prefix)["events"].append(event)

    # -- VMM hooks ---------------------------------------------------------

    def vmm_enter(self, ctx, point: str, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        span = self.spans.start("extension", parent, point=point, extension=name)
        self._stack.append(span)
        ctx.span = SpanRecorder.ref(span)

    def vmm_exit(
        self,
        ctx,
        point: str,
        name: str,
        outcome: str,
        verdict: Optional[int] = None,
        error: Optional[str] = None,
    ) -> None:
        if self._stack:
            self.spans.finish(self._stack.pop(), outcome=outcome)
        ctx.span = None
        if outcome == "return":
            self._last_return[point] = name
        event: Dict[str, object] = {
            "op": "extension",
            "point": point,
            "extension": name,
            "outcome": outcome,
        }
        if verdict is not None:
            event["verdict"] = verdict
        if error is not None:
            event["error"] = error
        self._record(ctx.prefix, event)

    def vmm_skip(self, ctx, point: str, name: str) -> None:
        """A quarantined code was skipped: the breaker, not the code,
        is responsible for whatever the native path does next."""
        self._record(
            ctx.prefix,
            {
                "op": "skip",
                "point": point,
                "extension": name,
                "reason": "quarantined",
                "by": "circuit-breaker",
            },
        )

    def vmm_fallback(self, ctx, point: str, name: str, error: str) -> None:
        self._record(
            ctx.prefix,
            {
                "op": "fallback",
                "point": point,
                "extension": name,
                "reason": "error",
                "error": error,
            },
        )

    def vmm_native(self, ctx, point: str) -> None:
        """The chain exhausted (every code delegated or none attached
        beyond skips): the native default ran."""
        self._record(ctx.prefix, {"op": "native", "point": point})

    # -- API hooks (repro.core.api) ----------------------------------------

    def record_api(self, ctx, op: str, **detail: object) -> None:
        event: Dict[str, object] = {"op": op}
        if self._stack:
            top = self._stack[-1]
            if top["kind"] == "extension":
                event["extension"] = top.get("extension")
                event["point"] = top.get("point")
        for key, value in detail.items():
            if isinstance(value, (bytes, bytearray)):
                value = bytes(value).hex()
            event[key] = value
        if "code" in event:
            event["attr"] = attr_name(event["code"])  # type: ignore[arg-type]
        self._record(ctx.prefix, event)

    # -- ingest / filter / decision / RIB / export hooks --------------------

    def record_withdraw(self, prefix, neighbor) -> None:
        self._record(
            prefix, {"op": "withdraw", "peer": _peer_name(neighbor)}
        )

    def record_filter(self, prefix, reason: str) -> None:
        self._record(prefix, {"op": "filtered", "reason": reason})

    def record_elimination(
        self, prefix, step: str, eliminated, kept, by: str = "native"
    ) -> None:
        """One pairwise decision: ``eliminated`` lost to ``kept`` at
        ladder ``step`` (or by an extension's verdict)."""
        if by == "extension":
            name = self._last_return.get("bgp_decision")
            if name:
                by = f"extension:{name}"
        event: Dict[str, object] = {
            "op": "decision",
            "step": step,
            "by": by,
            "kept": self._route_summary(kept),
        }
        if eliminated is not None:
            event["eliminated"] = self._route_summary(eliminated)
        self._record(prefix, event)

    @staticmethod
    def _route_summary(route) -> Dict[str, object]:
        if route is None:
            return {}
        source = route.source
        return {
            "peer": format_ipv4(source.peer_address) if source is not None else "local",
            "as_path_length": route.as_path_length(),
            "local_pref": route.local_pref(),
        }

    def rib_changed(self, action: str, prefix, route, previous) -> None:
        """Loc-RIB observer (wired to :attr:`LocRib.on_change`)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.point("rib", parent, prefix=str(prefix), action=action)
        event: Dict[str, object] = {"op": "rib", "action": action}
        if route is not None:
            event["best"] = self._route_summary(route)
        self._record(prefix, event)
        self._note_best(prefix, self._best_key(route))

    @staticmethod
    def _best_key(route) -> object:
        if route is None:
            return None
        return route.story_key()

    def _note_best(self, prefix, key: object) -> None:
        name = str(prefix)
        history = self._best_history.setdefault(name, [])
        if history and history[-1] == key:
            return
        if key is not None and key in history:
            # The best path went back to a path it had previously
            # abandoned: convergence never does this, oscillation
            # always does (eventually).
            self._revisits[name] = self._revisits.get(name, 0) + 1
        history.append(key)
        if len(history) > _HISTORY_LIMIT:
            del history[: len(history) - _HISTORY_LIMIT]
        if len(history) > 1:
            self._flaps[name] = self._flaps.get(name, 0) + 1
        self._last_change[name] = self.clock()

    def record_export(self, prefix, peer_address: int, action: str) -> None:
        self._record(
            prefix,
            {"op": "export", "peer": format_ipv4(peer_address), "action": action},
        )

    # -- convergence observability ------------------------------------------

    def flap_counts(self) -> Dict[str, int]:
        """Best-path changes per prefix beyond the initial install."""
        return dict(self._flaps)

    def oscillating(self, min_revisits: int = 2) -> List[str]:
        """Prefixes whose best path returned to a previously abandoned
        path at least ``min_revisits`` times."""
        return sorted(
            name
            for name, revisits in self._revisits.items()
            if revisits >= min_revisits
        )

    def time_of_last_change(self) -> float:
        """Clock value of the most recent best-path change (0 if none):
        on the simulated clock this is the time-to-quiescence."""
        return max(self._last_change.values(), default=0.0)

    def convergence_report(self) -> Dict[str, object]:
        return {
            "router": self.router,
            "flaps": self.flap_counts(),
            "revisits": dict(self._revisits),
            "oscillating": self.oscillating(),
            "time_of_last_change": self.time_of_last_change(),
        }

    # -- queries -----------------------------------------------------------

    def stories(self, prefix) -> List[Dict[str, object]]:
        """The buffered stories for ``prefix``, oldest first."""
        return list(self._stories.get(str(prefix), ()))

    def explain(self, prefix) -> Dict[str, object]:
        """Everything known about ``prefix``, JSON-able."""
        name = str(prefix)
        return {
            "router": self.router,
            "implementation": self.implementation,
            "prefix": name,
            "stories": self.stories(prefix),
            "flaps": self._flaps.get(name, 0),
            "oscillating": name in self.oscillating(),
        }

    def render_explain(self, prefix) -> str:
        """The full story of ``prefix`` as human-readable text."""
        report = self.explain(prefix)
        lines = [
            f"{report['prefix']} on {self.router} ({self.implementation})"
            f" — {report['flaps']} flap(s)"
            + (" [OSCILLATING]" if report["oscillating"] else "")
        ]
        stories = report["stories"]
        if not stories:
            lines.append("  no provenance recorded (prefix never seen?)")
            return "\n".join(lines)
        for index, story in enumerate(stories, 1):
            peer = story["peer"] or "local"
            lines.append(
                f"story #{index} [trace {story['trace']}] "
                f"learned from {peer} ({story['session']})"
            )
            for event in story["events"]:
                lines.append("  " + self._render_event(event))
        return "\n".join(lines)

    @staticmethod
    def _render_event(event: Dict[str, object]) -> str:
        op = event["op"]
        where = ""
        if event.get("extension"):
            where = f"{event.get('point')}/{event.get('extension')}: "
        if op == "extension":
            detail = f"outcome={event['outcome']}"
            if "verdict" in event:
                detail += f" verdict={event['verdict']}"
            if "error" in event:
                detail += f" error={event['error']!r}"
            return f"{where}{detail}"
        if op == "get_attr":
            found = "-> present" if event.get("found") else "-> absent"
            return f"{where}get_attr({event.get('attr')}) {found}"
        if op in ("set_attr", "add_attr"):
            value = event.get("value")
            shown = f" = {value}" if value is not None else ""
            ok = "" if event.get("ok", True) else " [refused]"
            return f"{where}{op}({event.get('attr')}){shown}{ok}"
        if op == "remove_attr":
            ok = "" if event.get("ok", True) else " [absent]"
            return f"{where}remove_attr({event.get('attr')}){ok}"
        if op == "skip":
            return (
                f"{event.get('point')}/{event.get('extension')} skipped "
                f"by {event.get('by')} (quarantined)"
            )
        if op == "fallback":
            return (
                f"{event.get('point')}/{event.get('extension')} FAULTED "
                f"({event.get('error')}); native fallback"
            )
        if op == "native":
            return f"{event.get('point')}: native default ran"
        if op == "filtered":
            return f"rejected: {event.get('reason')}"
        if op == "withdraw":
            return f"withdrawn by {event.get('peer')}"
        if op == "decision":
            kept = event.get("kept", {})
            eliminated = event.get("eliminated")
            if eliminated:
                return (
                    f"decision: kept via {kept.get('peer')} over "
                    f"via {eliminated.get('peer')} (step: {event.get('step')}, "
                    f"by {event.get('by')})"
                )
            return f"decision: only candidate via {kept.get('peer')}"
        if op == "rib":
            return f"loc-rib: {event.get('action')}"
        if op == "export":
            return f"export -> {event.get('peer')}: {event.get('action')}"
        extras = {k: v for k, v in event.items() if k != "op"}
        return f"{op}: {extras}"

    # -- export ------------------------------------------------------------

    def export_jsonl(self, destination: Union[str, io.TextIOBase]) -> int:
        """Stories + spans + convergence report as JSON Lines."""
        records: List[Dict[str, object]] = []
        for ring in self._stories.values():
            for story in ring:
                records.append({"type": "story", **story})
        for span in self.spans.spans():
            records.append({"type": "span", **span})
        records.append({"type": "convergence", **self.convergence_report()})
        if isinstance(destination, str):
            with open(destination, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        else:
            for record in records:
                destination.write(json.dumps(record) + "\n")
        return len(records)
