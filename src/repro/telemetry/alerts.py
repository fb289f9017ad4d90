"""Declarative alert rules evaluated against a metric time-series.

A rule watches one metric family through a **signal** — its current
``value`` (counters/gauges, summed across matching series), its
per-second ``rate`` between consecutive samples, a histogram quantile
(``p50``/``p95``/``p99`` over the cumulative distribution), or
``absent`` (the family has no matching series at all) — and fires when
the condition holds, optionally only after holding *continuously* for
``for_seconds`` (sustain).  The compact expression grammar mirrors how
the rules read aloud:

``[warning:|critical:] <family>[{label=value,...}] [<signal>] <op> <bound> [for <N>s]``
``[warning:|critical:] <family>[{label=value,...}] absent [for <N>s]``

Examples::

    xbgp_quarantine_transitions > 0
    warning: xbgp_extension_executions rate < 100 for 10s
    xbgp_extension_run_seconds p95 > 0.5
    xbgp_replay_done_ratio absent for 5s
    xbgp_extension_errors{point=BGP_INBOUND_FILTER} > 0

Severity defaults to ``critical`` — a firing critical rule turns the
exporter's ``/health`` into a 503 and makes ``xbgp bench``'s alert
gate exit non-zero, so an unlabeled rule fails safe.

:class:`AlertEngine` holds the rule set plus per-rule state
(ok → pending → firing), consumes samples incrementally via
:meth:`~AlertEngine.observe` (or a whole recorded series via
:meth:`~AlertEngine.evaluate`), and emits schema'd ``alert_fire`` /
``alert_resolve`` events into an :class:`~repro.telemetry.events
.EventLog` on state transitions.  ``rate`` conditions need two samples;
the first sample of a series can therefore never fire a rate rule.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import EventLog
from .records import numbered_lines
from .timeseries import counter_rates, counter_total, histogram_quantiles

__all__ = [
    "ALERT_SEVERITIES",
    "ALERT_SIGNALS",
    "AlertEngine",
    "AlertRule",
    "AlertRuleError",
    "load_rules",
    "parse_rule",
]

ALERT_SEVERITIES = ("warning", "critical")

ALERT_SIGNALS = ("value", "rate", "p50", "p95", "p99", "absent")

_OPS = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_RULE_RE = re.compile(
    r"""^
    (?:(?P<severity>warning|critical)\s*:\s*)?
    (?P<family>[A-Za-z_:][A-Za-z0-9_:]*)
    (?:\{(?P<selector>[^}]*)\})?
    \s*
    (?:
        (?P<absent>absent)
        |
        (?:(?P<signal>value|rate|p50|p95|p99)\s+)?
        (?P<op>>=|<=|==|!=|>|<)\s*
        (?P<bound>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    )
    (?:\s+for\s+(?P<sustain>\d+(?:\.\d+)?)s?)?
    $""",
    re.VERBOSE,
)


class AlertRuleError(ValueError):
    """A rule expression does not parse or is semantically invalid."""


class AlertRule:
    """One parsed rule (see module docstring for the grammar)."""

    __slots__ = (
        "name",
        "family",
        "selector",
        "signal",
        "op",
        "bound",
        "for_seconds",
        "severity",
    )

    def __init__(
        self,
        family: str,
        signal: str = "value",
        op: str = ">",
        bound: float = 0.0,
        *,
        selector: Optional[Dict[str, str]] = None,
        for_seconds: float = 0.0,
        severity: str = "critical",
        name: Optional[str] = None,
    ) -> None:
        if signal not in ALERT_SIGNALS:
            raise AlertRuleError(f"unknown signal {signal!r}")
        if signal != "absent" and op not in _OPS:
            raise AlertRuleError(f"unknown operator {op!r}")
        if severity not in ALERT_SEVERITIES:
            raise AlertRuleError(f"unknown severity {severity!r}")
        if for_seconds < 0:
            raise AlertRuleError("for_seconds must be >= 0")
        self.family = family
        self.selector = dict(selector or {})
        self.signal = signal
        self.op = op
        self.bound = float(bound)
        self.for_seconds = float(for_seconds)
        self.severity = severity
        self.name = name if name else self.expression()

    def expression(self) -> str:
        """The canonical expression string for this rule."""
        selector = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(self.selector.items())) + "}"
            if self.selector
            else ""
        )
        if self.signal == "absent":
            condition = "absent"
        else:
            signal = "" if self.signal == "value" else f"{self.signal} "
            condition = f"{signal}{self.op} {self.bound:g}"
        sustain = f" for {self.for_seconds:g}s" if self.for_seconds else ""
        return f"{self.severity}: {self.family}{selector} {condition}{sustain}"

    # -- evaluation ------------------------------------------------------

    def measure(
        self,
        sample: Dict[str, object],
        prev_sample: Optional[Dict[str, object]] = None,
    ) -> Optional[float]:
        """The signal's value at ``sample`` (None = not measurable)."""
        if self.signal == "absent":
            # Any matching series, histograms included, counts as present.
            present = counter_total(sample, self.family, self.selector)
            return 0.0 if present is not None else None
        if self.signal == "value":
            return counter_total(sample, self.family, self.selector)
        if self.signal == "rate":
            if prev_sample is None:
                return None
            rates = counter_rates(
                [prev_sample, sample], self.family, self.selector
            )
            return rates[-1][1] if rates else None
        q = {"p50": 0.5, "p95": 0.95, "p99": 0.99}[self.signal]
        summary = histogram_quantiles(sample, self.family, (q,), self.selector)
        if summary is None or summary["count"] <= 0:
            return None
        return summary[f"p{int(round(q * 100))}"]

    def breached(
        self,
        sample: Dict[str, object],
        prev_sample: Optional[Dict[str, object]] = None,
    ) -> Tuple[bool, Optional[float]]:
        """``(condition holds, measured value)`` at one sample."""
        value = self.measure(sample, prev_sample)
        if self.signal == "absent":
            return value is None, value
        if value is None:
            return False, None
        return _OPS[self.op](value, self.bound), value


def parse_rule(expression: str) -> AlertRule:
    """Parse one rule expression (see module docstring)."""
    text = expression.strip()
    match = _RULE_RE.match(text)
    if not match:
        raise AlertRuleError(f"cannot parse alert rule: {expression!r}")
    selector: Dict[str, str] = {}
    raw_selector = match.group("selector")
    if raw_selector:
        for pair in raw_selector.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise AlertRuleError(
                    f"bad selector {pair!r} in {expression!r} (want label=value)"
                )
            key, value = pair.split("=", 1)
            selector[key.strip()] = value.strip().strip('"')
    if match.group("absent"):
        signal, op, bound = "absent", ">", 0.0
    else:
        signal = match.group("signal") or "value"
        op = match.group("op")
        bound = float(match.group("bound"))
    return AlertRule(
        match.group("family"),
        signal,
        op,
        bound,
        selector=selector,
        for_seconds=float(match.group("sustain") or 0.0),
        severity=match.group("severity") or "critical",
    )


def load_rules(path: str) -> List[AlertRule]:
    """Load rules from a file: one expression per line, ``#`` comments."""
    rules: List[AlertRule] = []
    with open(path) as handle:
        for line_number, line in numbered_lines(handle):
            if line.startswith("#"):
                continue
            try:
                rules.append(parse_rule(line))
            except AlertRuleError as exc:
                raise AlertRuleError(f"{path}:{line_number}: {exc}")
    return rules


class AlertEngine:
    """Rule set + per-rule state machine (ok → pending → firing)."""

    def __init__(
        self,
        rules: Iterable[AlertRule],
        events: Optional[EventLog] = None,
    ) -> None:
        self.rules: List[AlertRule] = list(rules)
        names = [rule.name for rule in self.rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise AlertRuleError(f"duplicate rule name(s): {sorted(duplicates)}")
        self.events = events
        self._prev_sample: Optional[Dict[str, object]] = None
        #: rule name -> {"state", "pending_since", "fired_at", "value", "fires"}
        self._state: Dict[str, Dict[str, object]] = {
            rule.name: {
                "state": "ok",
                "pending_since": None,
                "fired_at": None,
                "value": None,
                "fires": 0,
            }
            for rule in self.rules
        }

    # -- intake ----------------------------------------------------------

    def observe(self, sample: Dict[str, object]) -> List[Dict[str, object]]:
        """Fold one sample in; returns the transition events (if any)."""
        transitions: List[Dict[str, object]] = []
        ts = float(sample["ts"])
        for rule in self.rules:
            state = self._state[rule.name]
            breached, value = rule.breached(sample, self._prev_sample)
            state["value"] = value
            if breached:
                if state["state"] == "ok":
                    state["state"] = "pending"
                    state["pending_since"] = ts
                if (
                    state["state"] == "pending"
                    and ts - float(state["pending_since"]) >= rule.for_seconds
                ):
                    state["state"] = "firing"
                    state["fired_at"] = ts
                    state["fires"] = int(state["fires"]) + 1
                    transitions.append(self._emit_fire(rule, ts, value))
            else:
                if state["state"] == "firing":
                    transitions.append(self._emit_resolve(rule, ts))
                state["state"] = "ok"
                state["pending_since"] = None
        self._prev_sample = sample
        return transitions

    def evaluate(
        self, samples: Sequence[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Replay a whole series; returns all transition events."""
        transitions: List[Dict[str, object]] = []
        for sample in samples:
            transitions.extend(self.observe(sample))
        return transitions

    def _emit_fire(
        self, rule: AlertRule, ts: float, value: Optional[float]
    ) -> Dict[str, object]:
        event = {
            "event": "alert_fire",
            "ts": ts,
            "rule": rule.name,
            "severity": rule.severity,
            "value": value,
        }
        if self.events is not None:
            return self.events.append(dict(event))
        return event

    def _emit_resolve(self, rule: AlertRule, ts: float) -> Dict[str, object]:
        event = {
            "event": "alert_resolve",
            "ts": ts,
            "rule": rule.name,
            "severity": rule.severity,
        }
        if self.events is not None:
            return self.events.append(dict(event))
        return event

    # -- inspection ------------------------------------------------------

    def firing(self) -> List[Dict[str, object]]:
        """Rows for every currently firing rule."""
        return [row for row in self.snapshot()["rules"] if row["state"] == "firing"]

    def has_critical(self) -> bool:
        """True while any critical rule is firing (drives /health 503)."""
        return any(
            self._state[rule.name]["state"] == "firing"
            and rule.severity == "critical"
            for rule in self.rules
        )

    def ever_fired(self, severity: Optional[str] = None) -> List[str]:
        """Names of rules that fired at least once (the CI exit gate)."""
        return [
            rule.name
            for rule in self.rules
            if int(self._state[rule.name]["fires"]) > 0
            and (severity is None or rule.severity == severity)
        ]

    def snapshot(self) -> Dict[str, object]:
        """JSON-able engine state (the ``/alerts`` endpoint body)."""
        rows = []
        for rule in self.rules:
            state = self._state[rule.name]
            rows.append(
                {
                    "rule": rule.name,
                    "family": rule.family,
                    "signal": rule.signal,
                    "severity": rule.severity,
                    "state": state["state"],
                    "value": state["value"],
                    "fires": state["fires"],
                    "fired_at": state["fired_at"],
                }
            )
        firing = [row for row in rows if row["state"] == "firing"]
        return {
            "rules": rows,
            "firing": len(firing),
            "critical_firing": self.has_critical(),
        }
