"""``xbgp top``: a live ANSI terminal dashboard, stdlib only.

Pure rendering over the time-series sample format: given a list of
samples (from a live exporter's ``/timeseries`` endpoint or a recorded
JSONL file) plus optional alert and health snapshots,
:func:`render_dashboard` produces one text frame —

* header: sample count, wall-clock span, overall replay progress;
* per-shard progress bars from the live replay gauges;
* rate sparklines (▁▂▃▄▅▆▇█) for the busiest counter families;
* histogram summaries (count, p50, p95) per family;
* the firing-alert table, critical rules first.

Everything is a pure function of its inputs so the renderer is unit-
testable without a terminal; the CLI loop around it just clears the
screen (``ESC[H ESC[2J``) and re-renders at an interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .aggregate import family_names, select
from .timeseries import counter_rates, counter_total, histogram_quantiles

__all__ = ["render_dashboard", "sparkline"]

_SPARK_TICKS = "▁▂▃▄▅▆▇█"

#: Gauge families the progress section is built from (ReplayProgress).
_PROGRESS_DONE = "xbgp_replay_progress_routes"
_PROGRESS_TOTAL = "xbgp_replay_shard_routes"
_PROGRESS_RATIO = "xbgp_replay_done_ratio"

#: Families the internal replay machinery owns; the counter table
#: shows workload counters, not the dashboard's own inputs.
_PROGRESS_PREFIX = "xbgp_replay_"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render values as a fixed-width Unicode sparkline."""
    if width < 1:
        return ""
    points = list(values)[-width:]
    if not points:
        return " " * width
    top = max(points)
    if top <= 0:
        return (_SPARK_TICKS[0] * len(points)).rjust(width)
    ticks = []
    for value in points:
        index = int((max(0.0, value) / top) * (len(_SPARK_TICKS) - 1))
        ticks.append(_SPARK_TICKS[index])
    return "".join(ticks).rjust(width)


def _bar(ratio: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, ratio)) * width))
    return "█" * filled + "·" * (width - filled)


def _by_shard(
    snapshot: Dict[str, object], family: str
) -> Optional[Dict[str, float]]:
    """``{shard: value}`` of a progress gauge (None when absent)."""
    info, rows = select(snapshot, family)
    if info is None:
        return None
    return {
        labels["shard"]: float(row.get("value", 0.0))
        for labels, row in rows
        if "shard" in labels
    }


def _shard_rows(sample: Dict[str, object]) -> List[Tuple[str, float, float]]:
    """``(shard, done, total)`` per shard from the progress gauges."""
    done = _by_shard(sample["registry"], _PROGRESS_DONE)
    total = _by_shard(sample["registry"], _PROGRESS_TOTAL)
    if done is None or total is None:
        return []
    return [
        (shard, done.get(shard, 0.0), total[shard])
        for shard in sorted(total, key=lambda s: (len(s), s))
    ]


def render_dashboard(
    samples: Sequence[Dict[str, object]],
    alerts: Optional[Dict[str, object]] = None,
    health: Optional[Dict[str, object]] = None,
    *,
    width: int = 78,
    max_counters: int = 6,
    max_histograms: int = 4,
    source: str = "",
) -> str:
    """One dashboard frame (see module docstring)."""
    lines: List[str] = []
    rule = "─" * width
    title = "xbgp top"
    if source:
        title += f" · {source}"
    lines.append(title)
    lines.append(rule)
    if not samples:
        lines.append("(no samples yet)")
        return "\n".join(lines)
    last = samples[-1]
    span = float(last["ts"]) - float(samples[0]["ts"])
    status = ""
    if health is not None:
        status = f" · health {health.get('status', '?')}"
    lines.append(
        f"samples {len(samples)} · span {span:.1f}s"
        f" · last seq {last.get('seq', '?')}{status}"
    )

    # -- replay progress -------------------------------------------------
    shard_rows = _shard_rows(last)
    if shard_rows:
        lines.append(rule)
        ratio = counter_total(last, _PROGRESS_RATIO)
        header = "replay progress"
        if ratio is not None:
            header += f" · total {min(1.0, ratio) * 100.0:.1f}%"
        lines.append(header)
        for shard, done, total in shard_rows:
            part = done / total if total else 1.0
            lines.append(
                f"  shard {shard:>3} {_bar(part)}"
                f" {int(done)}/{int(total)} ({part * 100.0:.0f}%)"
            )

    # -- counter rates ---------------------------------------------------
    counters = [
        name
        for name in family_names(last["registry"], "counter")
        if not name.startswith(_PROGRESS_PREFIX)
    ]
    if counters:
        lines.append(rule)
        lines.append("counters (rate/s, total)")
        totals = {name: counter_total(last, name) or 0.0 for name in counters}
        ranked = sorted(counters, key=lambda name: -totals[name])[:max_counters]
        name_width = max(len(name) for name in ranked)
        for name in ranked:
            rates = counter_rates(samples, name)
            current = rates[-1][1] if rates else 0.0
            lines.append(
                f"  {name:<{name_width}} "
                f"{sparkline([rate for _, rate in rates])}"
                f" {current:>10.1f}/s {totals[name]:>12g}"
            )
        dropped = len(counters) - len(ranked)
        if dropped > 0:
            lines.append(f"  … {dropped} more counter familie(s) not shown")

    # -- histogram summaries ---------------------------------------------
    histograms = family_names(last["registry"], "histogram")
    if histograms:
        lines.append(rule)
        lines.append("histograms (cumulative)")
        shown = histograms[:max_histograms]
        name_width = max(len(name) for name in shown)
        for name in shown:
            summary = histogram_quantiles(last, name, (0.5, 0.95))
            if summary is None:
                continue
            lines.append(
                f"  {name:<{name_width}} count {summary['count']:>10g}"
                f"  p50 {summary['p50']:.6g}  p95 {summary['p95']:.6g}"
            )
        dropped = len(histograms) - len(shown)
        if dropped > 0:
            lines.append(f"  … {dropped} more histogram familie(s) not shown")

    # -- alerts ----------------------------------------------------------
    if alerts is not None and alerts.get("rules"):
        lines.append(rule)
        firing = [r for r in alerts["rules"] if r.get("state") == "firing"]
        firing.sort(key=lambda r: (r.get("severity") != "critical", r.get("rule")))
        lines.append(
            f"alerts · {len(firing)} firing / {len(alerts['rules'])} rules"
        )
        for row in firing:
            value = row.get("value")
            shown_value = f"{value:g}" if isinstance(value, (int, float)) else "∅"
            lines.append(
                f"  [{str(row.get('severity', '?')).upper():<8}]"
                f" {row.get('rule')} · value {shown_value}"
                f" · fired {row.get('fires', 0)}×"
            )
        if not firing:
            lines.append("  all quiet")
    lines.append(rule)
    return "\n".join(lines)
