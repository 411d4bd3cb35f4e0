"""Merged post-mortem timelines: events + trace spans + metric ticks.

:func:`merge_timeline` joins the three observability signals of one run
— flight-recorder events, completed trace spans, and sampled metric
timelines — into a single list of rows ordered by simulated time, window
filtered with the shared ``--since/--until`` semantics.  The joins need
no heuristics because the signals were correlated at the source: every
event carries the ambient ``trace``/``span`` ids and the metric ``tick``
current at emission.

Renderers: :func:`render_text` (ASCII, one row per line) and
:func:`render_html` (a self-contained table for sharing).  Both are
deterministic for a given input.
"""

from __future__ import annotations

from html import escape
from typing import Optional

from repro.cli_common import in_window, overlaps_window

__all__ = ["merge_timeline", "render_text", "render_html"]

#: Same-instant tie-break: metric ticks first (they describe the state
#: entering the instant), then span starts, then events (seq-ordered).
_ORDER = {"metric": 0, "span": 1, "event": 2}


def _attr_str(attrs: dict) -> str:
    return " ".join(f"{name}={attrs[name]}" for name in sorted(attrs))


def merge_timeline(
    events: list,
    spans: Optional[list] = None,
    series: Optional[list] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> dict:
    """Join the three signals into time-ordered rows.

    ``events`` are flight-recorder event dicts, ``spans`` trace-export
    span dicts, ``series`` telemetry-export series dicts.  Spans are
    kept when they *overlap* the window; point signals when they fall
    inside it.  Returns ``{"window", "rows", "counts"}``.
    """
    rows: list = []
    counts = {"events": 0, "spans": 0, "ticks": 0}

    for event in events:
        t = event["t"]
        if not in_window(t, since, until):
            continue
        counts["events"] += 1
        rows.append({
            "t": t,
            "source": "event",
            "seq": event["seq"],
            "type": event["type"],
            "node": event["node"],
            "key": event["key"],
            "trace": event["trace"],
            "span": event["span"],
            "tick": event["tick"],
            "attrs": dict(event.get("attrs") or {}),
        })

    for span in spans or []:
        start = span["start_ms"]
        end = span.get("end_ms", start)
        if not overlaps_window(start, end, since, until):
            continue
        counts["spans"] += 1
        rows.append({
            "t": start,
            "source": "span",
            "seq": span["span_id"],
            "name": span["name"],
            "category": span.get("category", "span"),
            "end_ms": end,
            "trace": span["trace_id"],
            "span": span["span_id"],
            "parent": span.get("parent_id"),
            "attrs": dict(span.get("attrs") or {}),
        })

    # Metric sample instants: one row per distinct sampling time, carrying
    # the tick index events were stamped with (tick k = k samples done).
    instants: dict = {}
    for one in series or []:
        for t, _value in one.get("points", ()):
            instants[t] = instants.get(t, 0) + 1
    for tick, t in enumerate(sorted(instants), start=1):
        if not in_window(t, since, until):
            continue
        counts["ticks"] += 1
        rows.append({
            "t": t,
            "source": "metric",
            "seq": tick,
            "tick": tick,
            "points": instants[t],
        })

    rows.sort(key=lambda row: (row["t"], _ORDER[row["source"]], row["seq"]))
    return {
        "window": [since, until],
        "rows": rows,
        "counts": counts,
    }


def _describe(row: dict) -> tuple:
    """``(what, attrs, ids, tick)``: the parts of a row both renderers
    show — what happened, its attrs, its ``t<trace>/s<span>`` ids and
    its metric tick, each ``""`` where the row has none."""
    if row["source"] == "metric":
        return (f"tick {row['tick']}: {row['points']} series sampled",
                "", "", str(row["tick"]))
    ids = f"t{row['trace']}/s{row['span']}"
    attrs = _attr_str(row["attrs"])
    if row["source"] == "span":
        return (f"{row['category']}:{row['name']} "
                f"[{row['t']:.3f}..{row['end_ms']:.3f}]ms", attrs, ids, "")
    bits = [row["type"]]
    if row["node"]:
        bits.append(row["node"])
    if row["key"]:
        bits.append(f"key={row['key']}")
    return (" ".join(bits), attrs, ids if row["span"] else "",
            str(row["tick"]))


def _spaced(text: str) -> str:
    return f" {text}" if text else ""


#: One text line per source; each optional part arrives ``_spaced``.
_TEXT_ROW = {
    "metric": "{t:>12.3f}  metric  {what}",
    "span": "{t:>12.3f}  span    {what}{ids}{attrs}",
    "event": "{t:>12.3f}  event  {what}{attrs}{ids} tick={tick}",
}


def _row_text(row: dict) -> str:
    what, attrs, ids, tick = _describe(row)
    return _TEXT_ROW[row["source"]].format(
        t=row["t"], what=what, attrs=_spaced(attrs), ids=_spaced(ids),
        tick=tick)


def render_text(timeline: dict, title: str = "timeline") -> str:
    """ASCII rendering: a header plus one line per row."""
    since, until = timeline["window"]
    lo = "start" if since is None else f"{since:.3f}"
    hi = "end" if until is None else f"{until:.3f}"
    counts = timeline["counts"]
    lines = [
        f"{title}: window=[{lo}, {hi}]ms "
        f"events={counts['events']} spans={counts['spans']} "
        f"metric_ticks={counts['ticks']}",
        f"{'t(ms)':>12}  source  what",
    ]
    lines.extend(_row_text(row) for row in timeline["rows"])
    return "\n".join(lines) + "\n"


_HTML_HEAD = """\
<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title><style>
body {{ font-family: monospace; margin: 1.5em; }}
table {{ border-collapse: collapse; }}
td, th {{ border: 1px solid #ccc; padding: 2px 8px; text-align: left; }}
tr.event td {{ background: #f6fff6; }}
tr.span td {{ background: #f2f6ff; }}
tr.metric td {{ background: #fffbe8; }}
</style></head><body>
<h1>{title}</h1>
<p>window=[{lo}, {hi}]ms &mdash; {events} events, {spans} spans,
{ticks} metric ticks</p>
<table>
<tr><th>t (ms)</th><th>source</th><th>what</th><th>trace/span</th>
<th>tick</th></tr>
"""


def render_html(timeline: dict, title: str = "timeline") -> str:
    """Self-contained HTML table of the merged timeline."""
    since, until = timeline["window"]
    counts = timeline["counts"]
    parts = [_HTML_HEAD.format(
        title=escape(title),
        lo="start" if since is None else f"{since:.3f}",
        hi="end" if until is None else f"{until:.3f}",
        events=counts["events"], spans=counts["spans"],
        ticks=counts["ticks"])]
    for row in timeline["rows"]:
        what, attrs, ids, tick = _describe(row)
        parts.append(
            f'<tr class="{row["source"]}"><td>{row["t"]:.3f}</td>'
            f"<td>{row['source']}</td>"
            f"<td>{escape(what + _spaced(attrs))}</td>"
            f"<td>{escape(ids)}</td><td>{tick}</td></tr>\n")
    parts.append("</table></body></html>\n")
    return "".join(parts)
