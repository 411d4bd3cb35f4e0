"""Trace serialization: the Chrome ``trace_event`` document, and back.

Chrome ``trace_event`` is the trace's one export format: it loads
directly in Perfetto / ``chrome://tracing`` — one ``pid`` for the run,
one ``tid`` lane per simulator process, complete (``ph: "X"``) events
in microseconds — and ``repro-inspect breakdown`` and ``timeline``
read it back.  The writer is byte-deterministic for a given simulation:
spans are emitted sorted by span id (creation order), every JSON object
is dumped with ``sort_keys=True``, and nothing derived from object
identity or hash order reaches the output.

The writer is a generator of text chunks, one span per chunk, over
``Tracer.iter_dicts()``: :func:`chrome_dumps` joins them,
:func:`export_chrome` hands them to the file one by one, so writing a
trace costs the memory of the spans that ended out of order, not of the
document.  These are plain functions (not simulation processes), so file
I/O here never stalls a simulated clock.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator


def _span_dicts(source) -> Iterable[dict]:
    """Accept a Tracer or an iterable of span dicts; sorted by span id."""
    if hasattr(source, "iter_dicts"):
        return source.iter_dicts()
    return sorted(source, key=lambda s: s["span_id"])


def _json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _chrome_events(source, lane_names=None) -> Iterator[dict]:
    if lane_names is None:
        lane_names = source.lane_names() if hasattr(source, "lane_names") else {}
    for tid in sorted(lane_names):
        yield {
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": lane_names[tid]},
        }
    for span in _span_dicts(source):
        args = dict(span.get("attrs") or {})
        args["trace_id"] = span["trace_id"]
        args["span_id"] = span["span_id"]
        if span.get("parent_id") is not None:
            args["parent_id"] = span["parent_id"]
        yield {
            "ph": "X",
            "pid": 1,
            "tid": span.get("tid", 0),
            "name": span["name"],
            "cat": span["category"],
            # trace_event timestamps are microseconds; sim time is ms.
            "ts": span["start_ms"] * 1000.0,
            "dur": (span["end_ms"] - span["start_ms"]) * 1000.0,
            "args": args,
        }


def _chrome_chunks(source, lane_names=None) -> Iterator[str]:
    yield '{"displayTimeUnit": "ms",\n "traceEvents": [\n  '
    separator = ""
    for event in _chrome_events(source, lane_names):
        yield separator + _json(event)
        separator = ",\n  "
    yield "\n ]}\n"


def chrome_dumps(source, lane_names=None) -> str:
    """Serialize as a Chrome trace_event JSON document."""
    return "".join(_chrome_chunks(source, lane_names))


def export_chrome(source, path, lane_names=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_chrome_chunks(source, lane_names))


def _spans_from_chrome(document: dict) -> list:
    spans = []
    for index, event in enumerate(document.get("traceEvents", [])):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}]: not an event object")
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        trace_id = args.pop("trace_id", None)
        span_id = args.pop("span_id", None)
        if trace_id is None or span_id is None:
            raise ValueError(f"traceEvents[{index}]: span without "
                             "trace_id / span_id")
        parent_id = args.pop("parent_id", None)
        start_ms = event.get("ts", 0.0) / 1000.0
        duration_ms = event.get("dur", 0.0) / 1000.0
        spans.append({
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": event.get("name", ""),
            "category": event.get("cat", "span"),
            "start_ms": start_ms,
            "end_ms": start_ms + duration_ms,
            "duration_ms": duration_ms,
            "attrs": args,
            "tid": event.get("tid", 0),
        })
    return spans


def loads_trace(text: str) -> list:
    """Parse a Chrome trace_event document into a list of span dicts."""
    if not text.strip():
        return []
    document = json.loads(text)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace_event document")
    return _spans_from_chrome(document)


def load_trace(path) -> list:
    """Read a Chrome trace file into span dicts."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_trace(handle.read())
