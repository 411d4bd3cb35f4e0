"""Flight-recorder serialization: JSONL event records.

Byte-deterministic like the trace and telemetry exporters: one JSON
object per line in ``(t, seq)`` emission order, every object dumped with
``sort_keys=True`` and compact separators, nothing derived from object
identity or hash order.  Two identically-seeded runs — under any
``PYTHONHASHSEED`` — therefore produce identical dump bytes, and a
dump/load/dump round trip reproduces the file exactly.

``export_jsonl`` writes event by event (``jsonl_dumps`` joins the same
lines), so a dump — the recorder's automatic one included — never holds
the document.

Plain functions (not simulation processes), so file I/O here never
stalls a simulated clock.
"""

from __future__ import annotations

import json

__all__ = ["jsonl_dumps", "export_jsonl", "loads_events", "load_events"]

#: Fields every event record carries (load-time validation).
_REQUIRED = ("seq", "t", "type", "node", "key", "trace", "span", "tick",
             "attrs")


def _event_dicts(source):
    """Accept a FlightRecorder or an iterable of event dicts."""
    if hasattr(source, "iter_dicts"):
        return source.iter_dicts()
    return source


def _jsonl_lines(source):
    for event in _event_dicts(source):
        yield json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


def jsonl_dumps(source) -> str:
    """Serialize recorded events as one JSON object per line."""
    return "".join(_jsonl_lines(source))


def export_jsonl(source, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_jsonl_lines(source))


def loads_events(text: str) -> list:
    """Parse a JSONL dump into event dicts (validated, emission order)."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"line {lineno}: not an event object")
        missing = [field for field in _REQUIRED if field not in record]
        if missing:
            raise ValueError(
                f"line {lineno}: event record missing {missing}")
        events.append(record)
    return events


def load_events(path) -> list:
    """Read a flight-recorder JSONL dump into event dicts."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_events(handle.read())
