"""repro.obs — the flight recorder and post-mortem inspection tooling.

A typed, sim-clock-stamped protocol event log (:mod:`repro.obs.events`,
:mod:`repro.obs.recorder`) emitted by every protocol layer, carried in a
bounded ring buffer with a zero-cost Null sink, dumped to byte-
deterministic JSONL (:mod:`repro.obs.export`), and interrogated through
merged timelines (:mod:`repro.obs.timeline`), causal explanations
(:mod:`repro.obs.explain`) and the ``repro-inspect`` CLI
(:mod:`repro.obs.cli`), which reads every recorded log of a run.

Only the recorder is imported with the package; the export, timeline
and explain names load on first use.
"""

from repro import lazy_exports
from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    NULL_RECORDER,
    FlightRecorder,
    NullRecorder,
    ProtoEvent,
)

__getattr__ = lazy_exports(__name__, {
    "explain": ("diagnose", "explain_key", "find_violations"),
    "export": ("export_jsonl", "jsonl_dumps", "load_events", "loads_events"),
    "timeline": ("merge_timeline", "render_html", "render_text"),
})

__all__ = [
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "ProtoEvent",
    "DEFAULT_CAPACITY",
    "jsonl_dumps",
    "export_jsonl",
    "loads_events",
    "load_events",
    "merge_timeline",
    "render_text",
    "render_html",
    "explain_key",
    "diagnose",
    "find_violations",
]
