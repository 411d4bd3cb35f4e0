"""Time-series telemetry: instruments, sampling, export, summaries.

The public surface:

* :class:`MetricsRegistry` / :data:`NULL_REGISTRY` — labeled
  ``Counter`` / ``Gauge`` instruments, each child a pull callback over
  state a layer already keeps, attached to a run via
  ``Simulator(metrics=...)``.
* :class:`Sampler` — sim-process snapshotting every instrument on a
  fixed simulated-clock interval into the registry's
  :class:`TimeSeriesStore`.
* The one export format, JSONL — :func:`jsonl_dumps` /
  :func:`export_jsonl`, byte-deterministic — and :func:`load_series` /
  :func:`loads_series`, which read it back.
* The summaries ``repro-inspect metrics`` prints — per-series
  statistics, sparklines and a per-node utilization table.

See DESIGN.md §8 for the telemetry model and its determinism contract.
Instruments, sampler and store are imported with the package; the
exporters and summaries load on first use.
"""

from repro import lazy_exports
from repro.telemetry.registry import (
    Counter,
    Gauge,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.telemetry.sampler import Sampler
from repro.telemetry.store import Series, TimeSeriesStore

__getattr__ = lazy_exports(__name__, {
    "export": ("export_jsonl", "jsonl_dumps", "load_series", "loads_series"),
    "summary": ("render_sparkline", "series_stats", "utilization_summary"),
})

__all__ = [
    "Counter",
    "Gauge",
    "MetricError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Sampler",
    "Series",
    "TimeSeriesStore",
    "export_jsonl",
    "jsonl_dumps",
    "load_series",
    "loads_series",
    "render_sparkline",
    "series_stats",
    "utilization_summary",
]
