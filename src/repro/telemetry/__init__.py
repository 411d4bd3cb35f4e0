"""Time-series telemetry: instruments, sampling, export, anomaly rules.

The public surface:

* :class:`MetricsRegistry` / :data:`NULL_REGISTRY` — labeled
  ``Counter`` / ``Gauge`` / ``HistogramMetric`` instruments, attached to
  a run via ``Simulator(metrics=...)``.
* :class:`Sampler` — sim-process snapshotting every instrument on a
  fixed simulated-clock interval into the registry's
  :class:`TimeSeriesStore`.
* Exporters — :func:`jsonl_dumps` / :func:`csv_dumps` /
  :func:`prometheus_dumps` (and ``export_*`` file writers), all
  byte-deterministic.
* :func:`detect_anomalies` — rule-based SLO/anomaly windows over
  simulated time (invalidation storms, CPU queue buildup, hit-ratio
  collapse, optional latency SLO).

See DESIGN.md §8 for the telemetry model and its determinism contract.
Instruments, sampler and store are imported with the package; the
exporters, anomaly rules and summaries load on first use.
"""

from repro import lazy_exports
from repro.telemetry.registry import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.telemetry.sampler import Sampler
from repro.telemetry.store import Series, TimeSeriesStore

__getattr__ = lazy_exports(__name__, {
    "anomaly": ("Anomaly", "detect_anomalies", "detect_cpu_queue_buildup",
                "detect_hit_ratio_collapse", "detect_invalidation_storm",
                "detect_slo_latency"),
    "export": ("csv_dumps", "export_csv", "export_jsonl", "export_prometheus",
               "jsonl_dumps", "load_series", "prometheus_dumps"),
    "summary": ("render_sparkline", "series_stats", "utilization_summary"),
})

__all__ = [
    "Anomaly",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Sampler",
    "Series",
    "TimeSeriesStore",
    "csv_dumps",
    "detect_anomalies",
    "detect_cpu_queue_buildup",
    "detect_hit_ratio_collapse",
    "detect_invalidation_storm",
    "detect_slo_latency",
    "export_csv",
    "export_jsonl",
    "export_prometheus",
    "jsonl_dumps",
    "load_series",
    "prometheus_dumps",
    "render_sparkline",
    "series_stats",
    "utilization_summary",
]
