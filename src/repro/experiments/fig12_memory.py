"""Figure 12: memory consumed by one cache instance.

The caches live in the applications' allocated-but-unused container
memory; the paper measures 6.2 MB average / 12.6 MB maximum per cache
instance, roughly a tenth of the 56.8 MB of unused memory available.
"""

from __future__ import annotations

from repro.config import MB
from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult, with_average


def run(scale: float = 1.0, seed: int = 119) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 12",
        title="Cache-instance memory consumption (Concord)",
        columns=["app", "avg_instance_mb", "max_instance_mb"],
        note="Paper: 6.2MB average, 12.6MB maximum per instance.",
    )
    outcome = run_mixed_workload(
        scheme="concord", nodes=8, cores_per_node=4, utilization=0.5,
        capacity=None,  # real repurposed-memory budget
        duration_ms=4000.0 * scale, warmup_ms=1500.0 * scale, seed=seed)
    per_app: dict = {}
    for (app, _node), peak in outcome.cache_peaks.items():
        per_app.setdefault(app, []).append(peak)
    result.data = with_average([
        {"app": app, "avg_instance_mb": sum(peaks) / len(peaks) / MB,
         "max_instance_mb": max(peaks) / MB}
        for app, peaks in sorted(per_app.items())
    ], "avg_instance_mb", "max_instance_mb")
    return result
