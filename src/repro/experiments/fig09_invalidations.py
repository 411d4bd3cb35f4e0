"""Figure 9: invalidation messages sent per write operation.

Paper: averaged across applications, a write causes 1.2 invalidations on
average with a maximum of 4.9 (on 16 nodes) — invalidation traffic stays
modest because sharer sets are small (Table I).
"""

from __future__ import annotations

from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult, with_average


def run(scale: float = 1.0, seed: int = 113, num_nodes: int = 16) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 9",
        title="Invalidation messages per write in Concord",
        columns=["app", "avg_invalidations", "max_invalidations"],
        note="Paper: average 1.2, maximum 4.9 across apps on 16 nodes.",
    )
    outcome = run_mixed_workload(
        scheme="concord", nodes=num_nodes, cores_per_node=2,
        utilization=0.5,
        duration_ms=4000.0 * scale, warmup_ms=1500.0 * scale, seed=seed)
    histograms = {app: access.invalidations_per_write
                  for app, access in outcome.per_app_access.items()}
    result.data = with_average([
        {"app": app, "avg_invalidations": histogram.mean,
         "max_invalidations": histogram.max}
        for app, histogram in histograms.items() if histogram.count
    ], "avg_invalidations", "max_invalidations")
    return result
