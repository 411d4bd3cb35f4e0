"""Table I: average/maximum number of node sharers per data item.

Measured on a 16-node cluster while running HotelBook, TrainT, eShop and
SocNet under low, medium and high load — by sampling the sizes of the
sharer sets in Concord's data directories.
"""

from __future__ import annotations

from repro.experiments.runner import LOAD_LEVELS, run_mixed_workload
from repro.experiments.tables import ExperimentResult

APPS = ("HotelBook", "TrainT", "eShop", "SocNet")


def run(scale: float = 1.0, seed: int = 105, num_nodes: int = 16) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Table I",
        title=f"Avg/Max data-item sharers on a {num_nodes}-node cluster",
        columns=["app", "low", "medium", "high"],
        note="Paper averages: 1.7/6.5 (low), 2.2/8.5 (medium), 3.0/10.8 (high).",
    )
    runs = {
        load: run_mixed_workload(
            scheme="concord", apps=APPS, nodes=num_nodes, cores_per_node=2,
            utilization=utilization,
            duration_ms=4000.0 * scale, warmup_ms=1500.0 * scale, seed=seed)
        for load, utilization in LOAD_LEVELS.items()
    }
    cells = {app: {} for app in APPS}
    averages = {}
    for load, outcome in runs.items():
        load_avgs, load_maxes = [], []
        for app in APPS:
            samples = outcome.sharer_samples_per_app.get(app, [])
            if samples:
                avg = sum(s[0] for s in samples) / len(samples)
                peak = max(s[1] for s in samples)
            else:
                avg, peak = 0.0, 0
            cells[app][load] = f"{avg:.1f}/{peak}"
            load_avgs.append(avg)
            load_maxes.append(peak)
        averages[load] = (
            f"{sum(load_avgs) / len(load_avgs):.1f}/"
            f"{sum(load_maxes) / len(load_maxes):.1f}"
        )
    for app in APPS:
        result.data.append({"app": app, **cells[app]})
    result.data.append({"app": "Average", **averages})
    return result
