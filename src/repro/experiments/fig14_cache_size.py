"""Figure 14: Concord's speedup over OFC as cache capacity varies.

Tiny caches thrash (little benefit); the speedup grows with capacity and
saturates once the application working set fits — around 6-7 MB in the
paper, at a speedup of ~2.5x.
"""

from __future__ import annotations

from repro.config import KB, MB
from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult

CACHE_SIZES = (
    64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB,
)


def run(scale: float = 1.0, seed: int = 123) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 14",
        title="Speedup of Concord over OFC vs cache size (medium load)",
        columns=["cache_size_kb", "concord_ms", "ofc_ms", "speedup"],
        note="Paper: little benefit at tens of KB, saturates ~6-7MB at 2.5x.",
    )
    means = {
        (size, scheme): run_mixed_workload(
            scheme=scheme, nodes=8, cores_per_node=4, utilization=0.5,
            capacity=size,
            # OFC's single per-node cache is shared by all 7 apps; give
            # it the same per-app budget for a fair sweep.
            ofc_shared_capacity=size * 7,
            duration_ms=3000.0 * scale, warmup_ms=1500.0 * scale,
            seed=seed).mean_latency()
        for size in CACHE_SIZES for scheme in ("concord", "ofc")
    }
    result.data = [{
        "cache_size_kb": size // KB,
        "concord_ms": means[size, "concord"],
        "ofc_ms": means[size, "ofc"],
        "speedup": means[size, "ofc"] / means[size, "concord"],
    } for size in CACHE_SIZES]
    return result
