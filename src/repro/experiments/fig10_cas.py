"""Figure 10: effect of coherence-aware invocation scheduling.

Concord No CAS already packs same-function invocations, but ignores which
*data* an invocation touches; hashing the invocation inputs (CAS) raises
local hit rates and cuts average request latency by ~11 % (paper VI-A).
"""

from __future__ import annotations

from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult, with_average


def run(scale: float = 1.0, seed: int = 115) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 10",
        title="Request latency: Concord No CAS vs Concord",
        columns=["app", "nocas_ms", "concord_ms", "reduction_pct"],
        note="Paper: CAS reduces average request latency by 11%.",
    )
    nocas, cas = (
        run_mixed_workload(
            scheme=scheme, nodes=8, cores_per_node=4, utilization=0.5,
            duration_ms=4000.0 * scale, warmup_ms=1500.0 * scale, seed=seed)
        for scheme in ("concord-nocas", "concord"))
    rows = []
    for app, stats in cas.per_app.items():
        nocas_ms = nocas.per_app[app].mean_latency_ms
        rows.append({
            "app": app, "nocas_ms": nocas_ms,
            "concord_ms": stats.mean_latency_ms,
            "reduction_pct": 100.0 * (1.0 - stats.mean_latency_ms / nocas_ms),
        })
    result.data = with_average(rows, "reduction_pct")
    return result
