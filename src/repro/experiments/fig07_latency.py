"""Figure 7: request latency of OFC, Faa$T and Concord under three loads.

The paper reports latencies normalized to OFC, with Concord's absolute
latencies annotated; on average Concord reduces latency by 2.1x/2.4x/2.6x
over OFC (low/medium/high) and slightly more over Faa$T.
"""

from __future__ import annotations

from repro.experiments.runner import LOAD_LEVELS, run_mixed_workload
from repro.experiments.tables import ExperimentResult, with_average

SCHEMES = ("ofc", "faast", "concord")


def run(scale: float = 1.0, seed: int = 107,
        loads: tuple = tuple(LOAD_LEVELS)) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 7",
        title="Application request latency: OFC vs Faa$T vs Concord",
        columns=["load", "app", "ofc_ms", "faast_ms", "concord_ms",
                 "ofc/concord", "faast/concord"],
        note=("Normalized shape to compare with the paper: OFC ~ Faa$T, "
              "Concord fastest, gap widening with load."),
    )
    runs = {
        (load, scheme): run_mixed_workload(
            scheme=scheme, nodes=8, cores_per_node=4,
            utilization=LOAD_LEVELS[load],
            duration_ms=4000.0 * scale, warmup_ms=1500.0 * scale, seed=seed)
        for load in loads for scheme in SCHEMES
    }
    for load in loads:
        rows = []
        for app in runs[load, "concord"].per_app:
            ofc, faast, concord = (
                runs[load, scheme].per_app[app].mean_latency_ms
                for scheme in SCHEMES)
            rows.append({
                "load": load, "app": app,
                "ofc_ms": ofc, "faast_ms": faast, "concord_ms": concord,
                "ofc/concord": ofc / concord,
                "faast/concord": faast / concord,
            })
        result.data += with_average(rows, "ofc/concord", "faast/concord",
                                    load=load, app="Average")
    return result
