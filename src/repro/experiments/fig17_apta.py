"""Figure 17: Concord vs the software version of Apta.

Four environments at medium load: updates propagated to global storage
(Apta-Az / Concord-Az) or only to the memory-node tier (Apta-Mem /
Concord-Mem).  Paper: Concord reduces latency 41.2 % vs Apta-Az and
47.4 % vs Apta-Mem — lazy invalidations shrink Apta's schedulable node
set and its scheduler pays a memory-node query on every invocation.
"""

from __future__ import annotations

from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult

ENVIRONMENTS = ("apta-az", "concord", "apta-mem", "concord-mem")
LABELS = {
    "apta-az": "Apta-Az", "concord": "Concord-Az",
    "apta-mem": "Apta-Mem", "concord-mem": "Concord-Mem",
}


def run(scale: float = 1.0, seed: int = 129) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 17",
        title="Application latency: Apta vs Concord (Az and Mem tiers)",
        columns=["environment", "mean_ms", "normalized_to_apta_az"],
        note="Paper: Concord-Az/-Mem cut latency 41%/47% vs Apta-Az/-Mem.",
    )
    means = {
        scheme: run_mixed_workload(
            scheme=scheme, nodes=8, cores_per_node=4, utilization=0.5,
            duration_ms=3000.0 * scale, warmup_ms=1500.0 * scale,
            seed=seed).mean_latency()
        for scheme in ENVIRONMENTS
    }
    result.data = [{
        "environment": LABELS[scheme],
        "mean_ms": means[scheme],
        "normalized_to_apta_az": means[scheme] / means["apta-az"],
    } for scheme in ENVIRONMENTS]
    return result
