"""Figure 8: cluster throughput before SLO violation.

Throughput is the highest request rate the cluster sustains while the
applications' mean latencies stay within SLO = 5x their latency on an
unloaded cluster (the paper's definition).  Concord improves throughput
over OFC by 1.7x and over Faa$T by 1.8x on average.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.experiments.runner import run_mixed_workload, unloaded_latency
from repro.experiments.tables import ExperimentResult

SCHEMES = ("ofc", "faast", "concord")
SLO_FACTOR = 5.0


#: Measurement window of every grid point (ms).  Fixed and
#: scale-independent: saturation only shows up once queues have had a
#: few seconds to build.
WINDOW_MS = 5000.0


def _within_slo(outcome, slo: dict, offered_total: float) -> bool:
    """All apps completed (close to) the ``offered_total`` requests
    within the SLO.

    Checking completions guards against survivorship bias past CPU
    saturation, where only the fast requests finish inside the window.
    """
    completed_total = sum(s.completed for s in outcome.per_app.values())
    if completed_total < 0.75 * offered_total:
        return False  # saturated: work is piling up, not completing
    for app, stats in outcome.per_app.items():
        if stats.completed == 0:
            return False
        if stats.mean_latency_ms > slo[app]:
            return False
    return True


def max_sustained_rps(
    scheme: str, slo: dict, rps_grid: list, scale: float, seed: int,
    timelines: Optional[str] = None,
) -> float:
    """Largest grid point whose run satisfies every app's SLO.

    When ``timelines`` names a directory, every grid point additionally
    exports its telemetry timeline there as
    ``fig08_<scheme>_rps<rate>.jsonl`` (readable with
    ``repro-inspect metrics``).
    """
    best = 0.0
    for rps in rps_grid:
        metrics = None
        if timelines is not None:
            metrics = str(Path(timelines) / f"fig08_{scheme}_rps{rps}.jsonl")
        outcome = run_mixed_workload(
            scheme=scheme, nodes=8, cores_per_node=4, total_rps=rps,
            duration_ms=WINDOW_MS, warmup_ms=1500.0, seed=seed,
            metrics=metrics)
        if _within_slo(outcome, slo, rps * WINDOW_MS / 1000.0):
            best = rps
        else:
            break
    return best


def run(scale: float = 1.0, seed: int = 109,
        timelines: Optional[str] = None) -> ExperimentResult:
    if timelines is not None:
        Path(timelines).mkdir(parents=True, exist_ok=True)
    result = ExperimentResult(
        experiment="Figure 8",
        title="Cluster throughput at SLO (5x unloaded latency)",
        columns=["scheme", "max_rps", "vs_ofc"],
        note="Paper: Concord sustains 1.7x OFC's and 1.8x Faa$T's throughput.",
    )
    # The SLO is a property of the application: 5x its unloaded latency on
    # the baseline (OFC) platform, applied identically to every scheme.
    slo = {
        app: SLO_FACTOR * latency
        for app, latency in unloaded_latency(
            "ofc", nodes=8, cores_per_node=4, seed=seed).items()
    }
    # CPU saturates around ~135 RPS on this scaled cluster; the grid spans
    # the knee and beyond so every scheme eventually violates.
    rps_grid = [60, 100, 115, 130, 145, 160, 175, 190, 210]
    sustained = {scheme: max_sustained_rps(scheme, slo, rps_grid, scale,
                                           seed, timelines=timelines)
                 for scheme in SCHEMES}
    result.data = [{
        "scheme": scheme,
        "max_rps": sustained[scheme],
        "vs_ofc": (sustained[scheme] / sustained["ofc"]
                   if sustained["ofc"] else float("nan")),
    } for scheme in SCHEMES]
    return result
