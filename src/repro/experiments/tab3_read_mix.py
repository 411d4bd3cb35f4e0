"""Table III: distribution of read operations in Concord.

Local hit / remote hit / remote miss fractions with and without
coherence-aware invocation scheduling.  Paper averages: 75/18/7 without
CAS, 83/10/7 with CAS.
"""

from __future__ import annotations

from repro.experiments.runner import run_mixed_workload
from repro.experiments.tables import ExperimentResult, with_average

SCHEMES = ("concord-nocas", "concord")
#: column -> read-mix share it shows (NoCAS, then CAS, in percent).
COLUMNS = {"local% (NoCAS-C)": "local_hit",
           "remote% (NoCAS-C)": "remote_hit",
           "miss% (NoCAS-C)": "remote_miss"}


def run(scale: float = 1.0, seed: int = 111) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Table III",
        title="Read mix: Concord without CAS (C-NoCAS) vs Concord (C)",
        columns=["app", *COLUMNS],
        note="Paper averages: 75-83 local, 18-10 remote hit, 7-7 miss.",
    )
    runs = {
        scheme: run_mixed_workload(
            scheme=scheme, nodes=8, cores_per_node=4, utilization=0.5,
            duration_ms=4000.0 * scale, warmup_ms=1500.0 * scale, seed=seed)
        for scheme in SCHEMES
    }
    shares = [(scheme, field) for field in COLUMNS.values()
              for scheme in SCHEMES]
    rows = with_average([
        {"app": app, **{(scheme, field):
                        runs[scheme].per_app_access[app].read_mix()[field]
                        for scheme, field in shares}}
        for app in runs["concord"].per_app
    ], *shares)
    result.data = [{"app": row["app"], **{
        column: " - ".join(f"{row[scheme, field] * 100:.0f}"
                           for scheme in SCHEMES)
        for column, field in COLUMNS.items()}} for row in rows]
    return result
