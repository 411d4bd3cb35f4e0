"""Figure 1: response-time breakdown into processing and storage access.

On a conventional (cache-less) platform, storage accounts for 35-93 % of
end-to-end response time with an average of 63.1 % (paper Section II-A).

The breakdown is measured twice: from the platform's per-invocation time
counters, and independently from the causal trace (the ``op`` and
``compute`` spans of each request's span tree).  The two must agree —
the run fails if they diverge — so the counters and the tracing layer
cross-validate each other.
"""

from __future__ import annotations

from repro.experiments.tables import ExperimentResult
from repro.session import Session
from repro.trace.summary import per_app_requests
from repro.workloads import ALL_PROFILES


def run(scale: float = 1.0, seed: int = 101) -> ExperimentResult:
    """Measure each app's storage share on an unloaded cache-less cluster."""
    requests = max(4, int(20 * scale))
    s = Session.compose(scheme="nocache", apps=tuple(ALL_PROFILES),
                        seed=seed, trace=True)

    result = ExperimentResult(
        experiment="Figure 1",
        title="Response-time breakdown (no caching)",
        columns=["app", "response_ms", "storage_ms", "compute_ms",
                 "storage_pct", "trace_storage_pct"],
        note="Paper: storage is 35.1-93.0% of response time, average 63.1%. "
             "trace_storage_pct is derived independently from span trees.",
    )
    fractions = []
    for name, app in s.deployed.items():
        for index in range(requests):
            s.run(s.platform.request(name, s.factories[name](index)),
                  limit_ms=600_000.0)
        fraction = app.storage_fraction
        fractions.append(fraction)
        result.data.append({
            "app": name,
            "response_ms": app.latency.mean,
            "storage_ms": app.storage_ms_total / app.requests_completed,
            "compute_ms": app.compute_ms_total / app.requests_completed,
            "storage_pct": 100.0 * fraction,
        })
    # Cross-check: re-derive the breakdown from the causal trace.  The
    # ``op`` spans bracket exactly the interval the invocation context
    # charges to storage_ms, so counters and spans must agree.
    traced = per_app_requests(s.tracer.to_dicts())
    trace_pcts = []
    for row in result.data:
        summary = traced[row["app"]]
        row["trace_storage_pct"] = summary["storage_pct"]
        trace_pcts.append(summary["storage_pct"])
        if abs(row["trace_storage_pct"] - row["storage_pct"]) > 0.1:
            raise RuntimeError(
                f"trace/counter breakdown mismatch for {row['app']}: "
                f"{row['trace_storage_pct']:.3f}% (spans) vs "
                f"{row['storage_pct']:.3f}% (counters)")
    result.data.append({
        "app": "Average",
        "response_ms": "",
        "storage_ms": "",
        "compute_ms": "",
        "storage_pct": 100.0 * sum(fractions) / len(fractions),
        "trace_storage_pct": sum(trace_pcts) / len(trace_pcts),
    })
    return result
