"""Regression: two identically-seeded runs produce identical metrics.

This is the runtime half of the determinism contract the static rules
enforce (see tests/analysis/test_clean_tree.py): after fixing the
hash-ordered set iterations and id()-keyed dedup the DET* rules flagged,
a seeded mixed-workload run must be exactly reproducible — every latency
percentile, access counter and message count bit-for-bit equal.
"""

import pytest

from repro.experiments.runner import run_mixed_workload


def _histogram(h) -> tuple:
    return tuple(h._samples)


def _access(stats) -> dict:
    return {
        "ops": {kind.value: n for kind, n in sorted(
            stats.ops.items(), key=lambda item: item[0].value)},
        "latency": {kind.value: _histogram(h) for kind, h in sorted(
            stats.latency.items(), key=lambda item: item[0].value)},
        "invalidations_per_write": _histogram(stats.invalidations_per_write),
        "version_checks": stats.version_checks,
    }


def _fingerprint(outcome) -> dict:
    return {
        "per_app": {
            app: (stats.mean_latency_ms, stats.p50_latency_ms,
                  stats.p99_latency_ms, stats.completed,
                  stats.storage_fraction)
            for app, stats in sorted(outcome.per_app.items())
        },
        "access": _access(outcome.access),
        "sharer_samples": list(outcome.sharer_samples),
        "cache_peaks": dict(outcome.cache_peaks),
        "network_messages": outcome.network_messages,
        "storage_reads": outcome.storage_reads,
        "storage_writes": outcome.storage_writes,
    }


@pytest.mark.parametrize("scheme", ["concord", "faast"])
def test_seeded_runs_reproduce_exactly(scheme):
    def run():
        return run_mixed_workload(
            scheme=scheme, nodes=2, cores_per_node=4,
            apps=("TrainT", "SocNet"), total_rps=25.0,
            duration_ms=700.0, warmup_ms=250.0, drain_ms=1200.0, seed=2024)

    first = _fingerprint(run())
    second = _fingerprint(run())
    assert first == second


def test_different_seeds_diverge():
    def run(seed):
        return run_mixed_workload(
            scheme="concord", nodes=2, cores_per_node=4,
            apps=("SocNet",), total_rps=25.0,
            duration_ms=700.0, warmup_ms=250.0, drain_ms=1200.0, seed=seed)

    first = _fingerprint(run(1))
    second = _fingerprint(run(2))
    assert first != second  # the seed actually reaches the workload
