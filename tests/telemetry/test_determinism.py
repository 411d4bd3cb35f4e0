"""Acceptance: byte-identical timelines and the write-burst anomaly.

The 4-node mixed-workload run is the ISSUE's acceptance scenario: with
``metrics=`` on, repeated runs must export byte-identical timelines (the
cross-``PYTHONHASHSEED`` half of that claim lives in the subprocess CLI
smoke tests).  The fig13 write-burst run must produce an invalidation
storm that the anomaly report pins to the injected simulated-time
window.
"""

import pytest

from repro.experiments.fig13_churn import WriteBurst, run_write_burst_timeline
from repro.experiments.runner import run_mixed_workload
from repro.telemetry import detect_anomalies, jsonl_dumps


def mixed_run(**overrides):
    return run_mixed_workload(**{
        **dict(scheme="concord", nodes=4, cores_per_node=4, total_rps=40.0,
               duration_ms=1200.0, warmup_ms=400.0, drain_ms=400.0,
               seed=2024, metrics=True),
        **overrides})


@pytest.mark.slow
class TestMixedRunTimelines:
    def test_repeated_runs_byte_identical(self):
        first = mixed_run()
        second = mixed_run()
        assert first.metrics is not None
        assert jsonl_dumps(first.metrics) == jsonl_dumps(second.metrics)

    def test_timeline_covers_all_layers(self):
        outcome = mixed_run()
        names = {s.name for s in outcome.metrics.store.all_series()}
        for expected in (
            "node_cpu_utilization", "node_cpu_queue_length",
            "node_memory_in_use_bytes", "node_warm_containers",
            "net_messages_total", "rpc_inflight",
            "cache_reads_total", "cache_hit_ratio",
            "cache_occupancy_bytes", "cache_invalidations_sent_total",
            "directory_entries", "faas_requests_completed_total",
            "faas_request_latency_ms_count", "faas_scheduling_delay_ms_sum",
            "storage_reads_total", "storage_inflight_ops",
        ):
            assert expected in names, expected

    def test_metrics_off_leaves_no_series(self):
        outcome = mixed_run(metrics=None)
        assert outcome.metrics is None

    def test_metrics_path_exports_jsonl(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        outcome = mixed_run(metrics=str(path))
        assert outcome.metrics is not None
        assert path.exists()
        assert path.read_text() == jsonl_dumps(outcome.metrics)


@pytest.mark.slow
class TestWriteBurstAnomaly:
    def test_storm_report_matches_injected_window(self):
        burst = WriteBurst(start_ms=2400.0, duration_ms=1500.0)
        registry, returned = run_write_burst_timeline(
            num_nodes=4, duration_ms=6000.0, churn_per_min=6, burst=burst)
        assert returned is burst
        storms = [a for a in detect_anomalies(registry.store.all_series())
                  if a.rule == "invalidation_storm"]
        assert storms, "injected write burst produced no storm anomaly"
        storm = storms[0]
        # The reported simulated-time window tracks the injection:
        # overlaps it, and does not wildly overshoot either edge.
        assert storm.start_ms < burst.end_ms
        assert storm.end_ms > burst.start_ms
        assert abs(storm.start_ms - burst.start_ms) <= 500.0
        assert abs(storm.end_ms - burst.end_ms) <= 500.0

    def test_no_burst_no_sustained_storm(self):
        # The organic workload can clip the low default threshold for an
        # interval or two; what it cannot do is sustain a storm window
        # anywhere near the injected burst's length.
        registry, _burst = run_write_burst_timeline(
            num_nodes=4, duration_ms=6000.0, churn_per_min=6,
            burst=WriteBurst(start_ms=0.0, duration_ms=0.0, writers=0))
        storms = [a for a in detect_anomalies(registry.store.all_series())
                  if a.rule == "invalidation_storm"]
        assert not [a for a in storms if a.end_ms - a.start_ms >= 500.0]

    def test_burst_runs_are_deterministic(self):
        def dump():
            registry, _burst = run_write_burst_timeline(
                num_nodes=4, duration_ms=4000.0, churn_per_min=6)
            return jsonl_dumps(registry)

        assert dump() == dump()
