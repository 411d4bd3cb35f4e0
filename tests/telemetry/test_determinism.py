"""Acceptance: byte-identical timelines.

With ``metrics=`` on, repeated runs of the 4-node mixed workload and of
a fig13 churn run must export byte-identical timelines (the
cross-``PYTHONHASHSEED`` half of that claim lives in the subprocess CLI
smoke tests).
"""

import pytest

from repro.experiments.fig13_churn import churn_run
from repro.experiments.runner import run_mixed_workload
from repro.telemetry import jsonl_dumps


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
class TestChurnTimeline:
    def test_churn_runs_are_deterministic(self):
        def dump():
            session = churn_run(6, 4000.0, 121, num_nodes=4, metrics=True)
            session.close()
            return jsonl_dumps(session.metrics)

        first = dump()
        assert "cache_invalidations_sent_total" in first
        assert first == dump()
