"""Smoke tests of the experiment harness (tiny scales).

The benchmarks exercise the experiments at full size; these tests keep the
harness itself covered by the fast unit suite: load rates resolve, runs
complete, rows carry the expected columns.
"""

import pytest

from repro.experiments import LOAD_LEVELS, run_mixed_workload, unloaded_latency
from repro.experiments import runner
from repro.workloads import ALL_PROFILES


class TestMixedRunLoad:
    def test_load_levels(self):
        assert set(LOAD_LEVELS) == {"low", "medium", "high"}
        assert LOAD_LEVELS["low"] < LOAD_LEVELS["medium"] < LOAD_LEVELS["high"]

    def test_rps_resolution_from_utilization(self):
        rps = runner.total_rps_at(0.5, 4, 8, tuple(ALL_PROFILES))
        assert rps > 0
        # Doubling utilization doubles the rate.
        double = runner.total_rps_at(1.0, 4, 8, tuple(ALL_PROFILES))
        assert double == pytest.approx(2 * rps)

    @pytest.mark.parametrize("rate", [
        {}, {"utilization": 0.5, "total_rps": 123.0}], ids=["none", "both"])
    def test_exactly_one_rate(self, rate):
        with pytest.raises(TypeError):
            run_mixed_workload(duration_ms=100, warmup_ms=50, **rate)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_mixed_workload(scheme="bogus", utilization=0.5,
                               duration_ms=100, warmup_ms=50)


class TestTinyRuns:
    @pytest.mark.parametrize("scheme", ["nocache", "ofc", "faast", "concord"])
    def test_schemes_run_and_report(self, scheme):
        outcome = run_mixed_workload(
            scheme=scheme, nodes=2, cores_per_node=4,
            apps=("TrainT", "SocNet"), total_rps=20.0,
            duration_ms=800.0, warmup_ms=300.0, drain_ms=1500.0)
        assert set(outcome.per_app) == {"TrainT", "SocNet"}
        completed = sum(s.completed for s in outcome.per_app.values())
        assert completed > 0
        assert outcome.access.reads > 0

    def test_trace_knob_collects_and_exports(self, tmp_path):
        from repro.trace import load_trace
        from repro.trace.summary import per_app_requests

        path = tmp_path / "run.json"
        outcome = run_mixed_workload(
            scheme="concord", nodes=2, cores_per_node=4,
            apps=("TrainT",), total_rps=10.0,
            duration_ms=600.0, warmup_ms=200.0, drain_ms=1500.0,
            trace=str(path))
        assert outcome.tracer is not None
        assert outcome.tracer.open_spans() == []
        spans = load_trace(path)
        assert any(s["category"] == "request" for s in spans)
        traced = per_app_requests(spans)
        assert "TrainT" in traced

    def test_trace_off_by_default(self):
        outcome = run_mixed_workload(
            scheme="nocache", nodes=2, cores_per_node=4,
            apps=("TrainT",), total_rps=10.0,
            duration_ms=400.0, warmup_ms=200.0, drain_ms=1000.0)
        assert outcome.tracer is None

    def test_concord_collects_sharers_and_memory(self, monkeypatch):
        monkeypatch.setattr(runner, "SAMPLE_EVERY_MS", 100.0)
        outcome = run_mixed_workload(
            scheme="concord", nodes=2, cores_per_node=4,
            apps=("SocNet",), total_rps=30.0,
            duration_ms=1000.0, warmup_ms=300.0)
        assert outcome.sharer_samples
        assert "SocNet" in outcome.sharer_samples_per_app
        assert outcome.cache_peaks  # at least one instance held data

    def test_unloaded_latency_returns_all_apps(self):
        latencies = unloaded_latency(
            "concord", apps=("TrainT",), nodes=2, cores_per_node=4,
            requests=2)
        assert set(latencies) == {"TrainT"}
        assert latencies["TrainT"] > 0


class TestCheapExperiments:
    def test_fig03_rows(self):
        from repro.experiments import fig03_version_vs_data

        result = fig03_version_vs_data.run()
        assert len(result.rows()) == 7
        assert {"size_kb", "version_ms", "data_ms"} <= set(result.rows()[0])

    def test_char_reads_ordering(self):
        from repro.experiments import char_reads

        rows = {r["operation"]: r["measured_ms"] for r in char_reads.run().rows()}
        assert rows["local hit"] < rows["remote hit"] < rows["remote miss"]

    def test_verify_protocol_clean(self):
        from repro.experiments import verify_protocol

        for row in verify_protocol.run().rows():
            assert row["violations"] == 0
            assert row["deadlocks"] == 0

    def test_ablation_virtual_nodes_balance(self):
        from repro.experiments.ablations import run_virtual_nodes

        rows = run_virtual_nodes().rows()
        assert rows[-1]["max/mean_keys"] < rows[0]["max/mean_keys"]
