"""Session metrics= knob: wiring, export, zero-cost default."""

import pytest

from repro.experiments.runner import run_mixed_workload
from repro.session import Session
from repro.storage import DataItem
from repro.telemetry import MetricsRegistry, jsonl_dumps, load_series


def drive(session: Session) -> None:
    session.preload({f"k{i}": DataItem(f"v{i}", 128) for i in range(4)})
    for i in range(4):
        session.read("node0", f"k{i}")
        session.write("node1", f"k{i}", DataItem(f"w{i}", 128))
    session.advance(500.0)


def test_metrics_true_attaches_sampled_registry():
    with Session(nodes=2, seed=7, metrics=True) as session:
        drive(session)
        assert session.metrics is session.sim.metrics
        assert session.metrics.samples > 0
        names = {s.name for s in session.metrics.store.all_series()}
        # Every instrumented layer shows up on a plain concord session.
        for expected in ("node_cpu_utilization", "net_messages_total",
                         "cache_reads_total", "cache_occupancy_bytes",
                         "directory_entries", "storage_reads_total"):
            assert expected in names, expected


def test_metrics_path_exports_on_close(tmp_path):
    path = tmp_path / "timeline.jsonl"
    with Session(nodes=2, seed=7, metrics=str(path)) as session:
        drive(session)
    loaded = load_series(str(path))
    assert loaded and any(s["name"] == "cache_reads_total" for s in loaded)


def test_explicit_registry_instance_used_as_is():
    registry = MetricsRegistry()
    with Session(nodes=2, seed=7, metrics=registry) as session:
        drive(session)
        assert session.metrics is registry


def test_export_metrics_formats(tmp_path):
    """JSONL is the one metrics format: no ``fmt=`` to choose another."""
    with Session(nodes=2, seed=7, metrics=True) as session:
        drive(session)
        session.export_metrics(str(tmp_path / "m.jsonl"))
        with pytest.raises(TypeError):
            session.export_metrics(str(tmp_path / "m.csv"), fmt="csv")
    loaded = load_series(str(tmp_path / "m.jsonl"))
    assert loaded and loaded == session.metrics.to_dicts()


def test_metrics_off_by_default():
    with Session(nodes=2, seed=7) as session:
        drive(session)
        assert session.metrics is None
        assert session.sim.metrics.active is False
        assert session.sampler.running is False
        with pytest.raises(RuntimeError):
            session.export_metrics("nowhere.jsonl")


def test_disabled_run_matches_enabled_run_results():
    # Telemetry must be observation-only: same seed, same simulated
    # outcome with metrics on and off.
    def final_state(**kwargs):
        with Session(nodes=2, seed=11, **kwargs) as session:
            drive(session)
            value = session.read("node0", "k2")
            return (session.sim.now, value)

    assert final_state() == final_state(metrics=True)


def test_repeated_sessions_export_identical_bytes():
    def dump():
        with Session(nodes=2, seed=7, metrics=True) as session:
            drive(session)
            return jsonl_dumps(session.metrics)

    assert dump() == dump()


def test_request_counters_count_the_warmup_too():
    """The pulled request counters read run-long totals: the runner's
    post-warmup reset of ``app.latency`` does not rewind them."""
    result = run_mixed_workload(
        nodes=2, cores_per_node=2, apps=("SocNet", "HotelBook"),
        total_rps=40.0, warmup_ms=400.0, duration_ms=400.0, drain_ms=800.0,
        seed=5, trace=True, metrics=True)
    assert result.tracer.open_spans() == []
    last = {(series["name"], series["labels"]["app"]): series["points"][-1][1]
            for series in result.metrics.to_dicts()
            if series["name"].startswith("faas_request_latency_ms_")}
    for app, measured in result.per_app.items():
        requests = [span for span in result.tracer.spans
                    if span.category == "request" and span.attrs["app"] == app]
        assert last["faas_request_latency_ms_count", app] == len(requests)
        assert len(requests) > measured.completed > 0
        assert last["faas_request_latency_ms_sum", app] == pytest.approx(
            sum(span.duration_ms for span in requests))
