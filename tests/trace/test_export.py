"""The trace export format, Chrome trace_event: byte-deterministic."""

import json

import pytest

from repro.sim import Simulator
from repro.trace import (
    Tracer,
    chrome_dumps,
    export_chrome,
    load_trace,
    loads_trace,
)


def traced_run(seed: int = 3) -> Tracer:
    """A tiny deterministic run producing a few nested spans."""
    tracer = Tracer()
    sim = Simulator(seed=seed, tracer=tracer)

    def op(sim, label):
        with tracer.span(f"op:{label}", "op", parent=None, key=label):
            with tracer.span("storage:read", "storage", store="blob"):
                yield sim.timeout(30.0)

    sim.spawn(op(sim, "a"), name="worker-a")
    sim.spawn(op(sim, "b"), name="worker-b")
    sim.run()
    return tracer


class TestChrome:
    def test_document_shape(self):
        tracer = traced_run()
        document = json.loads(chrome_dumps(tracer))
        assert document["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in document["traceEvents"]]
        assert set(phases) <= {"M", "X"}
        assert phases.count("X") == 4  # 2 x (op + storage)

    def test_empty_tracer_dumps_no_spans(self):
        tracer = Tracer()
        Simulator(seed=0, tracer=tracer)
        assert json.loads(chrome_dumps(tracer))["traceEvents"] == []

    def test_thread_name_metadata_per_process(self):
        tracer = traced_run()
        document = json.loads(chrome_dumps(tracer))
        names = {e["args"]["name"] for e in document["traceEvents"]
                 if e["ph"] == "M"}
        assert {"worker-a", "worker-b"} <= names

    def test_timestamps_in_microseconds(self):
        tracer = traced_run()
        document = json.loads(chrome_dumps(tracer))
        storage = [e for e in document["traceEvents"]
                   if e["ph"] == "X" and e["name"] == "storage:read"]
        assert all(e["dur"] == pytest.approx(30_000.0) for e in storage)

    def test_distinct_processes_get_distinct_lanes(self):
        tracer = traced_run()
        document = json.loads(chrome_dumps(tracer))
        tids = {e["tid"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert len(tids) == 2

    def test_identical_runs_byte_identical(self):
        assert chrome_dumps(traced_run()) == chrome_dumps(traced_run())

    def test_roundtrip_preserves_span_tree(self, tmp_path):
        tracer = traced_run()
        path = tmp_path / "trace.json"
        export_chrome(tracer, path)
        spans = load_trace(path)
        original = tracer.to_dicts()
        assert len(spans) == len(original)
        for loaded, source in zip(spans, original):
            for key in ("trace_id", "span_id", "parent_id", "name",
                        "category", "attrs", "tid"):
                assert loaded[key] == source[key]
            assert loaded["start_ms"] == pytest.approx(source["start_ms"])
            assert loaded["duration_ms"] == pytest.approx(
                source["duration_ms"])


class TestLoadsTrace:
    def test_autodetects_chrome(self):
        tracer = traced_run()
        spans = loads_trace(chrome_dumps(tracer))
        assert [s["span_id"] for s in spans] == [
            d["span_id"] for d in tracer.to_dicts()]

    def test_empty_text(self):
        assert loads_trace("") == []
        assert loads_trace("   \n") == []

    def test_rejects_span_records_that_are_not_a_chrome_document(self):
        with pytest.raises(ValueError):
            loads_trace('{"span_id": 1, "name": "op:a"}\n'
                        '{"span_id": 2, "name": "op:b"}\n')
