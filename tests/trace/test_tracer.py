"""Unit tests for the Tracer / Span core."""

import pytest

import repro.packedlog
import repro.trace.tracer
from repro.sim import Simulator
from repro.trace import (
    INHERIT,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    chrome_dumps,
    export_chrome,
)


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture
def sim(tracer):
    return Simulator(seed=1, tracer=tracer)


class TestSpanTree:
    def test_root_span_starts_new_trace(self, sim, tracer):
        with tracer.span("a", "op", parent=None):
            pass
        with tracer.span("b", "op", parent=None):
            pass
        (a, b) = tracer.spans
        assert a.parent_id is None and b.parent_id is None
        assert a.trace_id != b.trace_id

    def test_nesting_links_parent_and_restores_context(self, sim, tracer):
        with tracer.span("outer", "op") as outer:
            assert tracer.current() == outer.context
            with tracer.span("inner", "agent") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert tracer.current() == inner.context
            assert tracer.current() == outer.context
        assert tracer.current() is None

    def test_span_times_come_from_sim_clock(self, sim, tracer):
        def proc(sim):
            with tracer.span("timed", "op"):
                yield sim.timeout(7.5)

        sim.spawn(proc(sim))
        sim.run()
        (span,) = tracer.spans
        assert span.start_ms == 0.0
        assert span.end_ms == 7.5
        assert span.duration_ms == 7.5

    def test_explicit_parent_overrides_ambient(self, sim, tracer):
        with tracer.span("a", "op") as a:
            pass
        with tracer.span("b", "op"):
            child = tracer.span("c", "op", parent=a)
            child.end()
        c = next(s for s in tracer.spans if s.name == "c")
        assert c.parent_id == a.span_id
        assert c.trace_id == a.trace_id

    def test_open_spans_drain(self, sim, tracer):
        span = tracer.span("lingering", "op")
        assert tracer.open_spans() == [span]
        span.end()
        assert tracer.open_spans() == []

    def test_double_end_is_idempotent(self, sim, tracer):
        span = tracer.span("once", "op")
        span.end()
        span.end()
        assert len(tracer.spans) == 1

    def test_set_attaches_attribute(self, sim, tracer):
        with tracer.span("rpc", "rpc", dst="node1/svc") as span:
            span.set("status", "timeout")
        assert tracer.spans[0].attrs == {"dst": "node1/svc",
                                         "status": "timeout"}

    def test_span_ids_are_counters_not_hashes(self, sim, tracer):
        for _ in range(3):
            with tracer.span("s", "op", parent=None):
                pass
        assert [s.span_id for s in tracer.spans] == [1, 2, 3]
        assert [s.trace_id for s in tracer.spans] == [1, 2, 3]

    def test_resolve_rejects_garbage(self, sim, tracer):
        with pytest.raises(TypeError):
            tracer.resolve("not-a-context")

    def test_resolve_passthrough(self, sim, tracer):
        ctx = TraceContext(5, 9)
        assert tracer.resolve(ctx) is ctx
        assert tracer.resolve(None) is None
        assert tracer.resolve(INHERIT) is None  # nothing current yet


    def test_finished_spans_read_like_the_live_ones(self, sim, tracer):
        """``spans`` rebuilds Span objects from the stored rows."""
        def proc(sim):
            with tracer.span("outer", "op", key="k") as outer:
                yield sim.timeout(2.0)
                tracer.span("mark", "event", n=1).end()
                with tracer.span("inner", "agent") as inner:
                    yield sim.timeout(3.0)
                    inner.set("status", "ok")
            return outer, inner

        process = sim.spawn(proc(sim), name="worker")
        sim.run()
        outer, inner = process.value
        mark, rebuilt_inner, rebuilt_outer = tracer.spans
        for live, rebuilt in ((inner, rebuilt_inner), (outer, rebuilt_outer)):
            assert type(rebuilt) is Span and rebuilt is not live
            assert rebuilt.to_dict() == live.to_dict()
            assert rebuilt.context == live.context
            assert rebuilt.duration_ms == live.duration_ms
        assert (rebuilt_outer.start_ms, rebuilt_outer.end_ms) == (0.0, 5.0)
        assert rebuilt_inner.attrs == {"status": "ok"}
        assert (mark.name, mark.category, mark.attrs, mark.duration_ms) == (
            "mark", "event", {"n": 1}, 0.0)
        assert mark.parent_id == outer.span_id
        assert {s.tid for s in tracer.spans} == {process.trace_lane}
        assert tracer.lane_names() == {process.trace_lane: "worker"}
        assert [s.to_dict() for s in sorted(tracer.spans,
                                            key=lambda s: s.span_id)] \
            == tracer.to_dicts()
        # Ending again (or leaving the with block late) files nothing new.
        outer.end()
        assert len(tracer.spans) == 3


class TestProcessAmbientContext:
    def test_spawned_process_inherits_spawner_context(self, sim, tracer):
        seen = {}

        def child(sim):
            seen["ctx"] = tracer.current()
            return None
            yield  # pragma: no cover - generator marker

        def parent(sim):
            with tracer.span("op", "op") as op:
                seen["op"] = op.context
                sim.spawn(child(sim), daemon=True)
                yield sim.timeout(1.0)

        sim.spawn(parent(sim))
        sim.run()
        assert seen["ctx"] == seen["op"]

    def test_sibling_processes_keep_distinct_contexts(self, sim, tracer):
        order = []

        def worker(sim, label):
            with tracer.span(label, "op", parent=None) as span:
                order.append((label, span.trace_id))
                yield sim.timeout(1.0)
                assert tracer.current() == span.context

        sim.spawn(worker(sim, "w1"))
        sim.spawn(worker(sim, "w2"))
        sim.run()
        assert len({tid for _, tid in order}) == 2


class TestBinding:
    def test_span_before_bind_raises(self, tracer):
        with pytest.raises(RuntimeError):
            tracer.span("x")

    def test_rebinding_same_sim_ok(self, sim, tracer):
        assert tracer.bind(sim) is tracer

    def test_rebinding_other_sim_rejected(self, sim, tracer):
        with pytest.raises(ValueError):
            Simulator(seed=2, tracer=tracer)


class TestNullTracer:
    def test_simulator_defaults_to_null_tracer(self):
        sim = Simulator(seed=0)
        assert sim.tracer is NULL_TRACER
        assert not sim.tracer.active

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything", "op", key="k") as span:
            assert span is NULL_SPAN
            assert span.set("a", 1) is NULL_SPAN
        assert tracer.spans == []
        assert tracer.open_spans() == []
        assert tracer.to_dicts() == []
        assert tracer.current() is None
        assert tracer.resolve(INHERIT) is None


class TestExportOrdering:
    def test_to_dicts_sorted_by_span_id(self, sim, tracer):
        with tracer.span("outer", "op"):
            with tracer.span("inner", "agent"):
                pass
        # Closure order is inner-first; export order is span-id order.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert [d["name"] for d in tracer.to_dicts()] == ["outer", "inner"]

    def test_open_span_excluded_from_export(self, sim, tracer):
        tracer.span("open", "op")
        assert tracer.to_dicts() == []


class TestPackedBatches:
    """Spans filed across many packed batches, ended far out of order."""

    @pytest.fixture
    def tracer(self, monkeypatch):
        monkeypatch.setattr(repro.packedlog, "BATCH", 4)
        return Tracer()

    def _nested_run(self, sim, tracer):
        # Outer spans open first and end last, each round further out of
        # order than a batch is long; zero-length marks are filed as they
        # happen.
        for round_ in range(5):
            outer = [tracer.span(f"outer{round_}.{i}", "op", parent=None,
                                 round=round_) for i in range(3)]
            for i in range(7):
                with tracer.span(f"inner{i}", "agent", size=i * 0.5):
                    tracer.span("mark", "directory", hit=bool(i % 2)).end()
            sim.run(until=sim.now + 1.0)
            for span in outer:
                span.end()

    def test_export_order_is_span_id_order(self, sim, tracer):
        self._nested_run(sim, tracer)
        dicts = tracer.to_dicts()
        assert [d["span_id"] for d in dicts] == list(range(1, 86))
        assert list(tracer.iter_dicts()) == dicts
        assert dicts[0]["name"] == "outer0.0"
        assert dicts[0]["attrs"] == {"round": 0}
        assert dicts[4] == {
            "trace_id": 3, "span_id": 5, "parent_id": 4, "name": "mark",
            "category": "directory", "start_ms": 0.0, "end_ms": 0.0,
            "duration_ms": 0.0, "attrs": {"hit": False}, "tid": 0}

    def test_spans_keep_closure_order(self, sim, tracer):
        self._nested_run(sim, tracer)
        spans = tracer.spans
        assert [s.name for s in spans[:4]] == ["mark", "inner0", "mark",
                                               "inner1"]
        assert [s.name for s in spans[14:17]] == ["outer0.0", "outer0.1",
                                                  "outer0.2"]
        assert sorted(s.to_dict()["span_id"] for s in spans) == list(
            range(1, 86))
        assert {s.span_id: s.to_dict() for s in spans} == {
            d["span_id"]: d for d in tracer.to_dicts()}

    def test_len_counts_filed_spans_and_builds_none(self, sim, tracer,
                                                     monkeypatch):
        self._nested_run(sim, tracer)
        tracer.span("open", "op")
        expected = len(tracer.to_dicts())
        assert expected == 85

        def refuse(*args):
            raise AssertionError("len(tracer) built or unpacked a span")

        monkeypatch.setattr(repro.trace.tracer, "_new_span", refuse)
        monkeypatch.setattr(repro.packedlog.PackedLog, "batches", refuse)
        assert len(tracer) == expected

    def test_files_are_the_dumps(self, sim, tracer, tmp_path):
        self._nested_run(sim, tracer)
        export_chrome(tracer, tmp_path / "t.json")
        assert (tmp_path / "t.json").read_text() == chrome_dumps(tracer)
        # The dict path (no Tracer behind it) sorts and writes the same.
        shuffled = list(reversed(tracer.to_dicts()))
        assert (chrome_dumps(shuffled, lane_names=tracer.lane_names())
                == chrome_dumps(tracer))
