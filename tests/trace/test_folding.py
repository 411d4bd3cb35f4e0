"""Fixed-cost leaves are counted on their parents, and every reader
counts them back.

A ``compute`` interval and a childless ``op`` (a local hit) become
``<label>.n`` / ``<label>.ms`` attrs on the span they ran under, and a
call's serving interval becomes ``server_start_ms`` / ``server_end_ms``
on the client's ``rpc`` span.  These tests hold the folding rule
itself, the breakdown it must reproduce, and the volume it buys.
"""

import pytest

from repro.experiments.runner import run_mixed_workload
from repro.obs import FlightRecorder
from repro.session import Session
from repro.sim import Simulator
from repro.trace import Tracer
from repro.trace.summary import category_totals, op_breakdown, per_app_requests
from repro.trace.tracer import fold_keys, folded_leaves

#: The golden all-signals run of ``tests/session/test_golden_identity.py``.
_MIXED = dict(
    nodes=4, cores_per_node=4, apps=("SocNet", "HotelBook", "TrainT"),
    utilization=0.4, duration_ms=1200.0, warmup_ms=600.0, drain_ms=800.0,
    seed=1009,
)

READ = fold_keys("op:s:read")


class TestLeafRule:
    @pytest.fixture
    def tracer(self):
        return Tracer()

    @pytest.fixture
    def sim(self, tracer):
        return Simulator(seed=1, tracer=tracer)

    def _leaf_under_parent(self, sim, tracer, body):
        def proc(sim):
            with tracer.span("invoke", "invoke", parent=None):
                leaf = tracer.span("read", "op", leaf=READ, scheme="s")
                try:
                    yield sim.timeout(2.0)
                    yield from body(sim)
                finally:
                    leaf.end()
        sim.spawn(proc(sim))
        sim.run()
        return {span.name: span for span in tracer.spans}

    def test_a_childless_leaf_is_counted_on_its_parent(self, sim, tracer):
        def nothing(sim):
            yield sim.timeout(1.0)

        spans = self._leaf_under_parent(sim, tracer, nothing)
        assert sorted(spans) == ["invoke"]
        assert list(folded_leaves(spans["invoke"].attrs)) == [
            ("op:s:read", 1, 3.0)]
        assert tracer.open_spans() == [] and tracer._leaves == {}

    def test_a_leaf_with_a_child_stays_a_span(self, sim, tracer):
        def child(sim):
            with tracer.span("rpc:x", "rpc"):
                yield sim.timeout(1.0)

        spans = self._leaf_under_parent(sim, tracer, child)
        assert sorted(spans) == ["invoke", "read", "rpc:x"]
        assert spans["rpc:x"].parent_id == spans["read"].span_id
        assert list(folded_leaves(spans["invoke"].attrs)) == []

    def test_a_leaf_an_event_names_stays_a_span(self):
        tracer = Tracer()
        sim = Simulator(seed=1, tracer=tracer, obs=FlightRecorder())

        def emits(sim):
            sim.obs.emit("cache.update", node="n0", key="k")
            yield sim.timeout(1.0)

        spans = self._leaf_under_parent(sim, tracer, emits)
        assert sorted(spans) == ["invoke", "read"]
        (event,) = sim.obs.events()
        assert event.span == spans["read"].span_id

    def test_a_leaf_without_an_open_parent_stays_a_span(self, sim, tracer):
        def proc(sim):
            leaf = tracer.span("read", "op", leaf=READ, scheme="s")
            yield sim.timeout(2.0)
            leaf.end()

        sim.spawn(proc(sim))
        sim.run()
        (span,) = tracer.spans
        assert (span.name, span.duration_ms) == ("read", 2.0)


@pytest.fixture(scope="module")
def golden():
    """The golden all-signals run: its span dicts and registry."""
    result = run_mixed_workload(**_MIXED, trace=True, metrics=True, obs=True)
    return result.tracer.to_dicts(), result.metrics, result.obs


class TestGoldenRun:
    def test_breakdown_counts_every_step_as_when_each_was_a_span(
            self, golden):
        """Counts and totals (at the 2 decimals ``repro-trace`` prints)
        as the trace read when every step was a span of its own."""
        spans, _, _ = golden
        totals = {category: (row["count"], round(row["total_ms"], 2))
                  for category, row in category_totals(spans).items()}
        assert totals == {
            "agent": (2964, 70271.18), "compute": (12109, 12874.42),
            "invalidation": (354, 1668.16), "invoke": (1622, 143524.91),
            "op": (13418, 130650.49), "request": (440, 143744.91),
            "rpc": (2771, 62897.75), "rpc.server": (2801, 55666.11),
            "storage": (2598, 78224.31)}
        ops = {key: (row["count"], round(row["total_ms"], 2))
               for key, row in op_breakdown(spans).items()}
        assert ops == {("concord", "read"): (11735, 59976.01),
                       ("concord", "write"): (1683, 70674.48)}

    def test_signal_volume_per_request(self, golden):
        """Per finished request (all 440, warmup included): 32.2 spans
        (88.8 when every step was a span) and 4.4 stored telemetry points
        (11.0 when every tick was stored)."""
        spans, registry, _ = golden
        requests = sum(1 for span in spans if span["category"] == "request")
        assert requests == 440
        assert len(spans) / requests <= 35.0
        assert registry.store.stored_points() / requests <= 5.0

    def test_every_named_span_was_filed(self, golden):
        """Nothing refers to a folded leaf: every parent id and every
        event's span id is a span of the export."""
        spans, _, recorder = golden
        ids = {span["span_id"] for span in spans}
        assert {span["parent_id"] for span in spans} - ids == {None}
        assert {event.span for event in recorder.events()} - ids <= {0}


def test_folded_trace_matches_the_platform_counters():
    """fig01's trace-vs-counter check on a Concord run, which — unlike
    fig01's ``nocache`` platform — has local hits to fold: per app, the
    trace's storage and compute time equal the platform's totals."""
    apps = ("SocNet", "HotelBook")
    s = Session(seed=7, nodes=4, cores_per_node=4, scheme="concord",
                apps=apps, trace=True)
    for name in apps:
        s.sim.spawn(s.platform.open_loop(name, 40.0, 2500.0,
                                         s.factories[name]),
                    name=f"load:{name}")
    s.sim.run(until=5000.0)
    spans = s.tracer.to_dicts()
    folded_ops = sum(count for span in spans
                     for label, count, _ms in folded_leaves(span["attrs"])
                     if label.startswith("op:"))
    assert folded_ops > 1000
    traced = per_app_requests(spans)
    for name in apps:
        app = s.deployed[name]
        row = traced[name]
        assert row["requests"] == app.requests_completed
        for column, total in (("storage_ms", app.storage_ms_total),
                              ("compute_ms", app.compute_ms_total)):
            assert row[column] * row["requests"] == pytest.approx(
                total, rel=1e-3)
