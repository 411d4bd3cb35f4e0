"""End-to-end acceptance: one merged timeline for a crash+partition run.

A Session records all three observability signals (flight recorder,
tracer, metrics) while a FaultInjector replays a NodeCrash plus a
NetworkPartition under live traffic.  The exports then have to join into
ONE timeline — through the library and through the ``repro-inspect``
CLI — with protocol events carrying real span ids and metric ticks, and
the injected faults visible in the same window.
"""

import io

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NetworkPartition, NodeCrash
from repro.obs import load_events
from repro.obs.cli import main
from repro.obs.events import FAULT_INJECT
from repro.obs.timeline import merge_timeline
from repro.session import Session
from repro.storage import DataItem
from repro.telemetry import load_series
from repro.trace import load_trace

RUN_MS = 2000.0

PLAN = FaultPlan(seed=13, events=(
    NodeCrash(at_ms=300.0, node="node3"),
    NetworkPartition(at_ms=600.0, duration_ms=200.0,
                     groups=(("node0", "node1", "node2"), ("node3",))),
))


def _traffic(session):
    """Background load across the fault window; faulted ops may fail."""
    def driver(sim):
        system = session.system
        for step in range(40):
            key = f"k{step % 6}"
            try:
                yield from system.write(
                    "node0", key, DataItem(f"v{step}", 64))
                yield from system.read("node1", key)
            except Exception:
                pass  # ops racing the crash/partition are allowed to fail
            yield sim.timeout(40.0)
    return driver


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    dump, trace, metrics = (tmp / "flight.jsonl", tmp / "trace.json",
                            tmp / "metrics.jsonl")
    with Session(nodes=4, seed=13, scheme="concord", trace=True,
                 metrics=True, metrics_interval_ms=100.0,
                 obs=str(dump)) as session:
        session.preload({f"k{i}": DataItem("v0", 64) for i in range(6)})
        injector = FaultInjector(session.cluster, PLAN,
                                 systems=(session.system,))
        injector.start()
        session.sim.spawn(_traffic(session)(session.sim), name="load")
        session.advance(RUN_MS)
        assert len(injector.applied) == len(PLAN)
        # Drain: let RPC timeouts fire and in-flight ops finish so every
        # span is closed before the exports are written.
        session.advance(8000.0)
        session.export_trace(str(trace))
        session.export_metrics(str(metrics))
    return dump, trace, metrics


class TestMergedTimeline:
    def test_all_three_signals_in_one_window(self, exports):
        dump, trace, metrics = exports
        timeline = merge_timeline(
            load_events(dump),
            spans=load_trace(trace),
            series=load_series(str(metrics)),
            since=0.0, until=RUN_MS,
        )
        counts = timeline["counts"]
        assert counts["events"] > 0
        assert counts["spans"] > 0
        assert counts["ticks"] > 0

        events = [row for row in timeline["rows"]
                  if row["source"] == "event"]
        # Cross-signal correlation: protocol events emitted inside traced
        # operations carry the ambient span ids and the metric tick.
        assert any(row["trace"] and row["span"] for row in events)
        assert any(row["tick"] > 0 for row in events)

        faults = [row for row in events if row["type"] == FAULT_INJECT]
        assert sorted(row["attrs"]["kind"] for row in faults) == \
            ["NetworkPartition", "NodeCrash"]

    def test_event_span_ids_resolve_to_real_spans(self, exports):
        dump, trace, _metrics = exports
        span_ids = {span["span_id"] for span in load_trace(trace)}
        stamped = [event for event in load_events(dump) if event["span"]]
        assert stamped
        assert {event["span"] for event in stamped} <= span_ids

    def test_cli_renders_the_merged_timeline(self, exports):
        dump, trace, metrics = exports
        out = io.StringIO()
        code = main(["timeline", str(dump), str(trace), str(metrics),
                     "--since", "0", "--until", str(RUN_MS)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "fault.inject" in text and "kind=NodeCrash" in text
        assert "kind=NetworkPartition" in text
        assert "  span    " in text and "  metric  " in text

    def test_autodump_preserved_the_pre_fault_recording(self, exports):
        dump, _trace, _metrics = exports
        # obs= was a path: the ring was dumped at each injected fault and
        # re-exported on close; the file must at least cover both faults.
        events = load_events(dump)
        kinds = [event["attrs"]["kind"] for event in events
                 if event["type"] == FAULT_INJECT]
        assert kinds == ["NodeCrash", "NetworkPartition"]
