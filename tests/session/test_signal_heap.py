"""What a drained run leaves on the garbage collector's plate.

CPython's cyclic collector re-scans every *tracked* object a run
retains, so a sink that keeps one object per span / event / sample — or
a kernel that keeps every finished process reachable from a long-lived
event — makes every full collection of a long run slower (DESIGN.md
§12).  The sinks therefore store rows of atomics and a decided race lets
go of its losers; these tests pin both properties on the heap itself — a
wall-clock assertion could not.  Nor could one pin what a finished record
costs in bytes once the sinks pack their batches: tracemalloc can.
"""

import gc
import tracemalloc

import pytest

import repro.packedlog
from repro.obs import ProtoEvent
from repro.session import Session
from repro.sim.events import AnyOf
from repro.sim.process import Process
from repro.trace import Span, TraceContext
from repro.verify import check_run

APPS = ("SocNet", "HotelBook")


def _drained_run(signals: bool, metrics: bool = None,
                 load_ms: float = 2500.0) -> Session:
    """A small FaaS run driven to quiescence (sampler included)."""
    s = Session(seed=7, nodes=4, cores_per_node=4, scheme="concord",
                apps=APPS, trace=signals, obs=signals,
                metrics=signals if metrics is None else metrics)
    for name in APPS:
        s.sim.spawn(s.platform.open_loop(name, 40.0, load_ms,
                                         s.factories[name]),
                    name=f"load:{name}")
    s.sim.run(until=load_ms + 2500.0)
    assert check_run(s) == []
    s.close()
    s.advance(500.0)  # the stopped sampler wakes once more and exits
    return s


def _census() -> dict:
    gc.collect()
    counts: dict = {}
    for obj in gc.get_objects():
        counts[type(obj)] = counts.get(type(obj), 0) + 1
    counts["tracked"] = sum(counts.values())
    return counts


def _measured_run(signals: bool, metrics: bool = None,
                  load_ms: float = 2500.0):
    """(session, {type or "tracked": objects the run left tracked})."""
    before = _census()
    session = _drained_run(signals, metrics, load_ms)
    after = _census()
    return session, {key: after[key] - before.get(key, 0) for key in after}


@pytest.fixture(scope="module")
def plain_heap():
    """(plain session, plain heap cost) — measured before any signals run."""
    return _measured_run(signals=False)


@pytest.fixture(scope="module")
def metrics_heap(plain_heap):
    """(metrics-only session, its heap cost): telemetry on, no trace or
    recorder."""
    return _measured_run(signals=False, metrics=True)


#: The signals run must file over 5 000 spans, so it runs longer than
#: the others; what it keeps per span is measured against a metrics-only
#: run of the same length.
SIGNALS_LOAD_MS = 4500.0


@pytest.fixture(scope="module")
def heaps(plain_heap, metrics_heap):
    """(plain heap cost, signals session, signals heap cost, heap cost of
    a metrics-only run as long as the signals run)."""
    _, plain_cost = plain_heap
    _, twin_cost = _measured_run(signals=False, metrics=True,
                                 load_ms=SIGNALS_LOAD_MS)
    signals, signals_cost = _measured_run(signals=True,
                                          load_ms=SIGNALS_LOAD_MS)
    return plain_cost, signals, signals_cost, twin_cost


def test_plain_run_keeps_no_finished_process_alive(plain_heap):
    # Every fetch: / invrpc: process is raced against a long-lived
    # ``removed:<peer>`` event; the decided race must let go of it.
    s, cost = plain_heap
    gc.collect()
    finished = [obj.name for obj in gc.get_objects()
                if isinstance(obj, Process) and obj.sim is s.sim
                and obj.triggered]
    assert finished == []
    assert cost.get(AnyOf, 0) == 0
    # What is left is live work: heartbeats, detectors, idle containers.
    assert cost[Process] < 20


def test_tracked_objects_per_completed_request(plain_heap):
    s, cost = plain_heap
    completed = sum(app.requests_completed for app in s.deployed.values())
    assert completed == 200
    # 63.1 with decided races released (74.2 before: each of the 142
    # races kept its AnyOf, Process, generator, lists and bound methods).
    # The rest is state the run is supposed to hold: storage records,
    # cached and directory entries, and the RPC deadlines of the last 5 s.
    assert cost["tracked"] / completed < 66.0


def test_no_per_record_objects_survive(heaps):
    _, s, cost, _ = heaps
    spans = len(s.tracer.to_dicts())
    assert spans > 5000 and len(s.obs) > 1000
    # The coordination service's heartbeat RPCs never drain.
    open_spans = len(s.tracer.open_spans())
    assert open_spans < 20
    assert cost.get(Span, 0) == open_spans
    assert cost.get(ProtoEvent, 0) == 0
    # A context lives in a process slot, an open span or a message in
    # flight: bounded by what is live, not by what has finished.
    assert cost.get(TraceContext, 0) <= cost[Process]


def test_tracing_keeps_no_finished_process_alive(heaps):
    plain_cost, _, cost, _ = heaps
    assert cost[Process] == plain_cost[Process]


def test_tracked_objects_per_finished_span(heaps):
    # Measured against the metrics-only run: what telemetry keeps is per
    # series, not per span (next test), and with ~5k spans a run its
    # ~1.4k objects alone would read as 0.28 a span.
    _, s, cost, twin_cost = heaps
    spans = len(s.tracer.to_dicts())
    assert (cost["tracked"] - twin_cost["tracked"]) / spans < 0.1


def test_tracked_objects_per_telemetry_series(plain_heap, metrics_heap):
    # A series keeps a fixed set — the Series, its child, callback and
    # plan row; its two change arrays are not tracked: 8.6 objects each
    # over 165 series — and nothing per tick (each sampled 51 times).
    _, plain_cost = plain_heap
    s, cost = metrics_heap
    series = len(s.metrics.store)
    assert (cost["tracked"] - plain_cost["tracked"]) / series < 12.0


def test_read_surfaces_are_built_on_demand(heaps):
    _, s, _, _ = heaps
    before = _census()
    spans = s.tracer.spans
    assert len(spans) == len(s.tracer.to_dicts())
    assert all(type(span) is Span for span in spans)
    events = s.obs.events()
    assert len(events) == len(s.obs)
    assert all(type(event) is ProtoEvent for event in events)
    del spans, events
    after = _census()
    assert after.get(Span, 0) == before.get(Span, 0)
    assert after.get(ProtoEvent, 0) == before.get(ProtoEvent, 0)


#: tracemalloc bytes per finished record (span or event) at 457b206, one
#: tuple and one dict each; packed batches must at least halve it.
UNPACKED_BYTES_PER_RECORD = 350


def _allocated_by(build):
    """(what ``build()`` returned, bytes it left allocated); tracing on."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    result = build()
    gc.collect()
    return result, tracemalloc.get_traced_memory()[0] - before


def test_bytes_retained_per_finished_record(monkeypatch):
    # ~21k records: at the real batch size up to a tenth would still be
    # staged.
    monkeypatch.setattr(repro.packedlog, "BATCH", 256)
    tracemalloc.start()
    try:
        _, plain = _allocated_by(lambda: _drained_run(False, load_ms=10000.0))
        s, traced = _allocated_by(
            lambda: _drained_run(True, metrics=False, load_ms=10000.0))
        records = len(s.tracer.to_dicts()) + len(s.obs)
        assert records > 20000
        per_record = (traced - plain) / records
        assert per_record <= UNPACKED_BYTES_PER_RECORD / 2

        # Reading unpacks; what the views needed goes when they go.
        def build_and_drop_views():
            assert len(s.tracer.spans) + len(s.obs.events()) == records

        _, left_behind = _allocated_by(build_and_drop_views)
        assert left_behind / records < 0.05 * per_record
    finally:
        tracemalloc.stop()
