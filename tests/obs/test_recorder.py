"""FlightRecorder unit tests: ring semantics, stamping, auto-dump."""

import pytest

from repro.obs import (
    NULL_RECORDER,
    FlightRecorder,
    NullRecorder,
    load_events,
)
from repro.obs.events import (
    CACHE_INSTALL,
    CACHE_UPDATE,
    FAULT_INJECT,
    VERIFY_VIOLATION,
)
from repro.sim import Simulator


def make_sim(recorder=None, **kwargs):
    return Simulator(seed=0, obs=recorder, **kwargs)


class TestEmission:
    def test_events_stamped_with_sim_time(self):
        recorder = FlightRecorder()
        sim = make_sim(recorder)
        sim.run(until=12.5)
        recorder.emit(CACHE_INSTALL, node="n0", key="k", state="S")
        (event,) = recorder.events()
        assert event.t == 12.5
        assert event.type == CACHE_INSTALL
        assert event.node == "n0" and event.key == "k"
        assert event.attrs == {"state": "S"}

    def test_seq_is_dense_and_one_based(self):
        recorder = FlightRecorder()
        make_sim(recorder)
        for _ in range(5):
            recorder.emit(CACHE_UPDATE, node="n0", key="k")
        assert [e.seq for e in recorder.events()] == [1, 2, 3, 4, 5]

    def test_trace_and_tick_default_to_zero(self):
        recorder = FlightRecorder()
        make_sim(recorder)
        recorder.emit(CACHE_INSTALL, node="n0", key="k")
        (event,) = recorder.events()
        assert event.trace == 0 and event.span == 0 and event.tick == 0

    def test_emit_before_bind_raises(self):
        recorder = FlightRecorder()
        with pytest.raises(RuntimeError, match="bind"):
            recorder.emit(CACHE_INSTALL, node="n0", key="k")

    def test_rebind_to_other_sim_rejected(self):
        recorder = FlightRecorder()
        sim = make_sim(recorder)
        assert recorder.bind(sim) is recorder  # same sim is idempotent
        with pytest.raises(ValueError, match="already bound"):
            Simulator(seed=1, obs=recorder)


class TestRing:
    def test_capacity_overwrites_oldest(self):
        recorder = FlightRecorder(capacity=4)
        make_sim(recorder)
        for index in range(10):
            recorder.emit(CACHE_UPDATE, node="n0", key=f"k{index}")
        assert len(recorder) == 4
        assert recorder.dropped == 6
        assert [e.key for e in recorder.events()] == ["k6", "k7", "k8", "k9"]
        assert [e.seq for e in recorder.events()] == [7, 8, 9, 10]

    def test_wrapped_ring_keeps_rows_and_attrs_aligned(self):
        recorder = FlightRecorder(capacity=4)
        sim = make_sim(recorder)
        for index in range(10):
            sim.run(until=float(index))
            recorder.emit(CACHE_UPDATE, node=f"n{index}", key=f"k{index}",
                          index=index)
        assert recorder.dropped == 6 and len(recorder) == 4
        events = recorder.events()
        assert [(e.seq, e.t, e.type, e.node, e.key, e.trace, e.span, e.tick,
                 e.attrs) for e in events] == [
            (index + 1, float(index), CACHE_UPDATE, f"n{index}", f"k{index}",
             0, 0, 0, {"index": index}) for index in range(6, 10)]
        assert [e.to_dict() for e in events] == recorder.to_dicts()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear_resets_ring_but_not_seq(self):
        recorder = FlightRecorder(capacity=2)
        make_sim(recorder)
        for _ in range(3):
            recorder.emit(CACHE_UPDATE, node="n0", key="k")
        recorder.clear()
        assert len(recorder) == 0
        recorder.emit(CACHE_UPDATE, node="n0", key="k")
        assert recorder.events()[0].seq == 4


class TestAutoDump:
    def test_fault_inject_dumps_ring(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(dump_path=str(path))
        make_sim(recorder)
        recorder.emit(CACHE_INSTALL, node="n0", key="k", state="S")
        assert not path.exists()
        recorder.emit(FAULT_INJECT, kind="NodeCrash", detail="n1")
        assert recorder.autodumps == 1
        events = load_events(path)
        assert [e["type"] for e in events] == [CACHE_INSTALL, FAULT_INJECT]

    def test_verify_violation_dumps_ring(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(dump_path=str(path))
        make_sim(recorder)
        recorder.emit(VERIFY_VIOLATION, node="n0", key="k", detail="stale")
        assert path.exists() and recorder.autodumps == 1

    def test_no_dump_without_path(self):
        recorder = FlightRecorder()
        make_sim(recorder)
        recorder.emit(FAULT_INJECT, kind="NodeCrash", detail="n1")
        assert recorder.autodumps == 0


class TestNullRecorder:
    def test_shared_singleton_is_default(self):
        sim = Simulator(seed=0)
        assert sim.obs is NULL_RECORDER
        assert not sim.obs.active

    def test_null_operations_are_noops(self):
        null = NullRecorder()
        null.emit(CACHE_INSTALL, node="n0", key="k")
        assert len(null) == 0
        assert null.events() == [] and null.to_dicts() == []
        assert null.bind(object()) is null

    def test_active_recorder_flag(self):
        assert FlightRecorder().active is True
        assert NULL_RECORDER.active is False
