"""Session obs= wiring: recording, export-on-close, determinism."""

import json

import pytest

from repro.obs import FlightRecorder, jsonl_dumps, load_events
from repro.obs.events import DIR_SHARER, EVENT_TYPES
from repro.session import Session
from repro.storage import DataItem


def _drive(session):
    session.preload({"k": DataItem("v0", 64), "j": DataItem("w0", 64)})
    session.write("node0", "k", DataItem("v1", 64))
    session.read("node1", "k")
    session.write("node1", "j", DataItem("w1", 64))
    session.read("node0", "j")


class TestWiring:
    def test_obs_true_records_protocol_events(self):
        with Session(nodes=2, seed=3, scheme="concord", obs=True) as s:
            _drive(s)
            assert isinstance(s.obs, FlightRecorder)
            assert len(s.obs) > 0
            events = s.obs.events()
            assert {e.type for e in events} <= EVENT_TYPES
            stamps = [(e.t, e.seq) for e in events]
            assert stamps == sorted(stamps)

    def test_obs_off_by_default(self):
        with Session(nodes=2, seed=3, scheme="concord") as s:
            _drive(s)
            assert s.obs is None
            assert not s.sim.obs.active

    def test_empty_recorder_instance_is_kept(self):
        # Regression: FlightRecorder defines __len__, so an empty
        # instance is falsy — wiring must not drop it.
        recorder = FlightRecorder(capacity=128)
        with Session(nodes=2, seed=3, scheme="concord", obs=recorder) as s:
            assert s.obs is recorder
            _drive(s)
        assert len(recorder) > 0

    def test_obs_path_exports_on_close(self, tmp_path):
        target = tmp_path / "flight.jsonl"
        with Session(nodes=2, seed=3, scheme="concord",
                     obs=str(target)) as s:
            _drive(s)
            assert s.obs.dump_path == str(target)
        events = load_events(target)
        assert events and all(e["type"] in EVENT_TYPES for e in events)

    def test_a_sharer_joining_at_the_home_is_recorded(self):
        # node0 holds the key in E; node1's read makes the home fetch it
        # from node0 and register node1 as the second sharer.
        with Session(nodes=4, seed=3, scheme="concord", obs=True) as s:
            ring = s.system.agents["node0"].ring
            key = next(k for k in (f"k{i}" for i in range(100))
                       if ring.home(k) not in ("node0", "node1"))
            s.preload({key: DataItem("v0", 64)})
            s.read("node0", key)
            s.read("node1", key)
            dump = [json.loads(line)
                    for line in jsonl_dumps(s.obs).splitlines()]
        joins = [(e["node"], e["key"], e["attrs"]) for e in dump
                 if e["type"] == DIR_SHARER]
        assert joins == [(ring.home(key), key,
                          {"sharer": "node1", "state": "S", "sharers": 2})]

    def test_export_obs_requires_obs(self, tmp_path):
        with Session(nodes=2, seed=3, scheme="concord") as s:
            with pytest.raises(RuntimeError, match="obs"):
                s.export_obs(str(tmp_path / "x.jsonl"))

    def test_export_obs_explicit(self, tmp_path):
        target = tmp_path / "flight.jsonl"
        with Session(nodes=2, seed=3, scheme="concord", obs=True) as s:
            _drive(s)
            s.export_obs(str(target))
        assert load_events(target) == s.obs.to_dicts()


class TestDeterminism:
    def test_same_seed_same_dump(self):
        dumps = []
        for _ in range(2):
            with Session(nodes=2, seed=5, scheme="concord", obs=True) as s:
                _drive(s)
                dumps.append(jsonl_dumps(s.obs))
        assert dumps[0] == dumps[1]

    def test_recorder_does_not_change_simulated_outcome(self):
        outcomes = []
        for obs in (None, True):
            with Session(nodes=2, seed=5, scheme="concord", obs=obs) as s:
                _drive(s)
                outcomes.append((s.sim.now, s.read("node0", "k")))
        assert outcomes[0] == outcomes[1]
