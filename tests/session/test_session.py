"""The Session facade: wiring, driving, tracing lifecycle."""

import json

import pytest

from repro.caching import DirectStorage
from repro.core import ConcordSystem
from repro.schemes import UnknownSchemeError
from repro.session import Session
from repro.storage import DataItem
from repro.trace import Tracer, load_trace


class TestWiring:
    def test_defaults_build_a_concord_cluster(self):
        with Session() as s:
            assert isinstance(s.system, ConcordSystem)
            assert len(s.cluster.node_ids) == 4
            assert s.storage is s.cluster.storage
            assert s.tracer is None

    def test_scheme_selection_through_registry(self):
        with Session(scheme="nocache") as s:
            assert isinstance(s.system, DirectStorage)

    def test_unknown_scheme_raises(self):
        with pytest.raises(UnknownSchemeError):
            Session(scheme="definitely-not-a-scheme")

    def test_scheme_config_passthrough(self):
        with Session(scheme="concord", capacity=1024) as s:
            agent = next(iter(s.system.agents.values()))
            assert agent.cache.capacity_bytes == 1024

    def test_node_and_core_counts(self):
        with Session(nodes=6, cores_per_node=2) as s:
            assert len(s.cluster.node_ids) == 6
            node = s.cluster.node("node0")
            assert node.cores.capacity == 2


class TestDriving:
    def test_read_write_round_trip(self):
        with Session(seed=9) as s:
            s.preload({"k": DataItem("v0", 256)})
            assert s.read("node1", "k").payload == "v0"
            s.write("node2", "k", DataItem("v1", 256))
            assert s.read("node3", "k").payload == "v1"

    def test_clock_advances(self):
        with Session(seed=9) as s:
            s.preload({"k": DataItem("v0", 256)})
            before = s.sim.now
            s.read("node1", "k")
            after_read = s.sim.now
            assert after_read > before
            s.advance(250.0)
            assert s.sim.now == after_read + 250.0

    def test_run_arbitrary_generator(self):
        with Session(seed=9) as s:
            def op(sim):
                yield sim.timeout(5.0)
                return "done"

            result = s.run(op(s.sim))
            assert result.value == "done"
            assert result.finished_ms == result.started_ms + 5.0
            assert result.duration_ms == 5.0

    def test_configuration_is_keyword_only(self):
        with pytest.raises(TypeError):
            Session(2, 9)

    def test_identical_sessions_identical_results(self):
        def trial():
            with Session(seed=33) as s:
                s.preload({"k": DataItem("v0", 256)})
                s.read("node1", "k")
                s.write("node2", "k", DataItem("v1", 256))
                return s.sim.now

        assert trial() == trial()


class TestTracing:
    def test_trace_true_collects_spans(self):
        with Session(seed=9, trace=True) as s:
            s.preload({"k": DataItem("v0", 256)})
            s.read("node1", "k")
            assert s.tracer is not None
            assert any(span.category == "op" for span in s.tracer.spans)
            assert s.tracer.open_spans() == []

    def test_trace_path_exports_chrome_on_close(self, tmp_path):
        path = tmp_path / "session.json"
        with Session(seed=9, trace=str(path)) as s:
            s.preload({"k": DataItem("v0", 256)})
            s.read("node1", "k")
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        spans = load_trace(path)
        assert any(span["category"] == "op" for span in spans)

    def test_trace_accepts_existing_tracer(self):
        tracer = Tracer()
        with Session(seed=9, trace=tracer) as s:
            assert s.tracer is tracer
            s.preload({"k": DataItem("v0", 256)})
            s.read("node1", "k")
        assert tracer.spans

    def test_export_without_tracer_raises(self, tmp_path):
        with Session(seed=9) as s:
            with pytest.raises(RuntimeError):
                s.export_trace(str(tmp_path / "x.json"))

    def test_export_unknown_format_rejected(self, tmp_path):
        """Chrome is the one trace format: there is no ``fmt=``."""
        with Session(seed=9, trace=True) as s:
            with pytest.raises(TypeError):
                s.export_trace(str(tmp_path / "x.bin"), fmt="protobuf")


class TestComposition:
    def test_apps_build_a_platform_with_the_schemes_scheduler(self):
        from repro.faas import CasScheduler

        s = Session.compose(nodes=3, seed=5, apps=("SocNet", "HotelBook"))
        assert isinstance(s.platform.scheduler, CasScheduler)
        assert set(s.deployed) == set(s.factories) == {"SocNet", "HotelBook"}
        assert s.system is s.schemes["SocNet"]
        assert s.schemes["SocNet"] is not s.schemes["HotelBook"]
        assert "entity" in s.factories["SocNet"](0)

    def test_plain_session_builds_no_platform_or_injector(self):
        with Session(seed=5) as s:
            assert s.platform is None and s.injector is None
            assert s.schemes == {"app": s.system}

    def test_compose_starts_nothing(self):
        from repro.faults import FaultPlan

        s = Session.compose(nodes=2, seed=5, apps=("SocNet",), metrics=True,
                            faults=FaultPlan(events=()))
        assert not s.sampler.running
        assert s.injector.platform is s.platform
        assert Session(nodes=2, seed=5, metrics=True).sampler.running

    def test_injector_gets_the_restartable_schemes(self):
        from repro.faults import FaultPlan

        s = Session.compose(nodes=2, seed=5, scheme="write-through",
                            apps=("SocNet", "HotelBook"),
                            faults=FaultPlan(events=()))
        assert s.injector.systems == list(s.schemes.values())
        # OFC's shared cache has no restart_instance: nothing to re-admit.
        ofc = Session.compose(nodes=2, seed=5, scheme="ofc",
                              apps=("SocNet", "HotelBook"),
                              faults=FaultPlan(events=()))
        assert ofc.injector.systems == []

    def test_regions_layer_onto_a_config(self):
        from repro.config import SimConfig

        config = SimConfig(num_nodes=4, cores_per_node=2)
        with Session(config=config, regions=2) as s:
            assert s.config.regions.region_of("node1") == "region1"
            assert s.config.cores_per_node == 2
        with pytest.raises(TypeError):
            Session(config=s.config, regions=2)


class TestRepeatableInOneProcess:
    """Two identically seeded sessions in one interpreter are the same run.

    Every id is drawn from the run's own ``sim.ids`` counter.  Invocation
    ids are written into stored values: with a class-level counter the
    second run of a pair started counting where the first one stopped and
    stored different data under 17 of 1 267 keys.
    """

    @staticmethod
    def _stored_after_load():
        s = Session(nodes=4, seed=3, scheme="concord", apps=("eShop",))
        s.sim.spawn(s.platform.open_loop("eShop", 40.0, 1500.0,
                                         s.factories["eShop"]), name="load")
        s.sim.run(until=4000.0)
        s.close()
        completed = s.deployed["eShop"].requests_completed
        records = s.storage._data
        return completed, {key: (record.version, repr(record.value))
                           for key, record in sorted(records.items())}

    def test_same_seed_same_stored_values(self):
        completed, first = self._stored_after_load()
        _again, second = self._stored_after_load()
        assert completed > 20
        differing = [key for key in first if first[key] != second[key]]
        assert first.keys() == second.keys() and not differing

    def test_same_seed_same_container_ids(self):
        def container_ids():
            s = Session(nodes=2, seed=3, apps=("SocNet",))
            s.close()
            return [list(s.cluster.node(node).containers)
                    for node in s.cluster.node_ids]

        first = container_ids()
        assert first[0][0] == 1 and container_ids() == first
