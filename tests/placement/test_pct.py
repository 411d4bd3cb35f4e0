"""Tests for the Producer-Consumer Table and communication-aware placement."""

import pytest

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.coord import CoordinationService
from repro.core import ConcordSystem
from repro.faas import FaasPlatform
from repro.placement import CommAwarePlacement, ProducerConsumerTable
from repro.session import Session
from repro.sim import Simulator
from repro.storage import DataItem
from repro.workloads.pc_apps import PC_PROFILES, build_pc_app


@pytest.fixture
def sim():
    return Simulator(seed=31)


@pytest.fixture
def cluster(sim):
    return Cluster(sim, SimConfig(num_nodes=4))


def run(sim, gen, limit=600_000.0):
    return sim.run_until_complete(sim.spawn(gen), limit=sim.now + limit)


class TestPct:
    def test_edges_accumulate(self):
        pct = ProducerConsumerTable(min_observations=2)
        pct.observe("producer", "consumer")
        assert pct.count("producer", "consumer") == 1
        assert pct.paired_functions("consumer") == set()
        pct.observe("producer", "consumer")
        assert pct.paired_functions("consumer") == {"producer"}
        assert pct.paired_functions("producer") == {"consumer"}

    def test_pairing_is_thresholded(self):
        pct = ProducerConsumerTable(min_observations=5)
        for _ in range(4):
            pct.observe("a", "b")
        assert pct.paired_functions("a") == set()

    def test_concord_reports_edges_to_pct(self):
        """Coherence traffic (write at one node, read at another) teaches
        the PCT the producer-consumer pair, transparently."""
        s = Session.compose(config=SimConfig(num_nodes=4), seed=31, app="pc")
        sim, concord = s.sim, s.system
        pct = ProducerConsumerTable(min_observations=1).attach(concord)

        from repro.caching.base import AccessContext

        def producer(sim):
            ctx = AccessContext(function="stage0")
            yield from concord.write("node0", "h0", DataItem("x", 100), ctx)

        def consumer(sim):
            ctx = AccessContext(function="stage1")
            yield from concord.read("node1", "h0", ctx)

        run(sim, producer(sim))
        run(sim, consumer(sim))
        assert pct.count("stage0", "stage1") == 1
        assert "stage0" in pct.paired_functions("stage1")


class TestCommAwarePlacement:
    def test_new_instance_lands_next_to_paired_function(self):
        profile = PC_PROFILES["IoTSensor"]
        s = Session.compose(config=SimConfig(num_nodes=4), seed=31,
                            app=profile.name)
        sim, cluster, concord = s.sim, s.cluster, s.system
        pct = ProducerConsumerTable(min_observations=1).attach(concord)
        for _ in range(3):
            pct.observe(f"{profile.name}-s0", f"{profile.name}-s1")

        platform = FaasPlatform(cluster, placement=CommAwarePlacement(pct))
        app = platform.deploy(build_pc_app(profile), concord, prewarm=False)
        # Pre-place only the producer, on node2.
        cluster.node("node2").add_container(profile.name, f"{profile.name}-s0")

        run(sim, platform.invoke(app, f"{profile.name}-s1", {"request": 0}))
        # The consumer cold-started on the producer's node.
        assert cluster.node("node2").containers_of(
            profile.name, f"{profile.name}-s1")

    def test_placement_without_pairs_falls_back(self, sim, cluster):
        pct = ProducerConsumerTable()
        platform = FaasPlatform(cluster, placement=CommAwarePlacement(pct))
        profile = PC_PROFILES["EventStreaming"]
        from repro.caching import DirectStorage

        app = platform.deploy(
            build_pc_app(profile), DirectStorage(cluster), prewarm=False)
        result = run(sim, platform.request(profile.name, {"request": 1}))
        assert result.latency_ms > 0
        assert app.cold_starts == profile.stages

    def test_colocated_pipeline_is_faster(self, sim, cluster):
        """End-to-end Figure-16 effect: with the PCT taught, the pipeline's
        hand-offs become local and latency drops."""
        coord = CoordinationService(cluster.network, cluster.config)
        profile = PC_PROFILES["MLSentiment"]

        def measure(placement_policy, app_name, request_base):
            concord = ConcordSystem(
                cluster, app=app_name, coord=coord)
            pct = ProducerConsumerTable(min_observations=1).attach(concord)
            if placement_policy == "cafp":
                for stage in range(profile.stages - 1):
                    for _ in range(3):
                        pct.observe(f"{app_name}-s{stage}", f"{app_name}-s{stage + 1}")
                platform = FaasPlatform(cluster, placement=CommAwarePlacement(pct))
            else:
                platform = FaasPlatform(cluster)
            spec = build_pc_app(profile)
            spec.name = app_name
            for fn in spec.functions.values():
                fn.name = fn.name.replace(profile.name, app_name)
            spec.functions = {f.name: f for f in spec.functions.values()}
            spec.workflow = [n.replace(profile.name, app_name) for n in spec.workflow]
            platform.deploy(spec, concord, prewarm=False)
            total = 0.0
            for index in range(6):
                outcome = run(sim, platform.request(
                    app_name, {"request": request_base + index}))
                total += outcome.latency_ms
            return total / 6

        slow = measure("default", "MLSentiment", 0)
        fast = measure("cafp", "MLSentiment2", 100)
        assert fast < slow
