"""Platform behavior around node failures and container lifecycle."""

import pytest

from repro.caching import DirectStorage
from repro.cluster import Cluster
from repro.config import SimConfig
from repro.faas import AppSpec, FaasPlatform, FunctionSpec


@pytest.fixture
def sim():
    from repro.sim import Simulator

    return Simulator(seed=13)


@pytest.fixture
def cluster(sim):
    return Cluster(sim, SimConfig(num_nodes=3, cores_per_node=2))


def trivial_app():
    def f(ctx):
        yield from ctx.compute(1.0)
        return "done"

    spec = AppSpec(name="t")
    spec.add_function(FunctionSpec("f", f))
    return spec


def run(sim, gen):
    return sim.run_until_complete(sim.spawn(gen), limit=sim.now + 60_000.0)


class TestFailures:
    def test_warm_nodes_skips_dead_nodes(self, sim, cluster):
        platform = FaasPlatform(cluster)
        app = platform.deploy(trivial_app(), DirectStorage(cluster))
        cluster.crash_node("node1")
        warm = platform.warm_nodes(app, "f")
        assert {n.id for n in warm} == {"node0", "node2"}

    def test_requests_keep_flowing_after_crash(self, sim, cluster):
        platform = FaasPlatform(cluster)
        platform.deploy(trivial_app(), DirectStorage(cluster))
        cluster.crash_node("node2")
        for _ in range(5):
            result = run(sim, platform.request("t"))
            assert result.output == "done"

    def test_all_nodes_dead_falls_back_to_cold_start_elsewhere(self, sim, cluster):
        platform = FaasPlatform(cluster)
        app = platform.deploy(trivial_app(), DirectStorage(cluster),
                              node_ids=["node1"])
        cluster.crash_node("node1")
        result = run(sim, platform.request("t"))
        assert result.output == "done"
        assert app.cold_starts == 1

    def test_crash_mid_invocation_reschedules_elsewhere(self, sim, cluster):
        """A request interrupted by a node crash re-runs on a live node."""

        def slow(ctx):
            yield from ctx.compute(500.0)
            return "done"

        spec = AppSpec(name="t")
        spec.add_function(FunctionSpec("f", slow))
        platform = FaasPlatform(cluster)
        app = platform.deploy(spec, DirectStorage(cluster),
                              node_ids=["node1"])
        platform.submit("t")
        sim.run(until=100.0)  # the invocation is mid-compute on node1
        cluster.crash_node("node1")
        sim.run(until=5000.0)
        assert app.requests_rescheduled == 1
        assert app.requests_completed == 1
        assert app.requests_failed == 0

    def test_crash_mid_invocation_fails_after_reschedule_budget(self, sim, cluster):
        """With rescheduling disabled, the interrupted request fails."""

        def slow(ctx):
            yield from ctx.compute(500.0)
            return "done"

        spec = AppSpec(name="t")
        spec.add_function(FunctionSpec("f", slow))
        platform = FaasPlatform(cluster)
        platform.max_reschedules = 0
        app = platform.deploy(spec, DirectStorage(cluster),
                              node_ids=["node1"])
        platform.submit("t")
        sim.run(until=100.0)
        cluster.crash_node("node1")
        sim.run(until=5000.0)
        assert app.requests_rescheduled == 0
        assert app.requests_failed == 1
        assert app.requests_completed == 0

    def test_concurrent_cold_starts_share_one_container(self, sim, cluster):
        """No thundering herd: simultaneous invocations of a cold function
        start exactly one container."""
        platform = FaasPlatform(cluster)
        app = platform.deploy(trivial_app(), DirectStorage(cluster),
                              prewarm=False)
        procs = [sim.spawn(platform.request("t")) for _ in range(6)]
        sim.run(until=sim.now + 10_000.0)
        assert all(p.triggered for p in procs)
        assert app.cold_starts == 1
        total = sum(len(n.containers_of("t", "f"))
                    for n in cluster.nodes.values())
        assert total == 1


class TestCrashReturnsCores:
    """A crash must not leak the node's cores (they survive a restart)."""

    def _one_core_platform(self, sim, compute_ms):
        cluster = Cluster(sim, SimConfig(num_nodes=2, cores_per_node=1))

        def burn(ctx):
            yield from ctx.compute(compute_ms)
            return "done"

        spec = AppSpec(name="t")
        spec.add_function(FunctionSpec("f", burn))
        platform = FaasPlatform(cluster)
        platform.max_reschedules = 0
        platform.deploy(spec, DirectStorage(cluster), node_ids=["node1"])
        return cluster, platform

    def test_crash_with_a_queued_invocation_frees_the_core(self, sim):
        cluster, platform = self._one_core_platform(sim, compute_ms=500.0)
        platform.submit("t")
        platform.submit("t")
        sim.run(until=100.0)
        cores = cluster.node("node1").cores
        assert (cores.in_use, cores.queue_length) == (1, 1)
        cluster.crash_node("node1")
        sim.run(until=200.0)
        assert (cores.in_use, cores.queue_length) == (0, 0)

    def test_crash_on_the_uncontended_grant_hop_frees_the_core(self, sim):
        cluster, platform = self._one_core_platform(sim, compute_ms=500.0)
        cores = cluster.node("node1").cores
        platform.submit("t")
        # Step to the instant the grant is taken but not yet delivered.
        while cores.in_use == 0:
            sim.step()
        cluster.crash_node("node1")
        sim.run(until=200.0)
        assert (cores.in_use, cores.queue_length) == (0, 0)
