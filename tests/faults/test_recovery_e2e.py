"""End-to-end crash recovery: a node holding owned entries dies mid-run.

The full stack — FaaS platform driving Poisson load through a Concord
deployment, coordination-service failure detection, survivor recovery —
with a :class:`FaultPlan` crashing a node that provably holds exclusive
(owned) cache entries and directory state at the moment of the crash.
Afterwards the runtime coherence checker must find nothing: no stale
copies, no directory entry pointing at the dead node, and the telemetry
counters must agree with the injected plan.
"""

import pytest

from repro.caching.base import EXCLUSIVE
from repro.config import SimConfig
from repro.faults import FaultPlan, NodeCrash
from repro.session import Session
from repro.storage import DataItem
from repro.verify import check_coherence
from repro.workloads import ALL_PROFILES, entity_inputs_factory
from repro.workloads.profiles import entity_key

APP = "SocNet"
VICTIM = "node2"
CRASH_MS = 3000.0
DURATION_MS = 6000.0
SETTLE_MS = 4000.0


@pytest.fixture
def deployment():
    """The canonical stack with a crash plan targeting ``VICTIM``."""
    plan = FaultPlan(events=(NodeCrash(at_ms=CRASH_MS, node=VICTIM),))
    s = Session.compose(
        seed=21, metrics=True, apps=(APP,), faults=plan,
        config=SimConfig(num_nodes=5, cores_per_node=2,
                         heartbeat_interval_ms=200.0, heartbeat_misses=3))
    s.injector.start()
    s.sampler.start()
    return {
        "sim": s.sim, "registry": s.metrics, "cluster": s.cluster,
        "coord": s.coord, "concord": s.system, "profile": ALL_PROFILES[APP],
        "platform": s.platform, "app": s.deployed[APP],
        "injector": s.injector, "plan": plan,
    }


def _victim_keys(concord, profile):
    """Profile keys whose ring home is the victim node."""
    return [
        key
        for entity in range(profile.entities)
        for key in [entity_key(APP, entity, 0)]
        if concord.ring_template.home(key) == VICTIM
    ]


def run_scenario(deployment):
    """Drive the full run; returns the victim's state just before death."""
    sim = deployment["sim"]
    concord = deployment["concord"]
    platform = deployment["platform"]
    profile = deployment["profile"]
    keys = _victim_keys(concord, profile)[:6]
    assert keys, "ring placed no sampled keys at the victim"
    snapshot = {}

    def owner_warmup(sim):
        # The victim writes keys homed at itself: each lands as an
        # EXCLUSIVE cached copy with a directory entry owned by VICTIM.
        for key in keys:
            yield from concord.write(
                VICTIM, key, DataItem((key, "hot"), size_bytes=256))

    def probe(sim):
        # Spawned after the warm-up: wait until 1 ms before the crash,
        # which ends the victim's incarnation and flushes its state.
        yield sim.timeout(CRASH_MS - 1.0 - sim.now)
        agent = concord.agents[VICTIM]
        snapshot["cached_exclusive"] = sum(
            1 for k in agent.cache.keys()
            if agent.cache.peek(k).state == EXCLUSIVE)
        snapshot["directory_entries"] = len(agent.directory.entries())
        snapshot["owned_entries"] = sum(
            1 for e in agent.directory.entries() if e.owner == VICTIM)

    warmup = sim.spawn(owner_warmup(sim), name="warmup")
    sim.run_until_complete(warmup, limit=2000.0)
    sim.spawn(probe(sim), name="probe", daemon=True)
    factory = entity_inputs_factory(profile, sim)
    sim.spawn(platform.open_loop(APP, 30.0, DURATION_MS, factory),
              name="load")
    sim.run(until=DURATION_MS + SETTLE_MS)
    return snapshot


class TestCrashRecoveryEndToEnd:
    def test_coherent_after_crash_of_owner_node(self, deployment):
        snapshot = run_scenario(deployment)
        concord = deployment["concord"]
        cluster = deployment["cluster"]
        coord = deployment["coord"]
        app = deployment["app"]

        # The victim really held owned state when it died.
        assert snapshot["cached_exclusive"] > 0
        assert snapshot["directory_entries"] > 0
        assert snapshot["owned_entries"] > 0

        # The invariant checker finds nothing to complain about.
        assert check_coherence(concord, cluster) == []

        # Survivors purged the victim: not a ring member anywhere, no
        # directory entry names it as a sharer.
        live = [a for n, a in concord.agents.items()
                if n != VICTIM and not a.ejected]
        assert live
        for agent in live:
            assert VICTIM not in agent.ring.members
            for entry in agent.directory.entries():
                assert VICTIM not in entry.sharers

        # Failure detection and recovery both fired, and load survived.
        assert any(node == VICTIM for _t, _app, node in
                   coord.failures_detected)
        assert concord.controller.recoveries_completed >= 1
        assert app.requests_completed > 0

    def test_telemetry_counters_match_the_plan(self, deployment):
        run_scenario(deployment)
        registry = deployment["registry"]
        injector = deployment["injector"]
        coord = deployment["coord"]
        concord = deployment["concord"]

        assert [kind for _t, kind, _d in injector.applied] == ["NodeCrash"]
        assert injector.injected_by_kind == {"NodeCrash": 1}

        faults = registry.counter(
            "faults_injected_total", labelnames=("kind",))
        by_kind = {dict(pairs)["kind"]: child.current()
                   for pairs, child in faults.children()}
        assert by_kind["NodeCrash"] == 1

        declared = registry.counter("coord_failures_declared_total")
        assert declared.labels().current() == len(coord.failures_detected)

        recoveries = registry.counter(
            "concord_recoveries_completed_total", labelnames=("app",))
        assert (recoveries.labels(app=APP).current()
                == concord.controller.recoveries_completed)
