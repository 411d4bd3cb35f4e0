"""Topology presets, smoke plans, and the sharded end-to-end scenario."""

import pytest

from repro.faults.plan import FaultPlan, NodeCrash
from repro.shard.topologies import (
    TOPOLOGIES,
    node_ids,
    run_topology_scenario,
    shard_leader,
    smoke_plan,
)


class TestPresets:
    def test_expected_cells(self):
        assert set(TOPOLOGIES) == {"flat", "shard4", "shard4rep", "region2"}

    def test_scenario_kwargs_shapes(self):
        assert "shards" not in TOPOLOGIES["flat"].scenario_kwargs()
        assert TOPOLOGIES["shard4"].scenario_kwargs()["shards"] == 4
        assert TOPOLOGIES["shard4rep"].scenario_kwargs()["replication"] == 2
        region2 = TOPOLOGIES["region2"].scenario_kwargs()
        assert region2["regions"] == 2
        # Regional cells drain longer: unreachability reports trail the
        # RPC timeout, so eject/rejoin churn outlives the heal.
        assert region2["settle_ms"] > TOPOLOGIES["shard4"].settle_ms

    def test_shard_leader_is_deterministic_and_a_member(self):
        for name in ("shard4", "shard4rep", "region2"):
            topology = TOPOLOGIES[name]
            leader = shard_leader(topology)
            assert leader in node_ids()
            assert shard_leader(topology) == leader

    def test_shard_leader_rejects_flat(self):
        with pytest.raises(ValueError):
            shard_leader(TOPOLOGIES["flat"])


class TestSmokePlans:
    def test_sharded_plans_crash_the_shard0_leader(self):
        for name in ("shard4", "shard4rep"):
            plan = smoke_plan(name)
            crashes = [e for e in plan.events if e.kind == "NodeCrash"]
            assert len(crashes) == 1
            assert crashes[0].node == shard_leader(TOPOLOGIES[name])
            assert "NodeRestart" in plan.kinds()

    def test_region2_plan_adds_a_region_partition(self):
        plan = smoke_plan("region2")
        kinds = plan.kinds()
        assert "NodeCrash" in kinds
        assert "RegionPartition" in kinds


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_smoke_cell_is_clean(self, name):
        # The cell's fingerprint is its golden pin (topology_<name>).
        assert run_topology_scenario(name, seed=0).problems == []

    def test_shard4_smoke_fails_over(self):
        outcome = run_topology_scenario("shard4", seed=0)
        assert outcome.shard_failovers >= 1
        assert outcome.shards_rehomed >= 1
        assert len(outcome.shard_table) == 4

    def test_replay_fingerprints_match(self):
        first = run_topology_scenario("shard4rep", seed=3)
        second = run_topology_scenario("shard4rep", seed=3)
        assert first.fingerprint() == second.fingerprint()

    def test_custom_plan_overrides_smoke_plan(self):
        victim = shard_leader(TOPOLOGIES["shard4"])
        plan = FaultPlan(events=(NodeCrash(at_ms=1000.0, node=victim),))
        outcome = run_topology_scenario("shard4", seed=0, plan=plan)
        assert outcome.problems == []
        # Crash without restart: the leader stays dead, its shards
        # permanently fail over to the survivors.
        assert victim not in {chain[0] for chain in outcome.shard_table}
