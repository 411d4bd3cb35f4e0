"""Unit tests for the key→shard→home router."""

import pytest

from repro.core.hashring import EmptyRingError
from repro.shard import ShardRouter

MEMBERS = [f"node{i}" for i in range(6)]
KEYS = [f"key-{i}" for i in range(500)]


class TestResolution:
    def test_shard_of_is_stable_and_in_range(self):
        router = ShardRouter(MEMBERS, num_shards=8)
        for key in KEYS:
            shard = router.shard_of(key)
            assert 0 <= shard < 8
            assert router.shard_of(key) == shard

    def test_home_is_shard_leader(self):
        router = ShardRouter(MEMBERS, num_shards=8, replication=2)
        for key in KEYS:
            assert router.home(key) == router.leader_of(router.shard_of(key))

    def test_deterministic_across_instances(self):
        a = ShardRouter(MEMBERS, num_shards=8, replication=2)
        b = ShardRouter(reversed(MEMBERS), num_shards=8, replication=2)
        assert a.table() == b.table()
        assert all(a.home(k) == b.home(k) for k in KEYS)

    def test_chain_has_distinct_members_leader_first(self):
        router = ShardRouter(MEMBERS, num_shards=8, replication=3)
        for shard in range(8):
            chain = router.chain_of(shard)
            assert len(chain) == 3
            assert len(set(chain)) == 3
            assert chain[0] == router.leader_of(shard)

    def test_followers_are_chain_tail(self):
        router = ShardRouter(MEMBERS, num_shards=4, replication=2)
        for key in KEYS[:50]:
            chain = router.chain_of(router.shard_of(key))
            assert router.followers(key) == chain[1:]

    def test_replication_capped_by_membership(self):
        router = ShardRouter(["a", "b"], num_shards=4, replication=3)
        for shard in range(4):
            assert set(router.chain_of(shard)) == {"a", "b"}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(MEMBERS, num_shards=0)
        with pytest.raises(ValueError):
            ShardRouter(MEMBERS, num_shards=4, replication=0)


class TestMembershipChanges:
    def test_leader_failover_promotes_next_in_chain(self):
        router = ShardRouter(MEMBERS, num_shards=8, replication=3)
        for shard in range(8):
            chain = router.chain_of(shard)
            survivor = router.copy()
            survivor.remove(chain[0])
            assert survivor.leader_of(shard) == chain[1]

    def test_remove_preserves_surviving_chain_order(self):
        router = ShardRouter(MEMBERS, num_shards=8, replication=3)
        victim = MEMBERS[2]
        before = {s: router.chain_of(s) for s in range(8)}
        router.remove(victim)
        for shard in range(8):
            survivors = [m for m in before[shard] if m != victim]
            # The old survivors stay in order as the chain prefix; the
            # tail refills from the ring.
            assert list(router.chain_of(shard))[:len(survivors)] == survivors

    def test_join_only_promotes_the_joiner(self):
        router = ShardRouter(MEMBERS, num_shards=8, replication=1)
        before = {s: router.leader_of(s) for s in range(8)}
        router.add("fresh")
        for shard in range(8):
            after = router.leader_of(shard)
            assert after == before[shard] or after == "fresh"

    def test_rehomed_keys_matches_reduced_router(self):
        router = ShardRouter(MEMBERS, num_shards=8, replication=2)
        victim = MEMBERS[0]
        rehomed = router.rehomed_keys(KEYS, victim)
        reduced = router.copy()
        reduced.remove(victim)
        for key, target in rehomed.items():
            assert router.home(key) == victim
            assert reduced.home(key) == target

    def test_rehomed_keys_empty_and_last_member_raise(self):
        with pytest.raises(EmptyRingError):
            ShardRouter(num_shards=4).rehomed_keys(KEYS, "ghost")
        with pytest.raises(EmptyRingError):
            ShardRouter(["solo"], num_shards=4).rehomed_keys(KEYS, "solo")

    def test_leader_of_memberless_raises(self):
        with pytest.raises(EmptyRingError):
            ShardRouter(num_shards=4).leader_of(0)

    def test_with_members_keeps_topology_parameters(self):
        router = ShardRouter(MEMBERS, num_shards=16, replication=2,
                             virtual_nodes=32)
        rebuilt = router.with_members(["x", "y", "z"])
        assert rebuilt.num_shards == 16
        assert rebuilt.replication == 2
        assert rebuilt.virtual_nodes == 32
        assert rebuilt.members == {"x", "y", "z"}


class TestCopy:
    def test_copy_is_the_router_a_rebuild_makes_and_independent(self):
        router = ShardRouter(MEMBERS, num_shards=8, replication=2)
        router.remove("node3")
        clone = router.copy()
        rebuilt = router.with_members(router.members)
        assert clone.table() == router.table() == rebuilt.table()
        assert (clone.num_shards, clone.replication, clone.virtual_nodes) == (
            8, 2, router.virtual_nodes)
        assert all(clone.home(k) == router.home(k) for k in KEYS)
        clone.remove("node0")
        clone.add("node9")
        assert "node0" in router and "node9" not in router
        assert router.table() == rebuilt.table()
        assert clone.table() == ShardRouter(
            clone.members, num_shards=8, replication=2).table()
