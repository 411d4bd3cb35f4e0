"""Unit and property tests for the consistent hash ring."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConsistentHashRing, hashring
from repro.core.domain import keys_moving_to_joiner, new_homes_for_leaver
from repro.core.hashring import EmptyRingError
from repro.shard import ShardRouter


MEMBERS = [f"node{i}" for i in range(8)]
KEYS = [f"key-{i}" for i in range(500)]


class TestBasics:
    def test_empty_ring_lookup_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().home("k")

    def test_single_member_owns_everything(self):
        ring = ConsistentHashRing(["only"])
        assert all(ring.home(k) == "only" for k in KEYS)

    def test_membership_api(self):
        ring = ConsistentHashRing(["a", "b"])
        assert len(ring) == 2
        assert "a" in ring
        ring.remove("a")
        assert "a" not in ring
        ring.remove("a")  # idempotent
        ring.add("b")  # idempotent
        assert len(ring) == 1

    def test_virtual_nodes_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)

    def test_deterministic_across_instances(self):
        r1 = ConsistentHashRing(MEMBERS)
        r2 = ConsistentHashRing(reversed(MEMBERS))
        assert all(r1.home(k) == r2.home(k) for k in KEYS)

    def test_copy_is_independent(self):
        ring = ConsistentHashRing(MEMBERS)
        clone = ring.copy()
        clone.remove("node0")
        assert "node0" in ring
        assert "node0" not in clone

    def test_distribution_is_roughly_uniform(self):
        ring = ConsistentHashRing(MEMBERS, virtual_nodes=128)
        counts = {m: 0 for m in MEMBERS}
        for key in KEYS:
            counts[ring.home(key)] += 1
        expected = len(KEYS) / len(MEMBERS)
        assert all(count > expected * 0.3 for count in counts.values())
        assert all(count < expected * 3.0 for count in counts.values())


class TestEmptyRing:
    """Empty-ring operations raise loudly instead of silently no-oping.

    Regression: ``remove`` on an empty ring used to be a silent no-op
    and ``rehomed_keys`` returned ``{}``, so a caller that lost track of
    membership only failed later, as misrouted keys.
    """

    def test_remove_on_empty_ring_raises(self):
        with pytest.raises(EmptyRingError):
            ConsistentHashRing().remove("ghost")

    def test_remove_nonmember_on_populated_ring_stays_idempotent(self):
        ring = ConsistentHashRing(["a"])
        ring.remove("ghost")  # no-op: the ring itself is fine
        assert "a" in ring

    def test_rehomed_keys_on_empty_ring_raises(self):
        with pytest.raises(EmptyRingError):
            ConsistentHashRing().rehomed_keys(KEYS, "ghost")

    def test_rehomed_keys_for_last_member_raises(self):
        with pytest.raises(EmptyRingError):
            ConsistentHashRing(["solo"]).rehomed_keys(KEYS, "solo")

    def test_lookups_on_empty_ring_raise(self):
        with pytest.raises(EmptyRingError):
            ConsistentHashRing().home("k")
        with pytest.raises(EmptyRingError):
            ConsistentHashRing().preference_list("k", 2)

    def test_empty_ring_error_is_a_lookup_error(self):
        # Existing ``except LookupError`` call sites must keep working.
        assert issubclass(EmptyRingError, LookupError)


class TestMinimalDisruption:
    def test_removal_only_rehomes_removed_members_keys(self):
        ring = ConsistentHashRing(MEMBERS)
        before = {k: ring.home(k) for k in KEYS}
        ring.remove("node3")
        for key in KEYS:
            if before[key] != "node3":
                assert ring.home(key) == before[key]
            else:
                assert ring.home(key) != "node3"

    def test_addition_only_steals_keys_for_new_member(self):
        ring = ConsistentHashRing(MEMBERS)
        before = {k: ring.home(k) for k in KEYS}
        ring.add("node99")
        for key in KEYS:
            after = ring.home(key)
            assert after == before[key] or after == "node99"

    def test_rehomed_keys_helper(self):
        ring = ConsistentHashRing(MEMBERS)
        owned = [k for k in KEYS if ring.home(k) == "node2"]
        rehomed = ring.rehomed_keys(KEYS, "node2")
        assert set(rehomed) == set(owned)
        assert all(target != "node2" for target in rehomed.values())

    def test_new_homes_for_leaver_matches_reduced_ring(self):
        ring = ConsistentHashRing(MEMBERS)
        owned = [k for k in KEYS if ring.home(k) == "node5"]
        groups = new_homes_for_leaver(ring, "node5", owned)
        reduced = ring.copy()
        reduced.remove("node5")
        for target, keys in groups.items():
            assert all(reduced.home(k) == target for k in keys)
        assert sum(len(v) for v in groups.values()) == len(owned)

    def test_keys_moving_to_joiner_matches_extended_ring(self):
        ring = ConsistentHashRing(MEMBERS)
        moving = keys_moving_to_joiner(ring, "fresh", KEYS)
        extended = ring.copy()
        extended.add("fresh")
        expected = [k for k in KEYS if extended.home(k) == "fresh"]
        assert sorted(moving) == sorted(expected)


@settings(max_examples=50, deadline=None)
@given(
    members=st.sets(st.sampled_from(MEMBERS), min_size=1),
    key=st.text(min_size=1, max_size=20),
)
def test_home_always_a_member(members, key):
    ring = ConsistentHashRing(members)
    assert ring.home(key) in members


@settings(max_examples=50, deadline=None)
@given(
    members=st.sets(st.sampled_from(MEMBERS), min_size=2),
    leaver_index=st.integers(min_value=0, max_value=7),
    keys=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=30),
)
def test_consistent_hashing_stability_property(members, leaver_index, keys):
    """Removing any member never re-homes keys it did not own."""
    ring = ConsistentHashRing(members)
    leaver = sorted(members)[leaver_index % len(members)]
    before = {k: ring.home(k) for k in keys}
    ring.remove(leaver)
    if not len(ring):
        return
    for key in keys:
        if before[key] != leaver:
            assert ring.home(key) == before[key]


@settings(max_examples=50, deadline=None)
@given(
    members=st.sets(st.sampled_from(MEMBERS), min_size=1),
    keys=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=30),
)
def test_addition_moves_only_arc_keys_property(members, keys):
    """Adding a member only re-homes keys onto the joiner — every key it
    does not steal keeps its old home (the minimal-disruption half of
    consistent hashing, for joins)."""
    ring = ConsistentHashRing(members)
    before = {k: ring.home(k) for k in keys}
    ring.add("joiner")
    for key in keys:
        after = ring.home(key)
        assert after == before[key] or after == "joiner"


@settings(max_examples=50, deadline=None)
@given(
    members=st.sets(st.sampled_from(MEMBERS), min_size=2),
    leaver_index=st.integers(min_value=0, max_value=7),
    keys=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=30),
)
def test_remove_add_round_trip_property(members, leaver_index, keys):
    """Removing a member and adding it back restores every home exactly:
    the ring is a pure function of its membership set, with no history
    dependence from the churn."""
    ring = ConsistentHashRing(members)
    leaver = sorted(members)[leaver_index % len(members)]
    before = {k: ring.home(k) for k in keys}
    ring.remove(leaver)
    ring.add(leaver)
    assert {k: ring.home(k) for k in keys} == before
    assert ring.members == set(members)


def _coarse_hash(value: str) -> int:
    """A 6-bit ring: virtual nodes of different members collide often."""
    return hashring._hash(value) % 64


@settings(max_examples=80, deadline=None)
@given(
    members=st.lists(st.sampled_from(MEMBERS), max_size=12),
    virtual_nodes=st.integers(min_value=1, max_value=12),
    coarse=st.booleans(),
    keys=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=20),
)
def test_copy_matches_original_and_is_independent(members, virtual_nodes,
                                                  coarse, keys):
    """``copy()``'s tables are the ring it copies — positions, owners
    (after collisions too) and homes — and mutating the copy never
    changes the original."""
    position_of = _coarse_hash if coarse else hashring._hash
    with mock.patch.object(hashring, "_hash_cached", position_of):
        ring = ConsistentHashRing(members, virtual_nodes)
        copied = ring.copy()
        assert copied.virtual_nodes == virtual_nodes
        assert copied._positions == ring._positions
        assert copied._owners == ring._owners
        assert copied.members == ring.members
        if members:
            assert ([copied.home(k) for k in keys]
                    == [ring.home(k) for k in keys])
        positions, owners = list(ring._positions), dict(ring._owners)
        copied.add("joiner")
        if members:
            copied.remove(members[0])
        assert "joiner" not in ring
        assert ring._positions == positions
        assert ring._owners == owners
        assert ring.members == set(members)


@settings(max_examples=100, deadline=None)
@given(
    router=st.booleans(),
    virtual_nodes=st.integers(min_value=1, max_value=16),
    start=st.sets(st.sampled_from(MEMBERS)),
    program=st.lists(st.tuples(
        st.sampled_from(("copy", "add", "remove")),
        st.integers(min_value=0, max_value=31),
        st.sampled_from(MEMBERS)), max_size=20),
    keys=st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=10),
)
def test_copy_on_write_family_matches_rebuilt_rings(router, virtual_nodes,
                                                    start, program, keys):
    """Any interleaving of ``copy``/``add``/``remove`` over a family of
    rings (or routers) that share tables copy-on-write leaves every ring
    answering ``home`` and ``preference_list`` exactly as a ring rebuilt
    from its own membership: mutating one ring never changes another,
    and no ring keeps a stale home memo."""
    def rebuilt(members):
        if router:
            return ShardRouter(sorted(members), 4, replication=2,
                               virtual_nodes=virtual_nodes)
        return ConsistentHashRing(sorted(members), virtual_nodes)

    family = [rebuilt(start)]
    views = [set(start)]
    for op, index, member in program:
        index %= len(family)
        ring, members = family[index], views[index]
        if op == "copy":
            family.append(ring.copy())
            views.append(set(members))
        elif op == "add":
            ring.add(member)
            members.add(member)
        else:
            if not members:
                with pytest.raises(EmptyRingError):
                    ring.remove(member)
                continue
            ring.remove(member)
            members.discard(member)
        for ring, members in zip(family, views):
            want = rebuilt(members)
            assert ring.members == members
            if router:
                assert ring.table() == want.table()
            if not members:
                with pytest.raises(EmptyRingError):
                    ring.home(keys[0])
                continue
            for key in keys:
                assert ring.home(key) == want.home(key)
                assert ring.preference_list(key, 3) == want.preference_list(key, 3)
