"""Unit and property tests for the LRU cache substrate."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import CacheEntry, EvictionPinned, LruCache
from repro.caching.base import AccessContext
from repro.txn.manager import LocalTxnManager, TxnContext


def entry(key, size, pinned=False):
    return CacheEntry(key=key, value=f"v-{key}", size_bytes=size, pinned=pinned)


class TestEntryLayout:
    def test_fresh_entry_has_no_dict_and_holds_no_set(self):
        fresh = entry("a", 10)
        assert not hasattr(fresh, "__dict__")
        assert not any(isinstance(ref, (set, dict))
                       for ref in gc.get_referents(fresh))
        assert not fresh.spec_readers and not fresh.speculative
        with pytest.raises(AttributeError):
            fresh.spec_readers.add("t")  # immutable until a txn marks it

    def test_a_txn_mark_gives_each_entry_a_set_of_its_own(self):
        manager = LocalTxnManager(agent=None)
        for txn_id in ("t1", "t2"):
            manager.active[txn_id] = TxnContext(txn_id=txn_id, node_id="n0")
        a, b, c = entry("a", 1), entry("b", 1), entry("c", 1)
        manager.on_install("a", a, AccessContext(txn_id="t1"))
        manager.on_install("b", b, AccessContext(txn_id="t2"))
        assert a.spec_readers == {"t1"} and b.spec_readers == {"t2"}
        assert type(a.spec_readers) is set
        assert a.spec_readers is not b.spec_readers
        assert a.speculative and not c.speculative
        assert c.spec_readers == frozenset()


class TestLruBasics:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(-1)

    def test_put_get_roundtrip(self):
        cache = LruCache(100)
        cache.put(entry("a", 10))
        assert cache.get("a").value == "v-a"
        assert "a" in cache
        assert len(cache) == 1
        assert cache.used_bytes == 10

    def test_peek_does_not_touch_recency(self):
        cache = LruCache(20)
        cache.put(entry("a", 10))
        cache.put(entry("b", 10))
        cache.peek("a")  # not a recency touch
        evicted = cache.put(entry("c", 10))
        assert [e.key for e in evicted] == ["a"]

    def test_get_refreshes_recency(self):
        cache = LruCache(20)
        cache.put(entry("a", 10))
        cache.put(entry("b", 10))
        cache.get("a")  # now b is LRU
        evicted = cache.put(entry("c", 10))
        assert [e.key for e in evicted] == ["b"]

    def test_replace_updates_size_accounting(self):
        cache = LruCache(100)
        cache.put(entry("a", 10))
        cache.put(entry("a", 30))
        assert cache.used_bytes == 30
        assert len(cache) == 1

    def test_oversized_entry_rejected(self):
        cache = LruCache(10)
        with pytest.raises(ValueError):
            cache.put(entry("big", 11))

    def test_eviction_order_is_lru(self):
        cache = LruCache(30)
        for key in ("a", "b", "c"):
            cache.put(entry(key, 10))
        evicted = cache.put(entry("d", 20))
        assert [e.key for e in evicted] == ["a", "b"]
        assert cache.evictions == 2

    def test_remove(self):
        cache = LruCache(100)
        cache.put(entry("a", 10))
        removed = cache.remove("a")
        assert removed.key == "a"
        assert cache.used_bytes == 0
        assert cache.remove("a") is None

    def test_clear(self):
        cache = LruCache(100)
        cache.put(entry("a", 10))
        cache.put(entry("b", 10))
        dropped = cache.clear()
        assert len(dropped) == 2
        assert cache.used_bytes == 0

    def test_peak_bytes_high_water_mark(self):
        cache = LruCache(100)
        cache.put(entry("a", 60))
        cache.put(entry("b", 40))
        cache.remove("a")
        assert cache.peak_bytes == 100
        assert cache.used_bytes == 40


class TestPinning:
    def test_pinned_entries_skip_eviction(self):
        cache = LruCache(30)
        cache.put(entry("pinned", 10, pinned=True))
        cache.put(entry("a", 10))
        cache.put(entry("b", 10))
        evicted = cache.put(entry("c", 10))
        assert [e.key for e in evicted] == ["a"]
        assert "pinned" in cache

    def test_all_pinned_raises(self):
        cache = LruCache(20)
        cache.put(entry("p1", 10, pinned=True))
        cache.put(entry("p2", 10, pinned=True))
        with pytest.raises(EvictionPinned):
            cache.put(entry("x", 10))

    def test_resize_keeps_pinned(self):
        cache = LruCache(30)
        cache.put(entry("p", 10, pinned=True))
        cache.put(entry("a", 10))
        cache.put(entry("b", 10))
        evicted = cache.resize(10)
        assert "p" in cache
        assert {e.key for e in evicted} == {"a", "b"}


class TestResize:
    def test_shrink_evicts_lru(self):
        cache = LruCache(40)
        for key in ("a", "b", "c", "d"):
            cache.put(entry(key, 10))
        cache.get("a")
        evicted = cache.resize(20)
        assert {e.key for e in evicted} == {"b", "c"}
        assert set(cache.keys()) == {"d", "a"}

    def test_grow_keeps_entries(self):
        cache = LruCache(20)
        cache.put(entry("a", 10))
        assert cache.resize(100) == []
        assert "a" in cache

    def test_negative_resize_rejected(self):
        with pytest.raises(ValueError):
            LruCache(10).resize(-5)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "remove"]),
            st.integers(min_value=0, max_value=15),   # key index
            st.integers(min_value=1, max_value=40),   # size
        ),
        max_size=60,
    ),
    capacity=st.integers(min_value=40, max_value=200),
)
def test_lru_accounting_invariants(ops, capacity):
    """used_bytes always equals the sum of entry sizes and never exceeds
    capacity; every reported eviction really left the cache."""
    cache = LruCache(capacity)
    for op, key_index, size in ops:
        key = f"k{key_index}"
        if op == "put":
            evicted = cache.put(CacheEntry(key=key, value=None, size_bytes=size))
            for gone in evicted:
                assert gone.key not in cache
        elif op == "get":
            cache.get(key)
        else:
            cache.remove(key)
        assert cache.used_bytes == sum(
            cache.peek(k).size_bytes for k in cache.keys()
        )
        assert cache.used_bytes <= cache.capacity_bytes
