"""Unit tests for the DataDirectory structure."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.base import EXCLUSIVE, SHARED
from repro.core import DataDirectory, DirectoryEntry
from repro.telemetry import NULL_REGISTRY, MetricsRegistry


@pytest.fixture
def directory():
    return DataDirectory("node0")


class TestEntries:
    def test_set_exclusive(self, directory):
        entry = directory.set_exclusive("k", "node1")
        assert entry.state == EXCLUSIVE
        assert entry.owner == "node1"
        assert entry.is_valid()
        assert "k" in directory
        assert len(directory) == 1

    def test_add_sharer_creates_exclusive(self, directory):
        entry = directory.add_sharer("k", "node1")
        assert entry.state == EXCLUSIVE
        assert entry.sharers == {"node1"}

    def test_second_sharer_downgrades(self, directory):
        directory.add_sharer("k", "node1")
        entry = directory.add_sharer("k", "node2")
        assert entry.state == SHARED
        assert entry.sharers == {"node1", "node2"}
        assert entry.owner is None
        assert entry.is_valid()

    def test_remove(self, directory):
        directory.set_exclusive("k", "node1")
        removed = directory.remove("k")
        assert removed.key == "k"
        assert directory.remove("k") is None
        assert len(directory) == 0

    def test_install_transferred_entry(self, directory):
        entry = DirectoryEntry(key="k", state=SHARED, sharers={"a", "b"})
        directory.install(entry)
        assert directory.get("k") is entry

    def test_invalid_structural_states_detected(self):
        bad = DirectoryEntry(key="k", state=EXCLUSIVE, sharers={"a", "b"})
        assert not bad.is_valid()
        empty = DirectoryEntry(key="k", state=SHARED, sharers=set())
        assert not empty.is_valid()


class TestPruning:
    def test_remove_sharer_everywhere(self, directory):
        directory.add_sharer("k1", "nodeX")
        directory.add_sharer("k1", "nodeY")
        directory.add_sharer("k2", "nodeX")
        directory.set_exclusive("k3", "nodeZ")
        touched = directory.remove_sharer_everywhere("nodeX")
        assert set(touched) == {"k1", "k2"}
        assert directory.get("k1").sharers == {"nodeY"}
        assert directory.get("k2") is None  # no sharers left -> dropped
        assert directory.get("k3").sharers == {"nodeZ"}  # untouched

    def test_pop_entries_for(self, directory):
        directory.set_exclusive("a", "n1")
        directory.set_exclusive("b", "n2")
        popped = directory.pop_entries_for(["a", "ghost"])
        assert [e.key for e in popped] == ["a"]
        assert "a" not in directory
        assert "b" in directory

    def test_sharer_counts(self, directory):
        directory.add_sharer("k1", "a")
        directory.add_sharer("k1", "b")
        directory.add_sharer("k2", "a")
        assert sorted(directory.sharer_counts()) == [1, 2]

    def test_keys_and_entries_views(self, directory):
        directory.set_exclusive("a", "n1")
        directory.set_exclusive("b", "n1")
        assert sorted(directory.keys()) == ["a", "b"]
        assert {e.key for e in directory.entries()} == {"a", "b"}


NODES = ("node1", "node2", "node3", "node4")
KEYS = ("a", "b", "c", "d", "e")
_node = st.sampled_from(NODES)
_key = st.sampled_from(KEYS)
#: One call of each path that changes a sharer set or the entry set.
MUTATIONS = st.one_of(
    st.tuples(st.just("set_exclusive"), _key, _node),
    st.tuples(st.just("add_sharer"), _key, _node),
    st.tuples(st.just("remove"), _key),
    st.tuples(st.just("install"), _key, st.sampled_from([EXCLUSIVE, SHARED]),
              st.frozensets(_node)),
    st.tuples(st.just("remove_sharer_everywhere"), _node),
    st.tuples(st.just("pop_entries_for"), st.lists(_key, max_size=3)),
)


def mutate(directory, step) -> None:
    name, *args = step
    if name == "install":
        key, state, sharers = args
        directory.install(DirectoryEntry(key=key, state=state,
                                         sharers=set(sharers)))
    else:
        getattr(directory, name)(*args)


def gauge_values(registry) -> dict:
    """The one registered directory's gauges, read as the sampler would."""
    return {instrument.name: child.current()
            for instrument in registry.instruments()
            for _labels, child in instrument.children()}


class TestSharerGauges:
    @given(before=st.lists(MUTATIONS, max_size=8),
           after=st.lists(MUTATIONS, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_aggregates_equal_a_rescan_after_every_mutation(self, before,
                                                            after):
        directory = DataDirectory("node0")
        for step in before:          # seeded from what is already there
            mutate(directory, step)
        registry = MetricsRegistry()
        directory.register_metrics(registry, scheme="concord", app="app")
        for step in [None] + after:
            if step is not None:
                mutate(directory, step)
            counts = directory.sharer_counts()
            want_max = max(counts, default=0)
            want_mean = sum(counts) / len(counts) if counts else 0.0
            got = gauge_values(registry)
            assert got["directory_entries"] == len(counts)
            assert got["directory_sharers_max"] == want_max
            assert type(got["directory_sharers_max"]) is type(want_max)
            # Bit for bit: the same integer sum over the same count.
            assert got["directory_sharers_mean"] == want_mean
            assert type(got["directory_sharers_mean"]) is float
            assert directory._sizes == Counter(counts)

    @pytest.mark.parametrize("registry", [None, NULL_REGISTRY])
    def test_unregistered_directory_keeps_no_aggregates(self, registry):
        directory = DataDirectory("node0")
        if registry is not None:
            directory.register_metrics(registry, scheme="concord", app="app")
        directory.set_exclusive("a", "node1")
        directory.add_sharer("a", "node2")
        directory.install(DirectoryEntry(key="b", sharers={"node3"}))
        directory.remove_sharer_everywhere("node2")
        assert directory._sizes is None
        assert directory._sharer_total == 0
