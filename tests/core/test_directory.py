"""Unit tests for the DataDirectory structure."""

import pytest

from repro.caching.base import EXCLUSIVE, SHARED
from repro.core import DataDirectory, DirectoryEntry


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
