"""PackedLog: order, window (ring) semantics and exact round trips.

The log's contract is "what a plain list — or, with a window, a
``deque(maxlen=window)`` — of ``(row, attrs)`` pairs would hold", whatever
the batch size; the tests patch the batch constant down so a few dozen
records cross many batch boundaries.
"""

import struct
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.packedlog
from repro.packedlog import PackedLog


def make_log(monkeypatch, batch, window=None) -> PackedLog:
    monkeypatch.setattr(repro.packedlog, "BATCH", batch)
    return PackedLog(window=window)


def record(index: int) -> tuple:
    return (index, float(index), f"name{index % 3}"), {"index": index}


def fill(log, count, start=0):
    for index in range(start, start + count):
        log.append(*record(index))


def test_default_batch_is_the_module_constant():
    assert repro.packedlog.BATCH == 4096
    log = PackedLog()
    fill(log, 4095)
    assert log._packed == []
    fill(log, 1, start=4095)
    assert len(log._packed) == 1 and log._flat == []
    assert list(log) == [record(index) for index in range(4096)]


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 16, 29])
def test_order_across_batch_and_stage_boundaries(monkeypatch, count):
    log = make_log(monkeypatch, batch=8)
    fill(log, count)
    assert len(log) == count and log.dropped == 0
    assert list(log) == [record(index) for index in range(count)]
    assert len(log._packed) == count // 8
    assert all(type(batch) is bytes for batch in log._packed)
    # Batches come oldest first and together hold every record once.
    assert [row[0] for rows, _ in log.batches() for row in rows] == list(
        range(count))


def test_packed_records_are_copies_equal_to_what_was_filed(monkeypatch):
    log = make_log(monkeypatch, batch=4)
    attrs = {"state": "S", "version": 3, "fresh": True, "owner": None}
    for index in range(4):
        log.append((index, "read", 0.5), attrs)
    assert log._flat == [] and log._sizes == []
    for row, got in log:
        assert got == attrs and got is not attrs
        assert list(got) == list(attrs)          # key order kept
        assert type(got["fresh"]) is bool


@given(batch=st.integers(min_value=1, max_value=9),
       window=st.integers(min_value=1, max_value=25),
       count=st.integers(min_value=0, max_value=80))
@settings(max_examples=300, deadline=None)
def test_window_matches_a_bounded_deque_at_every_step(batch, window, count):
    # Window smaller than, equal to, and not a multiple of the batch.
    with pytest.MonkeyPatch.context() as patch:
        log = make_log(patch, batch, window)
    model: deque = deque(maxlen=window)
    for index in range(count):
        log.append(*record(index))
        model.append(record(index))
        assert len(log) == len(model)
        assert log.dropped == index + 1 - len(model)
        # Never more than a window and one batch of records held.
        assert len(log._packed) * batch + len(log._sizes) < window + 2 * batch
    assert list(log) == list(model)


def test_whole_batches_outside_the_window_are_let_go(monkeypatch):
    log = make_log(monkeypatch, batch=4, window=6)
    fill(log, 40)
    assert len(log) == 6 and log.dropped == 34
    assert [row[0] for row, _ in log] == list(range(34, 40))
    assert len(log._packed) == 2      # 8 records cover a window of 6


def test_clear_forgets_records_but_not_the_dropped_count(monkeypatch):
    log = make_log(monkeypatch, batch=4, window=6)
    fill(log, 11)
    assert log.dropped == 5
    log.clear()
    assert len(log) == 0 and list(log) == [] and log.dropped == 5
    fill(log, 3, start=11)
    assert [row[0] for row, _ in log] == [11, 12, 13] and log.dropped == 5
    fill(log, 4, start=14)
    assert len(log) == 6 and log.dropped == 6


def test_unmarshallable_attr_keeps_its_batch_unpacked(monkeypatch):
    log = make_log(monkeypatch, batch=4)
    token = object()
    fill(log, 2)
    log.append((2, 2.0, "odd"), {"handle": token})
    fill(log, 7, start=3)
    assert [type(batch) for batch in log._packed] == [tuple, bytes]
    records = list(log)
    assert [row[0] for row, _ in records] == list(range(10))
    assert records[2][1]["handle"] is token
    assert records[:2] == [record(0), record(1)]
    assert records[3:] == [record(index) for index in range(3, 10)]


def test_list_valued_attr_round_trips(monkeypatch):
    # shard/manager.py records ``shards=sorted(...)``: the one
    # container-valued attr in the protocol layers.
    log = make_log(monkeypatch, batch=2)
    log.append((1, 0.0, "shard.adopt"), {"shards": [0, 3, 5], "entries": 12})
    log.append((2, 0.0, "shard.adopt"), {"shards": [], "entries": 0})
    assert all(type(batch) is bytes for batch in log._packed)
    assert [attrs for _, attrs in log] == [
        {"shards": [0, 3, 5], "entries": 12}, {"shards": [], "entries": 0}]


def test_floats_and_big_ints_round_trip_exactly(monkeypatch):
    # One log per row width: a log's rows all have its first row's width.
    log_a, log_b = make_log(monkeypatch, batch=1), make_log(monkeypatch, 1)
    floats = [-0.0, 0.0, 5e-324, 1e308, 0.1 + 0.2, float("inf")]
    ints = [0, -1, 2 ** 63, 2 ** 64 + 1, -(2 ** 200), 255, 256, 257]
    log_a.append(tuple(floats), {"ints": ints})
    log_b.append(tuple(ints),
                 {f"f{i}": value for i, value in enumerate(floats)})
    for log in (log_a, log_b):
        assert log._flat == [] and len(log._packed) == 1
    ((row_a, attrs_a),), ((row_b, attrs_b),) = list(log_a), list(log_b)
    for got in (row_a, tuple(attrs_b.values())):
        assert [type(value) for value in got] == [float] * len(floats)
        assert ([struct.pack("<d", value) for value in got]
                == [struct.pack("<d", value) for value in floats])
    for got in (attrs_a["ints"], list(row_b)):
        assert got == ints and all(type(value) is int for value in got)


def test_a_row_of_another_width_raises(monkeypatch):
    # Rows are staged end to end; a narrower or wider row would shift
    # every row after it.
    log = make_log(monkeypatch, batch=4)
    fill(log, 5)
    for row in ((5, 5.0), (5, 5.0, "name2", None)):
        with pytest.raises(ValueError, match="3-value rows"):
            log.append(row, {})
    assert list(log) == [record(index) for index in range(5)]


def test_interned_names_come_back_as_the_same_object(monkeypatch):
    import sys
    log = make_log(monkeypatch, batch=2)
    name = sys.intern("rpc:" + "read")
    log.append((1, name), {})
    log.append((2, name), {})
    assert all(row[1] is name for row, _ in log)
