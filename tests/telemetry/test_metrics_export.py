"""The JSONL exporter: canonical ordering, round-trip, byte determinism."""

import json
import re

import pytest

from repro.telemetry import (
    MetricsRegistry,
    export_jsonl,
    jsonl_dumps,
    load_series,
    loads_series,
)


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("ops_total", "Operations.",
                               labelnames=("node",))
    gauge = registry.gauge("queue_depth", "Run-queue depth.",
                           labelnames=("node",))
    ops = {"n0": 1.0, "n1": 2.0}
    # Register children in non-sorted order to exercise canonicalization.
    counter.set_callback(lambda: ops["n1"], node="n1")
    counter.set_callback(lambda: ops["n0"], node="n0")
    gauge.set_callback(lambda: 4.0, node="n1")
    registry.sample(0.0)
    ops["n0"] += 3.0
    registry.sample(100.0)
    return registry


def test_jsonl_round_trip(tmp_path):
    registry = populated_registry()
    path = tmp_path / "out.jsonl"
    export_jsonl(registry, str(path))
    loaded = load_series(str(path))
    assert loaded == registry.to_dicts()


def test_canonical_series_order():
    registry = populated_registry()
    names = [series["name"] for series in registry.to_dicts()]
    assert names == sorted(names)
    # n0 before n1 despite n1 being registered first.
    ops = [s for s in registry.to_dicts() if s["name"] == "ops_total"]
    assert [s["labels"]["node"] for s in ops] == ["n0", "n1"]


def test_prometheus_is_export_only(tmp_path):
    """Prometheus exposition text (as other tools write it) is not a
    timeline ``load_series`` reads."""
    path = tmp_path / "out.prom"
    path.write_text('# TYPE ops_total counter\n'
                    'ops_total{node="n0"} 4.0 100.0\n')
    with pytest.raises(ValueError):
        load_series(str(path))


def test_csv_is_not_a_timeline(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("name,kind,labels,t_ms,value\n"
                    "ops_total,counter,node=n0,0.0,1.0\n")
    with pytest.raises(ValueError):
        load_series(str(path))


@pytest.mark.parametrize("record,problem", [
    ({"name": "a", "kind": "gauge", "points": []}, "missing ['labels']"),
    ({"name": "a", "kind": "gauge", "labels": {}, "points": 5},
     "points is not a list"),
])
def test_series_records_are_validated(record, problem):
    good = jsonl_dumps(populated_registry())
    with pytest.raises(ValueError, match=re.escape(problem)):
        loads_series(good + json.dumps(record) + "\n")


def test_empty_file_loads_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_series(str(path)) == []


def test_dumps_accept_dict_lists():
    registry = populated_registry()
    dicts = registry.to_dicts()
    assert jsonl_dumps(dicts) == jsonl_dumps(registry)


def test_identical_runs_dump_identical_bytes():
    a, b = populated_registry(), populated_registry()
    assert jsonl_dumps(a) == jsonl_dumps(b)
