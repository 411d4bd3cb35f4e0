"""Registry semantics: labeling, kind discipline, null mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.telemetry import (
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.telemetry.store import TimeSeriesStore


#: Instrument name -> (registry method, labelnames) for the plan test.
SHAPES = {
    "ops": ("counter", ("node",)),
    "depth": ("gauge", ("node",)),
    "late": ("gauge", ("app", "node")),
}


class ReferenceLoop:
    """The per-instrument sampling loop the registry's plan replaced, run
    over the same registry into a store of its own."""

    def __init__(self, registry):
        self.registry = registry
        self.store = TimeSeriesStore()
        self.samples = 0
        self._series: dict = {}     # child -> its series, bound at first sample

    def sample(self, now: float) -> None:
        for instrument in self.registry.instruments():
            for key, child in instrument._children.items():
                series = self._series.get(child)
                if series is None:
                    series = self._series[child] = self.store.series(
                        instrument.name, instrument.kind,
                        instrument._label_pairs(key), instrument.help)
                series.times.append(now)
                series.values.append(child._callback())
        self.samples += 1


class TestLabeling:
    def test_label_values_keyed_in_declared_order(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", labelnames=("node", "app"))
        counter.set_callback(lambda: 3.0, app="a", node="n0")
        # Same child regardless of kwarg order.
        assert counter.labels(node="n0", app="a").current() == 3.0

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", labelnames=("shard",))
        gauge.set_callback(lambda: 7.0, shard=3)
        assert gauge.labels(shard="3").current() == 7.0

    def test_mismatched_label_set_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", labelnames=("node",))
        with pytest.raises(MetricError):
            counter.labels(app="a")
        with pytest.raises(MetricError):
            counter.labels()
        with pytest.raises(MetricError):
            counter.set_callback(lambda: 1.0, app="a")


class TestRegistration:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("ops", "help", labelnames=("node",))
        second = registry.counter("ops", "other help", labelnames=("node",))
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("ops", labelnames=())
        with pytest.raises(MetricError):
            registry.gauge("ops", labelnames=())

    def test_labelnames_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("ops", labelnames=("node",))
        with pytest.raises(MetricError):
            registry.counter("ops", labelnames=("node", "app"))

    def test_no_push_api(self):
        """Telemetry only reads state: there is nothing to push into."""
        registry = MetricsRegistry()
        counter = registry.counter("ops", labelnames=())
        child = counter.set_callback(lambda: 1.0)
        assert not hasattr(registry, "histogram")
        for target, method in ((counter, "inc"),
                               (registry.gauge("g", labelnames=()), "set"),
                               (child, "inc"), (child, "set"),
                               (child, "observe")):
            assert not hasattr(target, method)
        with pytest.raises(KeyError):
            registry.gauge("level", labelnames=("node",)).labels(node="n0")


class TestSampling:
    def test_second_callback_replaces_the_first(self):
        registry = MetricsRegistry()
        state = {"v": 10.0}
        gauge = registry.gauge("level", labelnames=())
        child = gauge.set_callback(lambda: 1.0)
        assert gauge.set_callback(lambda: state["v"]) is child
        registry.sample(0.0)
        state["v"] = 20.0
        registry.sample(100.0)
        (series,) = registry.store.all_series()
        assert series.points == [(0.0, 10.0), (100.0, 20.0)]

    def test_sample_counts_and_series_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops", labelnames=("node",))
        counter.set_callback(lambda: 1.0, node="n1")
        counter.set_callback(lambda: 2.0, node="n0")
        registry.sample(0.0)
        registry.sample(50.0)
        assert registry.samples == 2
        series = registry.store.all_series()
        # First-touch order within the instrument, two points each.
        assert [s.labels for s in series] == [
            (("node", "n1"),), (("node", "n0"),)]
        assert all(len(s.points) == 2 for s in series)

    def test_series_read_surface(self):
        """points / last / to_dict over the flat times+values storage."""
        registry = MetricsRegistry()
        gauge = registry.gauge("level", "A level.", labelnames=("node",))
        gauge.set_callback(lambda: 3, node="n0")
        latency = {"count": 1, "sum": 1.0}
        registry.counter("lat_count", labelnames=()).set_callback(
            lambda: latency["count"])
        registry.counter("lat_sum", labelnames=()).set_callback(
            lambda: latency["sum"])
        registry.sample(0.0)
        # A child first registered later starts its series later.
        gauge.set_callback(lambda: 7.5, node="n1")
        latency["count"], latency["sum"] = 2, 5.0
        registry.sample(100.0)
        by_key = {s.key: s for s in registry.store.all_series()}
        n0 = by_key[("level", (("node", "n0"),))]
        n1 = by_key[("level", (("node", "n1"),))]
        assert n0.points == [(0.0, 3), (100.0, 3)] and n0.last() == 3
        assert n1.points == [(100.0, 7.5)]
        assert n0.to_dict() == {
            "name": "level", "kind": "gauge", "labels": {"node": "n0"},
            "help": "A level.", "points": [[0.0, 3], [100.0, 3]]}
        assert by_key[("lat_count", ())].points == [(0.0, 1), (100.0, 2)]
        assert by_key[("lat_sum", ())].points == [(0.0, 1.0), (100.0, 5.0)]
        # Series appear in first-sample order, whatever their keys.
        assert list(by_key) == [
            ("level", (("node", "n0"),)), ("lat_count", ()), ("lat_sum", ()),
            ("level", (("node", "n1"),))]

    @given(program=st.lists(st.one_of(
        st.just(("tick",)),
        st.tuples(st.just("register"), st.sampled_from(sorted(SHAPES)),
                  st.sampled_from(["n0", "n1", "n2"]),
                  st.integers(min_value=0, max_value=3))), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_sampling_plan_matches_the_per_instrument_loop(self, program):
        """Children registered between ticks, as churn registers them: a
        new label set first seen mid-run, a re-created agent replacing
        its callbacks, an instrument first registered after the first
        tick.  The registry's plan must fill the same series, in the
        same creation order, with the same points as the loop it
        replaced."""
        registry = MetricsRegistry()
        reference = ReferenceLoop(registry)
        state = [0, 10, 20, 30]
        now = 0.0
        for step in program + [("tick",)]:
            if step[0] == "tick":
                registry.sample(now)
                reference.sample(now)
                now += 100.0
                state[:] = [value + index + 1
                            for index, value in enumerate(state)]
                continue
            _, name, node, slot = step
            kind, labelnames = SHAPES[name]
            labels = {label: node for label in labelnames}
            getattr(registry, kind)(name, labelnames=labelnames).set_callback(
                lambda slot=slot: state[slot], **labels)
        got = registry.store.all_series()
        want = reference.store.all_series()
        assert [series.key for series in got] == [
            series.key for series in want]
        for mine, theirs in zip(got, want):
            assert (mine.kind, mine.help) == (theirs.kind, theirs.help)
            assert mine.times == theirs.times
            assert mine.values == theirs.values
        assert registry.samples == reference.samples

    def test_bind_rejects_second_simulator(self):
        registry = MetricsRegistry()
        sim = Simulator(seed=1, metrics=registry)
        assert registry.sim is sim
        with pytest.raises(ValueError):
            Simulator(seed=2, metrics=registry)


class TestNullRegistry:
    def test_shared_null_registry_is_inert(self):
        assert NULL_REGISTRY.active is False
        counter = NULL_REGISTRY.counter("ops")
        assert counter.set_callback(lambda: 5.0, node="n0").current() == 0.0
        assert counter.labels(node="n0").current() == 0.0
        child = NULL_REGISTRY.gauge("g").set_callback(lambda: 1.0)
        assert child.current() == 0.0
        NULL_REGISTRY.sample(0.0)
        assert NULL_REGISTRY.samples == 0
        assert NULL_REGISTRY.instruments() == []
        assert NULL_REGISTRY.to_dicts() == []

    def test_null_registry_rebinds_freely(self):
        registry = NullRegistry()
        assert registry.bind(object()) is registry
        assert registry.bind(object()) is registry

    def test_simulator_defaults_to_null(self):
        sim = Simulator(seed=3)
        assert sim.metrics.active is False
