"""A series' change lists are typed arrays, and nothing reads differently.

The registry stores a series' tick indices in an ``array('I')`` and its
values in an ``array('d')`` / ``array('q')`` until the first value of
another type turns them into a list for good.  The reference here keeps
every tick's value in a plain list; every reader of every series must
return exactly what it holds, type, sign and NaN included.
"""

import json
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import MetricsRegistry

_NAN = float("nan")

#: Tokens a slot may take: ints (the array('q') bounds on both sides),
#: floats, both zeros, a reused NaN and fresh ones, True.
VALUES = st.one_of(
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.sampled_from([0, 1, -1, 2 ** 63 - 1, 2 ** 63, 2 ** 64, -2 ** 63,
                     -2 ** 63 - 1, 0.0, -0.0, 1.0, 2.5, _NAN, "fresh-nan",
                     True, float("inf")]),
    st.floats(allow_nan=False),
)


def _value(token):
    """A fresh NaN where the token asks for one, else the token."""
    return float("nan") if token == "fresh-nan" else token


def _exact(value) -> tuple:
    """A value compared by type and repr: 0 / 0.0 / True, 0.0 / -0.0 and
    NaN all tell apart."""
    return type(value), repr(value)


class PerTickReference:
    """Every child's value at every tick, in plain lists."""

    def __init__(self, registry):
        self.registry = registry
        #: (name, labels) -> [(time, value), ...], in creation order.
        self.points: dict = {}

    def sample(self, now: float) -> None:
        for instrument in self.registry.instruments():
            for key, child in instrument._children.items():
                self.points.setdefault(
                    (instrument.name, instrument._label_pairs(key)), []
                ).append((now, child._callback()))


@given(program=st.lists(st.one_of(
    st.tuples(st.just("tick"), st.lists(VALUES, min_size=3, max_size=3)),
    st.tuples(st.just("register"), st.integers(0, 2), st.integers(0, 2))),
    max_size=40))
@settings(max_examples=300, deadline=None)
def test_typed_change_lists_read_as_the_per_tick_lists(program):
    """Ticks set each slot; between them a child is registered or its
    callback replaced (``register`` on a label set already seen)."""
    registry = MetricsRegistry()
    reference = PerTickReference(registry)
    state = [0, 0.0, 0]
    now = 0.0
    registry.gauge("slot0").set_callback(lambda: state[0])
    for step in program + [("tick", [0, 0, 0])]:
        if step[0] == "register":
            _, label, slot = step
            registry.gauge("late", labelnames=("label",)).set_callback(
                lambda slot=slot: state[slot], label=label)
            continue
        state[:] = [_value(token) for token in step[1]]
        registry.sample(now)
        reference.sample(now)
        now += 100.0

    got = registry.store.all_series()
    assert [series.key for series in got] == list(reference.points)
    for series, points in zip(got, reference.points.values()):
        assert [(t, *_exact(v)) for t, v in series.points] == [
            (t, *_exact(v)) for t, v in points]
        exported = series.to_dict()
        assert [(t, *_exact(v)) for t, v in exported["points"]] == [
            (t, *_exact(v)) for t, v in points]
        assert (exported["name"], exported["kind"], exported["labels"]) == (
            series.name, "gauge", dict(series.labels))
        assert json.dumps(exported["points"]) == json.dumps(
            [[t, v] for t, v in points])
        assert _exact(series.last()) == _exact(points[-1][1])
        # The arrays hold whatever streams they can, and only those.
        assert type(series._at) is array
        values = [v for _, v in points]
        if all(type(v) is float for v in values):
            assert series._values.typecode == "d"
        elif all(type(v) is int and -2 ** 63 <= v < 2 ** 63
                 for v in values):
            assert series._values.typecode == "q"
        else:
            assert type(series._values) is list


def test_a_series_never_sampled_reads_empty():
    registry = MetricsRegistry()
    series = registry.store.series("g", "gauge")
    assert (series.points, series.last(), series.stored) == ([], None, 0)


def test_the_first_other_type_turns_the_values_into_a_list():
    registry = MetricsRegistry()
    state = {"v": 1.5}
    registry.gauge("g").set_callback(lambda: state["v"])
    for value in (1.5, -0.0, _NAN, 2, 2.0, True):
        state["v"] = value
        registry.sample(0.0)
    (series,) = registry.store.all_series()
    assert type(series._values) is list
    assert [_exact(v) for v in series.values] == [
        _exact(v) for v in (1.5, -0.0, _NAN, 2, 2.0, True)]
