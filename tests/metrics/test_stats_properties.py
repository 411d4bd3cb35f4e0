"""Property-based tests for Histogram (record/extend/percentile).

Hypothesis explores sample streams and merge shapes the unit tests
don't: the invariants are (a) percentiles depend only on the multiset of
samples, never on arrival or merge order; (b) ``percentile`` is
monotone in ``p``; (c) lazy sorting costs at most one sort per
dirty period, however many queries follow.
"""

import math

from hypothesis import given, strategies as st

from repro.metrics.stats import AccessStats, Histogram, OpKind

# Finite floats; allow_nan/inf off because NaN breaks ordering.
values = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    max_size=80,
)
percentiles = st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False)


def histogram_of(samples) -> Histogram:
    histogram = Histogram()
    for value in samples:
        histogram.record(value)
    return histogram


@given(values, percentiles)
def test_percentile_is_order_independent(samples, p):
    forward = histogram_of(samples)
    backward = histogram_of(list(reversed(samples)))
    if not samples:
        assert math.isnan(forward.percentile(p))
        assert math.isnan(backward.percentile(p))
    else:
        assert forward.percentile(p) == backward.percentile(p)


@given(values, values, percentiles)
def test_extend_commutes_on_percentiles(left, right, p):
    a = histogram_of(left)
    a.extend(histogram_of(right))
    b = histogram_of(right)
    b.extend(histogram_of(left))
    assert a.count == b.count == len(left) + len(right)
    if a.count:
        assert a.percentile(p) == b.percentile(p)
        assert a.mean == b.mean


@given(values, values)
def test_extend_equals_recording_concatenation(left, right):
    merged = histogram_of(left)
    merged.extend(histogram_of(right))
    flat = histogram_of(left + right)
    assert merged.count == flat.count
    if merged.count:
        for p in (0.0, 25.0, 50.0, 75.0, 99.0, 100.0):
            assert merged.percentile(p) == flat.percentile(p)
        assert merged.min == flat.min
        assert merged.max == flat.max


@given(values, st.lists(percentiles, min_size=2, max_size=8))
def test_percentile_monotone_in_p(samples, ps):
    histogram = histogram_of(samples)
    if not samples:
        return
    ps = sorted(ps)
    results = [histogram.percentile(p) for p in ps]
    assert results == sorted(results)


@given(values, st.lists(percentiles, min_size=1, max_size=10))
def test_at_most_one_sort_per_dirty_period(samples, ps):
    histogram = histogram_of(samples)
    for p in ps:
        histogram.percentile(p)
    # However many queries ran, one dirty period costs at most one sort.
    assert histogram._sorts <= 1
    # A second dirty period (an out-of-order record) costs at most one more.
    histogram.record(-1e12)
    histogram.record(1e12)
    for p in ps:
        histogram.percentile(p)
    assert histogram._sorts <= 2


@given(values)
def test_stddev_matches_variance(samples):
    histogram = histogram_of(samples)
    if not samples:
        assert math.isnan(histogram.variance)
        assert math.isnan(histogram.stddev)
    else:
        assert histogram.variance >= 0.0
        assert math.isclose(histogram.stddev,
                            math.sqrt(histogram.variance))


@given(values)
def test_trimmed_mean_drops_largest(samples):
    histogram = histogram_of(samples)
    if not samples:
        assert math.isnan(histogram.trimmed_mean())
        return
    trimmed = histogram.trimmed_mean(0.25)
    cut = int(len(samples) * 0.25)
    kept = sorted(samples)[:len(samples) - cut] if cut else sorted(samples)
    assert math.isclose(trimmed, sum(kept) / len(kept))
    assert trimmed <= histogram.mean or math.isclose(trimmed, histogram.mean)


class ListHistogram:
    """Reference: the plain list-backed ``Histogram`` the packed one must
    answer exactly like (same sort points, same returned objects)."""

    def __init__(self):
        self._samples = []
        self._sorted = True
        self._sorts = 0

    def record(self, value):
        if self._sorted and self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)

    def extend(self, other):
        if not other._samples:
            return
        if not self._samples:
            self._samples = list(other._samples)
            self._sorted = other._sorted
            return
        still_sorted = (self._sorted and other._sorted
                        and other._samples[0] >= self._samples[-1])
        self._samples.extend(other._samples)
        self._sorted = still_sorted

    def _ensure_sorted(self):
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
            self._sorts += 1
        return self._samples

    count = property(lambda self: len(self._samples))
    mean = property(lambda self: (sum(self._samples) / len(self._samples)
                                  if self._samples else math.nan))
    max = property(lambda self: (
        math.nan if not self._samples
        else self._samples[-1] if self._sorted else max(self._samples)))
    min = property(lambda self: (
        math.nan if not self._samples
        else self._samples[0] if self._sorted else min(self._samples)))

    def percentile(self, p):
        if not self._samples:
            return math.nan
        samples = self._ensure_sorted()
        return samples[max(1, math.ceil(p / 100.0 * len(samples))) - 1]

    @property
    def variance(self):
        if not self._samples:
            return math.nan
        mean = self.mean
        return sum((s - mean) ** 2 for s in self._samples) / len(self._samples)

    def trimmed_mean(self, drop_top_fraction=0.1):
        if not self._samples:
            return math.nan
        kept = self._ensure_sorted()
        cut = int(len(kept) * drop_top_fraction)
        kept = kept[:len(kept) - cut] if cut else kept
        return sum(kept) / len(kept)


def _answer(query):
    try:
        return repr(query())
    except Exception as error:  # both sides must fail the same way
        return f"raises {type(error).__name__}"


def answers(histogram) -> list:
    """``repr`` of every query, in an order that sorts midway."""
    return [_answer(query) for query in (
        lambda: histogram.count, lambda: histogram.mean,
        lambda: histogram.min, lambda: histogram.max,
        lambda: histogram.variance,
        *(lambda p=p: histogram.percentile(p)
          for p in (0.0, 1.0, 50.0, 99.0, 100.0)),
        lambda: histogram.trimmed_mean(0.3),
        lambda: histogram.min, lambda: histogram.max,
        lambda: histogram._sorts)]


kinds = st.sampled_from(["float", "int", "huge", "bool", "mixed"])
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, math.inf, -math.inf])
small_int = st.integers(min_value=-2**63, max_value=2**63 - 1)
huge_int = st.integers(min_value=2**63, max_value=2**80) | st.integers(
    min_value=-2**80, max_value=-2**63 - 1)
sample_of = {
    "float": any_float,
    "int": small_int,
    "huge": small_int | huge_int,
    "bool": st.booleans(),
    "mixed": any_float | small_int | huge_int | st.booleans(),
}


@st.composite
def streams(draw, min_size=0):
    kind = draw(kinds)
    return draw(st.lists(sample_of[kind], min_size=min_size, max_size=40))


# One step: record a sample, extend by a histogram built from a stream of
# any kind, or query everything (which sorts, so later records meet a
# sorted store).
steps = st.lists(st.one_of(
    st.tuples(st.just("record"), sample_of["mixed"]),
    st.tuples(st.just("extend"), streams()),
    st.tuples(st.just("query"), st.none())), max_size=12)


@given(streams(), steps)
def test_packed_histogram_answers_like_a_list(first, program):
    packed, reference = Histogram(), ListHistogram()
    for value in first:
        packed.record(value)
        reference.record(value)
    for op, arg in program:
        if op == "record":
            packed.record(arg)
            reference.record(arg)
        elif op == "extend":
            other_packed, other_reference = Histogram(), ListHistogram()
            for value in arg:
                other_packed.record(value)
                other_reference.record(value)
            packed.extend(other_packed)
            reference.extend(other_reference)
            # The source is left as it was.
            assert answers(other_packed) == answers(other_reference)
        else:
            assert answers(packed) == answers(reference)
    assert answers(packed) == answers(reference)


@given(st.data())
def test_access_stats_record_answers_like_a_list(data):
    """``AccessStats.record`` appends into the kind's histogram itself;
    every kind's answers must still be a list-backed histogram's, across
    interleaved kinds, each with its own sample stream, and a reset."""
    op_kinds = list(OpKind)
    streams_of = {kind: data.draw(kinds, label=kind.value)
                  for kind in op_kinds}
    stats, reference = AccessStats(), {}

    def check():
        assert list(stats.latency) == list(reference)
        for kind, expected in reference.items():
            assert answers(stats.latency[kind]) == answers(expected), kind

    for _ in range(data.draw(st.integers(0, 60), label="steps")):
        op = data.draw(st.sampled_from(
            ["record"] * 8 + ["query", "reset"]), label="op")
        if op == "record":
            kind = data.draw(st.sampled_from(op_kinds), label="kind")
            value = data.draw(sample_of[streams_of[kind]], label="value")
            stats.record(kind, value)
            reference.setdefault(kind, ListHistogram()).record(value)
        elif op == "reset":
            stats.reset()
            reference.clear()
        else:
            check()
    check()
