"""Tests for histograms and access statistics."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import AccessStats, Histogram, OpKind


class TestHistogram:
    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.trimmed_mean())

    def test_basic_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        assert h.mean == 2.5
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.count == 4

    def test_percentiles_nearest_rank(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(float(v))
        assert h.p50 == 50.0
        assert h.p99 == 99.0
        assert h.percentile(100.0) == 100.0
        assert h.percentile(0.0) == 1.0

    def test_percentile_validation(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101.0)

    def test_record_after_percentile_resorts(self):
        h = Histogram()
        h.record(5.0)
        assert h.p50 == 5.0
        h.record(1.0)
        assert h.p50 == 1.0

    def test_extend_merges(self):
        a, b = Histogram(), Histogram()
        a.record(1.0)
        b.record(3.0)
        a.extend(b)
        assert a.count == 2
        assert a.mean == 2.0

    def test_trimmed_mean_drops_top(self):
        h = Histogram()
        for v in [1.0] * 9 + [1000.0]:
            h.record(v)
        assert h.trimmed_mean(0.1) == 1.0
        assert h.mean > 100.0

    def test_merge_then_percentiles_sort_once(self):
        # Regression: percentile/trimmed_mean queries after an extend()
        # merge must sort the combined samples exactly once, not per query.
        a, b = Histogram(), Histogram()
        for v in (5.0, 1.0, 3.0):
            a.record(v)
        for v in (4.0, 2.0):
            b.record(v)
        a.extend(b)
        assert a._sorts == 0
        for p in (10.0, 25.0, 50.0, 75.0, 90.0, 99.0):
            a.percentile(p)
        a.trimmed_mean(0.2)
        assert a._sorts == 1
        assert a.p50 == 3.0
        assert a.min == 1.0 and a.max == 5.0

    def test_monotone_stream_never_sorts(self):
        h = Histogram()
        for v in range(100):
            h.record(float(v))
        assert h.percentile(50.0) == 49.0
        assert h.trimmed_mean(0.1) == pytest.approx(sum(range(90)) / 90)
        assert h._sorts == 0

    def test_extend_into_empty_adopts_sortedness(self):
        src, dst = Histogram(), Histogram()
        for v in (3.0, 1.0, 2.0):
            src.record(v)
        dst.extend(src)
        # Adopted as unsorted: a copy that believed itself sorted would
        # answer min / max from its ends (3.0 / 2.0).
        assert (dst.min, dst.max) == (1.0, 3.0)
        assert dst.p50 == 2.0
        assert dst._sorts == 1
        # The copy sorted its own samples; the source is untouched (still
        # unsorted) and the two stay independent afterwards.
        assert src._sorts == 0
        assert (src.min, src.max, src.count) == (1.0, 3.0, 3)
        dst.record(10.0)
        src.record(0.0)
        assert (src.count, src.min, src.max, src.p50) == (4, 0.0, 3.0, 1.0)
        assert (dst.count, dst.min, dst.max, dst.p50) == (4, 1.0, 10.0, 2.0)

    def test_extend_of_ordered_histograms_stays_sorted(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 2.0):
            a.record(v)
        for v in (3.0, 4.0):
            b.record(v)
        a.extend(b)
        assert a.p99 == 4.0
        assert a._sorts == 0

    def test_record_between_queries_stays_correct(self):
        h = Histogram()
        h.record(2.0)
        h.record(1.0)
        assert h.p50 == 1.0
        h.record(0.5)  # out-of-order after a sort: must dirty the cache
        assert h.p50 == 1.0
        assert h.min == 0.5
        assert h._sorts == 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=100))
    def test_percentile_bounds_property(self, values):
        h = Histogram()
        for v in values:
            h.record(v)
        assert h.min <= h.p50 <= h.max
        # Float summation tolerance: mean of identical values can differ
        # from them in the last ulp.
        tolerance = 1e-9 * max(1.0, h.max)
        assert h.min - tolerance <= h.mean <= h.max + tolerance


class TestPackedSamples:
    def test_bytes_retained_per_float(self):
        count = 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            histogram = Histogram()
            for index in range(count):
                # A fresh float object each time.
                histogram.record(index * 0.5 + 0.25)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert histogram.count == count
        # A list slot plus a boxed float is 32 bytes; packed is 8 plus
        # the array's growth slack.
        assert retained / count <= 10

    def test_each_kind_reads_back_as_recorded(self):
        for stream in ([2.5, -0.0, 1.0], [3, 1, 2], [1, True], [2**63, 1],
                       [1.0, 2]):
            histogram = Histogram()
            for value in stream:
                histogram.record(value)
            ordered = sorted(stream)
            assert [repr(histogram.percentile(100.0 * rank / len(stream)))
                    for rank in range(1, len(stream) + 1)] == [
                repr(value) for value in ordered]


class TestAccessStats:
    def test_record_and_count(self):
        stats = AccessStats()
        stats.record(OpKind.LOCAL_READ_HIT, 1.6)
        stats.record(OpKind.LOCAL_READ_HIT, 1.7)
        stats.record(OpKind.WRITE_MISS, 30.0)
        assert stats.count(OpKind.LOCAL_READ_HIT) == 2
        assert stats.reads == 2
        assert stats.writes == 1

    def test_read_mix_sums_to_one(self):
        stats = AccessStats()
        stats.record(OpKind.LOCAL_READ_HIT, 1.0)
        stats.record(OpKind.REMOTE_READ_HIT, 3.0)
        stats.record(OpKind.READ_MISS, 30.0)
        stats.record(OpKind.READ_MISS, 30.0)
        mix = stats.read_mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix["remote_miss"] == 0.5

    def test_read_mix_empty(self):
        assert AccessStats().read_mix() == {
            "local_hit": 0.0, "remote_hit": 0.0, "remote_miss": 0.0,
        }

    def test_merge(self):
        a, b = AccessStats(), AccessStats()
        a.record(OpKind.LOCAL_READ_HIT, 1.0)
        b.record(OpKind.LOCAL_READ_HIT, 2.0)
        b.version_checks = 5
        b.invalidations_per_write.record(3)
        a.merge(b)
        assert a.count(OpKind.LOCAL_READ_HIT) == 2
        assert a.version_checks == 5
        assert a.invalidations_per_write.count == 1

    def test_reset(self):
        stats = AccessStats()
        stats.record(OpKind.READ_MISS, 30.0)
        stats.version_checks = 3
        stats.invalidations_per_write.record(2)
        stats.reset()
        assert stats.reads == 0
        assert stats.version_checks == 0
        assert stats.invalidations_per_write.count == 0

    def test_opkind_is_read(self):
        assert OpKind.LOCAL_READ_HIT.is_read
        assert OpKind.READ_MISS.is_read
        assert not OpKind.WRITE_MISS.is_read
        assert not OpKind.LOCAL_WRITE_HIT.is_read


class TestRenderTable:
    def test_render_basic(self):
        from repro.experiments.tables import render_table

        text = render_table(
            "T", ["a", "b"], [{"a": 1, "b": 2.5}, {"a": "x", "b": ""}],
            note="n")
        assert "T" in text
        assert "2.50" in text
        assert text.endswith("n")

    def test_experiment_result_roundtrip(self):
        from repro.experiments.tables import ExperimentResult

        result = ExperimentResult(
            experiment="Fig X", title="t", columns=["c"],
            data=[{"c": 1}])
        assert result.rows() == [{"c": 1}]
        assert "Fig X" in result.render()
