"""Histograms and cache-access statistics.

Everything the evaluation section reports reduces to histograms of
latencies and counters of access classifications, so these two types are
shared by every caching scheme and every experiment.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field


class Histogram:
    """Streaming collection of samples with percentile queries.

    Samples are kept (experiments are bounded), so percentiles are exact.

    Storage is packed while the stream allows it: while every sample is a
    ``float`` the samples sit in an ``array('d')`` (8 bytes a sample, not
    a list slot plus a boxed float).  The first sample that is not exactly
    a ``float`` — an ``int``, a ``bool``, any subclass — turns them into a
    plain list, for good.  The array hands back exactly the floats stored,
    so every query returns what a list-backed histogram returns, ``int``
    vs ``float`` and ``-0.0`` included.
    """

    def __init__(self):
        self._samples = array("d")
        #: True while the samples are an ``array('d')``, False once a list.
        self._packed = True
        self._sorted = True
        #: Diagnostic: number of times a query had to sort (tests assert
        #: repeated percentile queries after a merge sort exactly once).
        self._sorts = 0

    def record(self, value: float) -> None:
        samples = self._samples
        # An append in non-decreasing order keeps the samples sorted, so
        # monotone streams never pay a sort at query time.
        if self._sorted and samples and value < samples[-1]:
            self._sorted = False
        if self._packed and type(value) is not float:
            self._samples = samples = samples.tolist()
            self._packed = False
        samples.append(value)

    def extend(self, other: "Histogram") -> None:
        """Merge another histogram's samples into this one."""
        if not other._samples:
            return
        if not self._samples:
            self._samples = other._samples[:]
            self._packed = other._packed
            self._sorted = other._sorted
            return
        still_sorted = (self._sorted and other._sorted
                        and other._samples[0] >= self._samples[-1])
        if self._packed and not other._packed:
            self._samples = self._samples.tolist()
            self._packed = False
        self._samples.extend(other._samples)
        self._sorted = still_sorted

    def _ensure_sorted(self):
        if not self._sorted:
            samples = self._samples
            if self._packed:
                self._samples = array("d", sorted(samples))
            else:
                samples.sort()
            self._sorted = True
            self._sorts += 1
        return self._samples

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    @property
    def max(self) -> float:
        if not self._samples:
            return math.nan
        return self._samples[-1] if self._sorted else max(self._samples)

    @property
    def min(self) -> float:
        if not self._samples:
            return math.nan
        return self._samples[0] if self._sorted else min(self._samples)

    def percentile(self, p: float) -> float:
        """Exact percentile via nearest-rank (p in [0, 100])."""
        if not self._samples:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        samples = self._ensure_sorted()
        rank = max(1, math.ceil(p / 100.0 * len(samples)))
        return samples[rank - 1]

    @property
    def variance(self) -> float:
        """Population variance of the samples (NaN when empty)."""
        if not self._samples:
            return math.nan
        mean = self.mean
        return sum((s - mean) ** 2 for s in self._samples) / len(self._samples)

    @property
    def stddev(self) -> float:
        """Population standard deviation of the samples (NaN when empty)."""
        if not self._samples:
            return math.nan
        return math.sqrt(self.variance)

    def trimmed_mean(self, drop_top_fraction: float = 0.1) -> float:
        """Mean excluding the *largest* ``drop_top_fraction`` of samples.

        This is a top-trim by value, not a warmup trim by arrival order:
        cold-start transients are usually also the largest latencies, so
        dropping the top tail removes them wherever they occur in the
        stream — but a slow sample recorded mid-run is dropped just the
        same.  Use :meth:`AccessStats.reset` at end-of-warmup when you
        need a true phase cut."""
        if not self._samples:
            return math.nan
        kept = self._ensure_sorted()
        cut = int(len(kept) * drop_top_fraction)
        kept = kept[:len(kept) - cut] if cut else kept
        return sum(kept) / len(kept)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)


class OpKind(enum.Enum):
    """Classification of a cache-mediated storage operation."""

    LOCAL_READ_HIT = "local_read_hit"
    REMOTE_READ_HIT = "remote_read_hit"
    READ_MISS = "read_miss"
    LOCAL_WRITE_HIT = "local_write_hit"
    REMOTE_WRITE_HIT = "remote_write_hit"
    WRITE_MISS = "write_miss"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality — and it is C code, where Enum.__hash__
    # (``hash(self._name_)``) is a Python-level call on every
    # ``AccessStats.record``.  Nothing orders by it: every OpKind-keyed
    # container in the tree is an insertion-ordered dict.
    __hash__ = object.__hash__

    @property
    def is_read(self) -> bool:
        return self in _READ_KINDS


_READ_KINDS = (OpKind.LOCAL_READ_HIT, OpKind.REMOTE_READ_HIT,
               OpKind.READ_MISS)
_WRITE_KINDS = tuple(kind for kind in OpKind if kind not in _READ_KINDS)


@dataclass
class AccessStats:
    """Per-scheme operation counters and latency histograms."""

    latency: dict = field(default_factory=dict)      # OpKind -> Histogram
    invalidations_per_write: Histogram = field(default_factory=Histogram)
    version_checks: int = 0

    def record(self, kind: OpKind, latency_ms: float) -> None:
        # Once per cache operation: one dict lookup, Histogram.record inlined.
        histogram = self.latency.get(kind)
        if histogram is None:
            histogram = self.latency[kind] = Histogram()
        samples = histogram._samples
        if histogram._sorted and samples and latency_ms < samples[-1]:
            histogram._sorted = False
        if histogram._packed and type(latency_ms) is not float:
            histogram._samples = samples = samples.tolist()
            histogram._packed = False
        samples.append(latency_ms)

    @property
    def ops(self) -> dict:
        """OpKind -> operations recorded, in first-seen order."""
        return {kind: histogram.count
                for kind, histogram in self.latency.items()}

    def count(self, kind: OpKind) -> int:
        histogram = self.latency.get(kind)
        return histogram.count if histogram is not None else 0

    @property
    def reads(self) -> int:
        return self._total(_READ_KINDS)

    @property
    def writes(self) -> int:
        return self._total(_WRITE_KINDS)

    def _total(self, kinds: tuple) -> int:
        """Operations recorded of the given kinds (no call per kind: the
        sampler reads ``reads`` for two series of every scheme, every tick)."""
        latency = self.latency
        total = 0
        for kind in kinds:
            histogram = latency.get(kind)
            if histogram is not None:
                total += len(histogram._samples)
        return total

    def read_mix(self) -> dict[str, float]:
        """Fractions of reads that were local hits / remote hits / misses."""
        total = self.reads
        if total == 0:
            return {"local_hit": 0.0, "remote_hit": 0.0, "remote_miss": 0.0}
        return {
            "local_hit": self.count(OpKind.LOCAL_READ_HIT) / total,
            "remote_hit": self.count(OpKind.REMOTE_READ_HIT) / total,
            "remote_miss": self.count(OpKind.READ_MISS) / total,
        }

    def reset(self) -> None:
        """Drop all recorded data (end-of-warmup)."""
        self.latency.clear()
        self.invalidations_per_write = Histogram()
        self.version_checks = 0

    def merge(self, other: "AccessStats") -> None:
        """Fold another stats object into this one."""
        for kind, histogram in other.latency.items():
            self.latency.setdefault(kind, Histogram()).extend(histogram)
        self.invalidations_per_write.extend(other.invalidations_per_write)
        self.version_checks += other.version_checks
