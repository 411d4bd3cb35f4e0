"""In-memory time-series storage for sampled telemetry.

A :class:`Series` is one labeled stream of ``(sim_time_ms, value)``
points; the :class:`TimeSeriesStore` keys series by ``(name, labels)``
in an insertion-ordered dict, so the set of series — and every export
derived from it — is fully determined by program order, never by hash
order.  Timestamps are simulated milliseconds stamped by the
:class:`~repro.telemetry.sampler.Sampler`; nothing here reads a wall
clock.

A series keeps its samples as two flat lists (``times`` / ``values``),
not a list of ``(t, v)`` pairs: a long run takes hundreds of thousands
of samples, every sample of one tick shares the same timestamp object,
and a retained tuple per sample is one more allocation for CPython's
cyclic collector to visit.  ``points`` zips the pairs on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Series kinds (mirrors the Prometheus metric taxonomy we export).
COUNTER = "counter"
GAUGE = "gauge"


@dataclass
class Series:
    """One labeled time series of sampled values."""

    name: str
    kind: str                       # COUNTER or GAUGE
    #: Label pairs in labelnames order, e.g. (("node", "node0"),).
    labels: tuple = ()
    help: str = ""
    #: Sampling instants (sim_time_ms) and, index for index, the values.
    times: list = field(default_factory=list)
    values: list = field(default_factory=list)

    @property
    def points(self) -> list:
        """Sampled ``(sim_time_ms, value)`` pairs in sampling order."""
        return list(zip(self.times, self.values))

    @property
    def key(self) -> tuple:
        return (self.name, self.labels)

    def label_dict(self) -> dict:
        return dict(self.labels)

    def last(self):
        """The most recent sampled value (None when never sampled)."""
        return self.values[-1] if self.values else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": self.label_dict(),
            "help": self.help,
            "points": [[t, v] for t, v in zip(self.times, self.values)],
        }


class TimeSeriesStore:
    """Insertion-ordered collection of :class:`Series`."""

    def __init__(self):
        self._series: dict[tuple, Series] = {}

    def __len__(self) -> int:
        return len(self._series)

    def series(self, name: str, kind: str, labels: tuple = (),
               help: str = "") -> Series:
        """Get or create the series for ``(name, labels)``."""
        key = (name, labels)
        existing = self._series.get(key)
        if existing is None:
            existing = Series(name=name, kind=kind, labels=labels, help=help)
            self._series[key] = existing
        return existing

    def all_series(self) -> list:
        """Every series, in creation order."""
        return list(self._series.values())

    def iter_dicts(self):
        """JSON-ready dicts in canonical (name, labels) order, one series
        (and so one list of points) at a time."""
        for series in sorted(self._series.values(), key=lambda s: s.key):
            yield series.to_dict()

    def to_dicts(self) -> list:
        """:meth:`iter_dicts` as a list."""
        return list(self.iter_dicts())
