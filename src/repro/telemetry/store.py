"""In-memory time-series storage for sampled telemetry.

A :class:`Series` is one labeled stream of ``(sim_time_ms, value)``
points; the :class:`TimeSeriesStore` keys series by ``(name, labels)``
in an insertion-ordered dict, so the set of series — and every export
derived from it — is fully determined by program order, never by hash
order.  Timestamps are simulated milliseconds stamped by the
:class:`~repro.telemetry.sampler.Sampler`; nothing here reads a wall
clock.

**Storage layout.**  Most sampled values repeat their series' previous
one (a counter that did not move, a gauge at rest), so the store keeps
one list of sampling instants — the *ticks*, shared by every series —
and each series stores a point only when its value *changes*: the tick
index and the value, in two flat lists.  "Changes" means "is not the
same value" (:meth:`MetricsRegistry.sample
<repro.telemetry.registry.MetricsRegistry.sample>` decides): ``0`` then
``0.0``, ``0.0`` then ``-0.0``, and a NaN are all stored, so every value
a reader gets back is the one sampled, or one equal to it in value,
type and sign.  A series is sampled at every tick from its first, so
:attr:`Series.points` (and ``times`` / ``values`` / ``to_dict``)
forward-fill the per-tick series from the ticks: every reader sees each
tick's point as if it had been stored.

The change lists are typed arrays while the stream allows it, in the
manner of :class:`~repro.metrics.stats.Histogram`: the tick indices an
``array('I')``, the values an ``array('d')`` when the first is a
``float`` or an ``array('q')`` when it is an ``int`` that fits 64 bits
(8 bytes a point, not a list slot plus a boxed number).  The first value
of another type — an ``int`` among floats, a ``bool``, an ``int`` of 2⁶³
or more — turns the values into a plain list, for good.  An array hands
back exactly what it stored, ``-0.0`` and NaN included, so every reader
sees what a list would have held.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice, repeat
from typing import Optional

#: Series kinds (mirrors the Prometheus metric taxonomy we export).
COUNTER = "counter"
GAUGE = "gauge"

#: The previous value of a series never sampled: equal to no value.
_UNSAMPLED = object()

#: The ``array('q')`` range.
_INT64 = range(-2 ** 63, 2 ** 63)


class Series:
    """One labeled time series of sampled values."""

    __slots__ = ("name", "kind", "labels", "help", "_ticks", "_at",
                 "_values", "_last")

    def __init__(self, name: str, kind: str, labels: tuple = (),
                 help: str = "", ticks: Optional[list] = None):
        self.name = name
        self.kind = kind            # COUNTER or GAUGE
        #: Label pairs in labelnames order, e.g. (("node", "node0"),).
        self.labels = labels
        self.help = help
        # The store's sampling instants, and this series' changes: the
        # tick index of each and, index for index, the value.  The empty
        # values array is a placeholder: the first value picks its type.
        self._ticks = ticks if ticks is not None else []
        self._at = array("I")
        self._values = array("d")
        #: The newest sampled value (the registry compares against it).
        self._last = _UNSAMPLED

    def _store(self, tick: int, value) -> None:
        """Store the change to ``value`` at tick index ``tick``."""
        self._last = value
        self._at.append(tick)
        values = self._values
        if type(values) is not list:
            # The array type that holds ``value`` exactly (None: none).
            kind = type(value)
            code = ("d" if kind is float
                    else "q" if kind is int and value in _INT64 else None)
            if not values:
                values = self._values = array(code) if code else []
            elif code != values.typecode:
                values = self._values = values.tolist()
        values.append(value)

    @property
    def stored(self) -> int:
        """Points actually stored: the first sample and each change."""
        return len(self._at)

    @property
    def times(self) -> list:
        """Every sampling instant since the series' first sample."""
        return self._ticks[self._at[0]:] if self._at else []

    @property
    def values(self) -> list:
        """The sampled value at each of :attr:`times` (forward-filled)."""
        at = self._at
        bounds = chain(islice(at, 1, None), (len(self._ticks),))
        out: list = []
        for start, stop, value in zip(at, bounds, self._values):
            out.extend(repeat(value, stop - start))
        return out

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
        return None if self._last is _UNSAMPLED else self._last

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
        #: Sampling instants (sim_time_ms), one per tick, shared by
        #: every series.
        self.ticks: list = []

    def __len__(self) -> int:
        return len(self._series)

    def series(self, name: str, kind: str, labels: tuple = (),
               help: str = "") -> Series:
        """Get or create the series for ``(name, labels)``."""
        key = (name, labels)
        existing = self._series.get(key)
        if existing is None:
            existing = Series(name=name, kind=kind, labels=labels, help=help,
                              ticks=self.ticks)
            self._series[key] = existing
        return existing

    def all_series(self) -> list:
        """Every series, in creation order."""
        return list(self._series.values())

    def stored_points(self) -> int:
        """Points stored across every series (changes, not ticks)."""
        return sum(series.stored for series in self._series.values())

    def iter_dicts(self):
        """JSON-ready dicts in canonical (name, labels) order, one series
        (and so one list of points) at a time."""
        for series in sorted(self._series.values(), key=lambda s: s.key):
            yield series.to_dict()

    def to_dicts(self) -> list:
        """:meth:`iter_dicts` as a list."""
        return list(self.iter_dicts())
