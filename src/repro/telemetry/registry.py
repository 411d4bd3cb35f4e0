"""Labeled metrics instruments and the registry that owns them.

The registry mirrors the tracing layer's design contract
(:mod:`repro.trace.tracer`):

* **Simulated time only** (DET01): values are snapshotted by the
  :class:`~repro.telemetry.sampler.Sampler` at ``sim.now``; nothing here
  reads a wall clock.
* **Deterministic identity** (DET02/DET03): instruments and their
  labeled children live in insertion-ordered dicts keyed by name and
  label-value tuples — never ``id()`` or hash order — so two
  identically-seeded runs produce byte-identical exports regardless of
  ``PYTHONHASHSEED``.
* **Zero-cost no-op mode**: an unconfigured simulator carries the shared
  :data:`NULL_REGISTRY` whose ``active`` flag lets instrumentation sites
  skip callback registration entirely.

Instrumentation is *pull-only*: every labeled child is a zero-argument
callback over state a layer already keeps (network stats, cache stats,
resource queues, per-app totals), registered via
:meth:`Instrument.set_callback`.  Instrumented layers pay nothing on
their hot paths; the sampler evaluates callbacks only at sampling
instants.  A signal with no resident state to read back gets that state
on its layer (a counter, a running sum), not a push API here.
"""

from __future__ import annotations

from math import copysign

from repro.telemetry.store import COUNTER, GAUGE, TimeSeriesStore


class MetricError(ValueError):
    """Inconsistent instrument registration or labeling."""


def _label_key(labelnames: tuple, labelvalues: dict) -> tuple:
    """Validate and order label values into the child key tuple."""
    if sorted(labelvalues) != sorted(labelnames):
        raise MetricError(
            f"label set {sorted(labelvalues)!r} does not match declared "
            f"labelnames {sorted(labelnames)!r}")
    return tuple(str(labelvalues[name]) for name in labelnames)


class _Child:
    """One labeled stream of an instrument: the callback it samples."""

    __slots__ = ("_callback",)

    def __init__(self, callback):
        self._callback = callback

    def current(self):
        return self._callback()


class Instrument:
    """Base: a named metric family with a fixed label set."""

    kind: str = ""

    def __init__(self, name: str, help: str, labelnames: tuple):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        # Label-value tuple -> child, in registration order.
        self._children: dict = {}

    def labels(self, **labelvalues):
        """The child registered for one label-value combination."""
        return self._children[_label_key(self.labelnames, labelvalues)]

    def set_callback(self, callback, **labelvalues):
        """Register (or replace) the pull callback of one labeled child.

        The callback runs only at sampling instants, so instrumented
        layers pay nothing on their hot paths.  Callbacks must be
        deterministic: no wall clock, no iteration over bare sets.
        """
        key = _label_key(self.labelnames, labelvalues)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _Child(callback)
        else:
            child._callback = callback
        return child

    def children(self) -> list:
        """(label_pairs, child) in registration order."""
        return [(self._label_pairs(key), child)
                for key, child in self._children.items()]

    def _label_pairs(self, key: tuple) -> tuple:
        return tuple(zip(self.labelnames, key))


class Counter(Instrument):
    """A monotonically non-decreasing total."""

    kind = COUNTER


class Gauge(Instrument):
    """An instantaneous level."""

    kind = GAUGE


class MetricsRegistry:
    """Per-run instrument registry bound to one :class:`Simulator`.

    Instruments are get-or-create by name; re-registering with a
    different kind or label set raises :class:`MetricError` so the same
    family can't fork into incompatible shapes across layers.
    """

    active = True

    def __init__(self):
        self._sim = None
        self._instruments: dict = {}
        self.store = TimeSeriesStore()
        self.samples = 0
        # The sampling plan: ``(child, series)`` for every child of
        # every instrument, in registration order.  Children are never
        # removed, so a plan shorter than the children count is missing a
        # new child.
        self._plan: list = []

    # -- wiring -------------------------------------------------------

    def bind(self, sim) -> "MetricsRegistry":
        if self._sim is not None and self._sim is not sim:
            raise ValueError(
                "MetricsRegistry is already bound to another Simulator")
        self._sim = sim
        return self

    @property
    def sim(self):
        return self._sim

    # -- registration -------------------------------------------------

    def _instrument(self, cls, name, help, labelnames):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind or type(existing).__name__}")
            if sorted(existing.labelnames) != sorted(tuple(labelnames)):
                raise MetricError(
                    f"metric {name!r} already registered with labelnames "
                    f"{sorted(existing.labelnames)!r}, got "
                    f"{sorted(tuple(labelnames))!r}")
            return existing
        instrument = cls(name, help, tuple(labelnames))
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", labelnames: tuple = ()):
        return self._instrument(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple = ()):
        return self._instrument(Gauge, name, help, labelnames)

    def instruments(self) -> list:
        """All instruments, in registration order."""
        return list(self._instruments.values())

    # -- sampling / export --------------------------------------------

    def sample(self, now: float) -> None:
        """Snapshot every instrument into the store at sim time ``now``.

        A series stores the value only when it changed: when it is not
        equal to the previous one, or is of another type (``0`` /
        ``0.0``), or is a float zero of the other sign.  A NaN equals
        nothing, so it is always stored.
        """
        plan = self._plan
        if len(plan) != sum([len(instrument._children)
                             for instrument in self._instruments.values()]):
            plan = self._plan = self._build_plan()
        ticks = self.store.ticks
        tick = len(ticks)
        ticks.append(now)
        for child, series in plan:
            value = child._callback()
            last = series._last
            if value is last or (
                    value == last and type(value) is type(last)
                    and (value != 0 or type(value) is not float
                         or copysign(1.0, value) == copysign(1.0, last))):
                continue
            series._store(tick, value)
        self.samples += 1

    def _build_plan(self) -> list:
        """The sampling plan over every child registered so far.

        A child's series is created the first time a plan holds it, so
        series are created in first-sample order: instrument, then child,
        in registration order.  The plan holds the child, not its
        callback, so :meth:`Instrument.set_callback` replacing a callback
        needs no rebuild.
        """
        store = self.store
        plan = []
        for instrument in self._instruments.values():
            for key, child in instrument._children.items():
                series = store.series(instrument.name, instrument.kind,
                                      instrument._label_pairs(key),
                                      instrument.help)
                plan.append((child, series))
        return plan

    def iter_dicts(self):
        """Sampled series as JSON-ready dicts (canonical order), one at
        a time."""
        return self.store.iter_dicts()

    def to_dicts(self) -> list:
        """:meth:`iter_dicts` as a list."""
        return self.store.to_dicts()


class _NullChild:
    """Shared do-nothing child returned by :class:`NullRegistry`."""

    __slots__ = ()

    def current(self):
        return 0.0


NULL_CHILD = _NullChild()


class _NullInstrument:
    """Shared do-nothing instrument returned by :class:`NullRegistry`."""

    __slots__ = ()

    def labels(self, **labelvalues):
        return NULL_CHILD

    def set_callback(self, callback, **labelvalues):
        return NULL_CHILD

    def children(self) -> list:
        return []


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Inactive registry: every operation is a no-op.

    ``active`` is False so instrumentation sites can skip closure
    construction entirely; code that registers unconditionally still
    works and pays only a couple of attribute lookups.
    """

    active = False
    samples = 0

    def __init__(self):
        # Shared empty store so export helpers accept a null registry.
        self.store = TimeSeriesStore()

    def bind(self, sim) -> "NullRegistry":
        return self

    @property
    def sim(self):
        return None

    def counter(self, name, help="", labelnames=()):
        return NULL_INSTRUMENT

    def gauge(self, name, help="", labelnames=()):
        return NULL_INSTRUMENT

    def instruments(self) -> list:
        return []

    def sample(self, now: float) -> None:
        return None

    def iter_dicts(self):
        return iter(())

    def to_dicts(self) -> list:
        return []


#: Shared inactive registry; the default for every Simulator.
NULL_REGISTRY = NullRegistry()
