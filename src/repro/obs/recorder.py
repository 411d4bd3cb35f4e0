"""The flight recorder: a bounded ring buffer of protocol events.

A :class:`FlightRecorder` collects :class:`ProtoEvent` records — typed,
sim-clock-stamped protocol transitions (see :mod:`repro.obs.events`) —
from every instrumented layer.  Design constraints mirror the tracer and
the metrics registry:

* **Simulated time only** (DET01): events are stamped with ``sim.now``;
  the recorder never reads a wall clock.
* **Deterministic identity** (DET03): event sequence numbers come from a
  plain counter, so two identically-seeded runs produce byte-identical
  dumps regardless of ``PYTHONHASHSEED``.
* **Zero-cost no-op mode**: an unconfigured simulator carries the shared
  :data:`NULL_RECORDER` whose ``active`` flag lets emission sites skip
  argument packing entirely (OBS01 enforces the gating discipline).
* **Purely passive**: recording appends to a Python list and never
  schedules, yields or otherwise touches the event wheel, so a run with
  the recorder enabled is schedule-identical — and therefore
  counter-identical — to the same run without it (the PR 5 bench gate
  pins this).

**Cross-signal correlation.**  Every event carries the ambient
``TraceContext`` (``trace``/``span`` ids, 0 when tracing is off) and the
``tick`` — the metric registry's sample count at emission time — so
post-mortem tooling can join the event log with the span tree and the
sampled timelines of the same run without timestamps alone.

**Ring-buffer semantics.**  The buffer holds the most recent
``capacity`` events; older ones are overwritten in place and counted in
``dropped``.  Emission order is sim-time order (the clock is monotonic
within a run), so eviction always discards a prefix — the survivors stay
sorted by ``(t, seq)``.

**Storage layout.**  The ring keeps one row of atomics per event —
``(seq, t, type, node, key, trace, span, tick)`` — and the attrs dict at
the same index of a parallel list, never an object per event: CPython's
cyclic collector re-scans every tracked object a run retains, a tuple of
atomics and a dict of atomic values are both untracked, and a tuple that
*holds* a dict never is (the same layout, for the same reason, as the
tracer's finished spans).  :meth:`FlightRecorder.events` builds
:class:`ProtoEvent` views on demand.

**Automatic dump.**  When constructed with ``dump_path``, emitting a
dump-trigger event (fault injection, coherence violation) writes the
full buffer to that JSONL path immediately, so the flight recording of a
failing run survives even if the driver crashes before exporting.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.obs.events import DUMP_TRIGGERS

__all__ = ["FlightRecorder", "NullRecorder", "NULL_RECORDER", "ProtoEvent",
           "DEFAULT_CAPACITY"]

#: Default ring capacity: generous for post-mortems, bounded for soak runs.
DEFAULT_CAPACITY = 65536


class ProtoEvent:
    """One recorded protocol event (a read-side view of one ring row)."""

    __slots__ = ("seq", "t", "type", "node", "key", "trace", "span",
                 "tick", "attrs")

    def __init__(self, seq, t, type, node, key, trace, span, tick, attrs):
        self.seq = seq
        self.t = t
        self.type = type
        self.node = node
        self.key = key
        self.trace = trace
        self.span = span
        self.tick = tick
        self.attrs = attrs

    def to_dict(self) -> dict:
        return _event_dict((self.seq, self.t, self.type, self.node, self.key,
                            self.trace, self.span, self.tick), self.attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProtoEvent(#{self.seq} t={self.t} {self.type} "
                f"node={self.node!r} key={self.key!r})")


def _event_dict(row: tuple, attrs: dict) -> dict:
    """The JSON-ready export record of one ring row."""
    seq, t, etype, node, key, trace, span, tick = row
    return {
        "seq": seq,
        "t": t,
        "type": etype,
        "node": node,
        "key": key,
        "trace": trace,
        "span": span,
        "tick": tick,
        "attrs": attrs,
    }


class FlightRecorder:
    """Bounded in-memory protocol event log bound to one Simulator."""

    active = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 dump_path: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.dump_path = dump_path
        self._sim = None
        # The ring: rows of atomics and, index for index, their attrs.
        self._rows: list = []
        self._attrs: list = []
        self._head = 0          # overwrite cursor once the ring is full
        self._next_seq = itertools.count(1)
        #: Events overwritten by ring eviction.
        self.dropped = 0
        #: Automatic full dumps written (fault / violation triggers).
        self.autodumps = 0

    # -- wiring -------------------------------------------------------
    def bind(self, sim) -> "FlightRecorder":
        if self._sim is not None and self._sim is not sim:
            raise ValueError(
                "FlightRecorder is already bound to another Simulator")
        self._sim = sim
        return self

    @property
    def sim(self):
        return self._sim

    # -- recording ----------------------------------------------------
    def emit(self, etype: str, node: str = "", key: str = "",
             **attrs) -> None:
        """Record one event, stamped with sim time, trace ids and tick.

        Purely passive: one list append (or in-place overwrite), no
        simulator interaction.  Callers gate on ``recorder.active`` so
        the Null sink never evaluates the arguments.
        """
        sim = self._sim
        if sim is None:
            raise RuntimeError("FlightRecorder.emit() before bind(): attach "
                               "the recorder via Simulator(obs=...)")
        trace, span = sim.tracer.current() or (0, 0)
        row = (next(self._next_seq), sim.now, etype, node, key, trace, span,
               sim.metrics.samples)
        rows = self._rows
        if len(rows) < self.capacity:
            rows.append(row)
            self._attrs.append(attrs)
        else:
            head = self._head
            rows[head] = row
            self._attrs[head] = attrs
            self._head = (head + 1) % self.capacity
            self.dropped += 1
        if etype in DUMP_TRIGGERS and self.dump_path is not None:
            self._autodump()

    # -- inspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def _oldest_first(self):
        """(row, attrs) pairs in emission (sim-time / seq) order."""
        head = self._head
        rows, attrs = self._rows, self._attrs
        return zip(rows[head:] + rows[:head], attrs[head:] + attrs[:head])

    def events(self) -> list:
        """Recorded events, oldest first (built on demand)."""
        return [ProtoEvent(*row, attrs)
                for row, attrs in self._oldest_first()]

    def to_dicts(self) -> list:
        """Events as JSON-ready dicts, oldest first."""
        return [_event_dict(row, attrs)
                for row, attrs in self._oldest_first()]

    def clear(self) -> None:
        self._rows = []
        self._attrs = []
        self._head = 0

    # -- dumping ------------------------------------------------------
    def _autodump(self) -> None:
        """Write the full ring to ``dump_path`` (fault/violation hook)."""
        from repro.obs.export import export_jsonl

        export_jsonl(self, self.dump_path)
        self.autodumps += 1


class NullRecorder:
    """Inactive recorder: every operation is a no-op.

    ``active`` is False so emission sites skip argument packing; code
    that emits unconditionally still works and pays only the call.
    """

    active = False

    def bind(self, sim) -> "NullRecorder":
        return self

    @property
    def sim(self):
        return None

    capacity = 0
    dump_path = None
    dropped = 0
    autodumps = 0

    def emit(self, etype, node="", key="", **attrs) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def events(self) -> list:
        return []

    def to_dicts(self) -> list:
        return []

    def clear(self) -> None:
        return None


#: Shared inactive recorder; the default for every Simulator.
NULL_RECORDER = NullRecorder()
