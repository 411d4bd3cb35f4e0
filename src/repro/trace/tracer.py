"""Deterministic causal tracing clocked off the simulated clock.

A :class:`Tracer` collects :class:`Span` records describing what one
logical operation did — agent op, invalidation fan-out, storage round
trip — as a tree linked by ``(trace_id, span_id, parent_id)``.  The
tracer records intervals only: a point transition (a directory change, a
recovery step, an injected fault) is a flight-recorder event
(:mod:`repro.obs.events`), which carries the ambient span id.  The
design constraints mirror the repository's analysis rules:

* **Simulated time only** (DET01): spans are stamped with ``sim.now``;
  the tracer never reads a wall clock.
* **Deterministic identity** (DET03): trace/span ids come from the run's
  ``sim.ids`` counters, never ``id()`` or hashes, so two identically-seeded
  runs produce byte-identical exports regardless of ``PYTHONHASHSEED``.
* **Zero-cost no-op mode**: an unconfigured simulator carries the shared
  :data:`NULL_TRACER` whose ``active`` flag lets hot paths skip span
  construction entirely.

Context propagation is ambient: every :class:`~repro.sim.process.Process`
carries a ``trace_ctx`` slot, inherited from its spawner and updated as
spans open and close, so generator-based protocol code rarely needs to
thread contexts by hand.  RPC boundaries carry the context explicitly in
``Message.trace``; passing ``trace=INHERIT`` at a call site (the default)
says "attach to whatever operation this process is serving".

**Storage layout.**  A long traced run finishes hundreds of thousands of
spans; what each one costs while the run goes on is what bounds the run.
A :class:`Span` object exists only while its span is open, and
:meth:`Tracer.span` fills its slots without an ``__init__`` frame.
Ending it files one row of atomics — ``(trace_id, span_id, parent_id,
name, category, start_ms, end_ms, tid)`` — and the attrs dict with the
tracer's :class:`~repro.packedlog.PackedLog`, in closure order.  The log
copies both into flat lists (the rows end to end, the attrs' keys and
values end to end, one attr count per span), so a finished span keeps no
tuple or dict of its own alive, and every ``packedlog.BATCH`` records
replaces them by one ``marshal.dumps`` blob: ~70 bytes a span instead of
the ~380 of a live tuple and dict, and one object per 4096 spans for the
allocator and the cyclic collector to know about.  ``spans``,
``to_dicts()`` and the exporters unpack one batch at a time.

* *Why flat lists, not a tuple and a dict per span.*  CPython counts a
  GC-capable object towards the next young collection from its
  allocation until it is freed, tracked or not: staging a row tuple and
  the attrs dict per span until the batch is packed triggered a young
  collection every ~350 records (DESIGN.md §7).  Copied into flat lists,
  both are freed as soon as they are filed.
* *Why batches.*  Packing per record would pay ``dumps``' fixed cost and
  lose its back-references 4096 times over; one blob per run would
  double the peak while it is built.  The hot path (``Span.end``) gains
  a width check and one length check.
* *Why* ``marshal`` *and not typed columns.*  ``array`` columns plus a
  table of attr shapes reach the same bytes per span but have to take
  every row apart in Python — 1.1 µs a row fully vectorised against
  0.4 µs for ``dumps`` on the host where both were prototyped (ISSUE 24;
  ``dumps`` measures 0.6–0.85 µs here, EXPERIMENTS.md "Packed signal
  logs") — for five times the code.
  ``marshal`` writes str/int/float/bool/None and lists / dicts of them
  exactly, and a 5-byte reference for an object it has already written,
  which is why names are ``sys.intern``-ed below and the per-method,
  per-app and per-function span names come from :class:`SpanNames`:
  one object per distinct name, not one string per span.
* *What falls back.*  A batch with an attr ``marshal`` refuses stays in
  the log as the lists it was.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left
from typing import NamedTuple, Optional

from repro.packedlog import PackedLog


class TraceContext(NamedTuple):
    """Position inside one span tree, carried across process boundaries."""

    trace_id: int
    span_id: int


#: ``TraceContext(a, b)`` runs the NamedTuple's Python-level ``__new__``;
#: :meth:`Tracer.span` (once per span) goes to the C constructor.
_tuple_new = tuple.__new__
#: Allocates a :class:`Span` with no ``__init__`` frame.
_new_span = object.__new__


class SpanNames(dict):
    """``key -> sys.intern(prefix + key)``, each name built once.

    For span sites named per RPC method, app or function (closed sets):
    a hit is one C dict lookup where an f-string would build and intern
    a new string per span.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key: str) -> str:
        name = self[key] = sys.intern(self.prefix + key)
        return name


class _Inherit:
    """Sentinel: resolve the parent from the current process context."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "INHERIT"


#: Pass as ``parent=``/``trace=`` to propagate the ambient TraceContext.
INHERIT = _Inherit()


class Span:
    """One timed node of a trace tree.  Usable as a context manager.

    Live while the span is open: ending it files the row with the tracer
    and drops the references (tracer, process, previous context) that
    would otherwise keep the process that opened it reachable.

    :meth:`Tracer.span` fills the slots itself, so opening a span runs
    no ``__init__`` frame; ``context`` — this span's position, as handed
    to children and RPC messages — is the one home of its trace and
    span ids.
    """

    __slots__ = ("context", "parent_id", "name", "category", "start_ms",
                 "end_ms", "attrs", "tid", "_tracer", "_process",
                 "_prev_ctx")

    @property
    def trace_id(self) -> int:
        return self.context[0]

    @property
    def span_id(self) -> int:
        return self.context[1]

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        return end - self.start_ms

    def set(self, key: str, value) -> "Span":
        """Attach/overwrite one attribute (e.g. ``status`` on timeout)."""
        self.attrs[key] = value
        return self

    def end(self) -> None:
        """Close the span at ``sim.now``; a second call is a no-op."""
        tracer = self._tracer
        if tracer is None:
            return
        self._tracer = None
        trace_id, span_id = self.context
        end_ms = self.end_ms = tracer._sim.now
        del tracer._open[span_id]
        tracer._log.append((trace_id, span_id, self.parent_id, self.name,
                            self.category, self.start_ms, end_ms, self.tid),
                           self.attrs)
        # Restore the context on whichever process opened the span, but
        # only if that span is still its current context (spans closed
        # out of order keep whatever the inner code installed).
        process = self._process
        if process is not None:
            holder_ctx = process.trace_ctx
            if holder_ctx is not None and holder_ctx[1] == span_id:
                process.trace_ctx = self._prev_ctx
            self._process = None
        else:
            holder_ctx = tracer._ambient
            if holder_ctx is not None and holder_ctx[1] == span_id:
                tracer._ambient = self._prev_ctx
        self._prev_ctx = None

    def to_dict(self) -> dict:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        trace_id, span_id = self.context
        return _span_dict((trace_id, span_id, self.parent_id, self.name,
                           self.category, self.start_ms, end, self.tid),
                          self.attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_ms is None else f"{self.duration_ms:.3f}ms"
        return (f"Span({self.category}:{self.name} "
                f"t{self.trace_id}/s{self.span_id} {state})")


def _span_dict(row: tuple, attrs: dict) -> dict:
    """The JSON-ready export record of one finished-span row."""
    (trace_id, span_id, parent_id, name, category, start_ms, end_ms,
     tid) = row
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "category": category,
        "start_ms": start_ms,
        "end_ms": end_ms,
        "duration_ms": end_ms - start_ms,
        "attrs": attrs,
        "tid": tid,
    }


def _finished_span(row: tuple, attrs: dict) -> Span:
    """A closed :class:`Span` view of one finished-span row."""
    span = _new_span(Span)
    (trace_id, span_id, span.parent_id, span.name, span.category,
     span.start_ms, span.end_ms, span.tid) = row
    span.context = _tuple_new(TraceContext, (trace_id, span_id))
    span.attrs = attrs
    span._tracer = span._process = span._prev_ctx = None
    return span


def _pair_span_id(pair: tuple) -> int:
    """Sort key of a ``(row, attrs)`` pair: the row's span id."""
    return pair[0][1]


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()
    context = None

    def set(self, key, value):
        return self

    def end(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Per-run span collector bound to one :class:`Simulator`.

    Spans are handed out by :meth:`span` (context manager) and recorded
    in *closure* order once ended; only completed spans are exported.
    ``open_spans()`` exposes whatever is still running — a drained
    simulation must leave it empty.
    """

    active = True

    def __init__(self):
        self._sim = None
        # Finished spans, closure order (see "Storage layout" above).
        self._log = PackedLog()
        # span id -> Span not yet ended, in opening order.
        self._open: dict = {}
        # Chrome-export lanes, numbered by first use so the numbering is
        # deterministic.  A process carries its lane in its own
        # ``trace_lane`` slot (a Process-keyed table here would keep
        # every finished process of the run alive); code outside any
        # process shares the "driver" lane.
        self._lane_names: dict = {}
        self._driver_lane: Optional[int] = None
        # Context for code running outside any sim process.
        self._ambient: Optional[TraceContext] = None

    # -- wiring -------------------------------------------------------

    def bind(self, sim) -> "Tracer":
        if self._sim is not None and self._sim is not sim:
            raise ValueError("Tracer is already bound to another Simulator")
        self._sim = sim
        self._trace_ids = sim.ids("trace")
        self._span_ids = sim.ids("span")
        return self

    @property
    def sim(self):
        return self._sim

    # -- context handling ---------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """The TraceContext of the running process (or ambient code)."""
        process = self._sim.active_process if self._sim is not None else None
        if process is not None:
            return process.trace_ctx
        return self._ambient

    def resolve(self, parent) -> Optional[TraceContext]:
        """Normalize a ``parent=``/``trace=`` argument to a context."""
        if parent is INHERIT:
            return self.current()
        if parent is None or isinstance(parent, TraceContext):
            return parent
        if isinstance(parent, Span):
            return parent.context
        raise TypeError(f"not a trace parent: {parent!r}")

    def _new_lane(self, process) -> int:
        """Number the next lane for ``process`` (None: the driver)."""
        lane = len(self._lane_names)
        if process is None:
            self._driver_lane = lane
            self._lane_names[lane] = "driver"
        else:
            process.trace_lane = lane
            self._lane_names[lane] = process.name or f"process-{lane}"
        return lane

    # -- span lifecycle -----------------------------------------------

    def span(self, name: str, category: str = "span",
             parent=INHERIT, **attrs) -> Span:
        """Open a span; it becomes the current context until ended."""
        sim = self._sim
        if sim is None:
            raise RuntimeError("Tracer.span() before bind(): attach the "
                               "tracer via Simulator(tracer=...)")
        process = sim.active_process
        current = process.trace_ctx if process is not None else self._ambient
        if parent is INHERIT:
            parent_ctx = current
        elif parent is None:
            parent_ctx = None
        else:
            parent_ctx = self.resolve(parent)
        if parent_ctx is None:
            trace_id = next(self._trace_ids)
            parent_id = None
        else:
            trace_id, parent_id = parent_ctx
        span_id = next(self._span_ids)
        context = _tuple_new(TraceContext, (trace_id, span_id))
        if process is not None:
            process.trace_ctx = context
            lane = process.trace_lane
        else:
            self._ambient = context
            lane = self._driver_lane
        if lane is None:
            lane = self._new_lane(process)
        span = _new_span(Span)
        span.context = context
        span.parent_id = parent_id
        # Retain one copy per distinct name, not one per span.
        span.name = sys.intern(name)
        span.category = category
        span.start_ms = sim.now
        span.end_ms = None
        span.attrs = attrs
        span.tid = lane
        span._tracer = self
        span._process = process
        span._prev_ctx = current
        self._open[span_id] = span
        return span

    # -- inspection / export ------------------------------------------

    @property
    def spans(self) -> list:
        """Completed spans, in the order they ended (built on demand)."""
        return [_finished_span(row, attrs) for row, attrs in self._log]

    def open_spans(self) -> list:
        """Spans begun but not yet ended (should drain to empty)."""
        return list(self._open.values())

    def lane_names(self) -> dict:
        """Chrome-export lane id -> human-readable process name."""
        return dict(self._lane_names)

    def iter_dicts(self):
        """Completed spans as JSON-ready dicts, sorted by span id.

        Spans are filed as they end and exported as they began.  A span
        can be emitted once no later batch of the log holds a smaller id,
        so only the spans that ended out of order wait in memory, not the
        run.
        """
        lowest = [min(row[1] for row in rows)
                  for rows, _ in self._log.batches()]
        # floors[i]: the smallest span id in any batch after batch i.
        floors = list(itertools.accumulate(
            reversed(lowest[1:] + [float("inf")]), min))[::-1]
        waiting: list = []
        for (rows, attrs), floor in zip(self._log.batches(), floors):
            waiting.extend(zip(rows, attrs))
            waiting.sort(key=_pair_span_id)
            ready = bisect_left(waiting, floor, key=_pair_span_id)
            for row, row_attrs in waiting[:ready]:
                yield _span_dict(row, row_attrs)
            del waiting[:ready]

    def to_dicts(self) -> list:
        """:meth:`iter_dicts` as a list."""
        return list(self.iter_dicts())


class NullTracer:
    """Inactive tracer: every operation is a no-op.

    ``active`` is False so hot paths can skip attribute packing; code
    that opens spans unconditionally still works and pays only a couple
    of attribute lookups.
    """

    active = False
    #: Read by :meth:`FlightRecorder.emit
    #: <repro.obs.recorder.FlightRecorder.emit>` as a tracer's context
    #: outside any process: there is none.
    _ambient = None

    def bind(self, sim) -> "NullTracer":
        return self

    @property
    def sim(self):
        return None

    def current(self) -> Optional[TraceContext]:
        return None

    def resolve(self, parent) -> Optional[TraceContext]:
        return None

    def span(self, name, category="span", parent=INHERIT, **attrs):
        return NULL_SPAN

    @property
    def spans(self) -> list:
        return []

    def open_spans(self) -> list:
        return []

    def lane_names(self) -> dict:
        return {}

    def iter_dicts(self):
        return iter(())

    def to_dicts(self) -> list:
        return []


#: Shared inactive tracer; the default for every Simulator.
NULL_TRACER = NullTracer()
