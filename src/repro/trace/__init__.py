"""Deterministic causal tracing for the Concord reproduction.

Public surface::

    from repro.trace import Tracer, INHERIT

    tracer = Tracer()
    sim = Simulator(seed=42, tracer=tracer)
    ...
    export_chrome(tracer, "out.json")     # Perfetto-loadable

See :mod:`repro.trace.tracer` for the span model and the determinism
contract, and ``repro-inspect breakdown`` (:mod:`repro.trace.summary`)
for turning an export back into a Fig. 1-style latency breakdown.  The
exporters load on first use; importing the package loads only the
tracer.
"""

from repro import lazy_exports
from repro.trace.tracer import (
    INHERIT,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Step,
    TraceContext,
    Tracer,
)

__getattr__ = lazy_exports(__name__, {
    "export": ("chrome_dumps", "export_chrome", "load_trace", "loads_trace"),
})

__all__ = [
    "INHERIT",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Step",
    "TraceContext",
    "Tracer",
    "chrome_dumps",
    "export_chrome",
    "load_trace",
    "loads_trace",
]
