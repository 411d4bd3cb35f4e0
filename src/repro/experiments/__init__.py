"""Experiment harness: one module per paper table/figure.

Every module exposes a ``run(scale=1.0)`` entry point returning a result
object with a ``rows()`` method (list of dicts) and a ``render()`` method
(ASCII table matching the paper's presentation).  The benchmarks in
``benchmarks/`` call these entry points; ``scale`` shrinks durations and
request counts for quick runs.
"""

from repro.experiments.runner import (
    LOAD_LEVELS,
    MixedRunResult,
    run_mixed_workload,
    unloaded_latency,
)
from repro.experiments.tables import render_table

__all__ = [
    "LOAD_LEVELS",
    "MixedRunResult",
    "render_table",
    "run_mixed_workload",
    "unloaded_latency",
]
