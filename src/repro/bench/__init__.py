"""repro.bench — parallel experiment orchestration and the counter gate.

Three jobs and no more: the sweep executor ``run_all`` runs the figures
on, exact simulated-counter reports, and the gate that compares them to
a committed baseline.  Host-clock measurement belongs to ``perfbench/``.

The pieces, bottom-up:

- :mod:`repro.bench.job` — frozen, picklable :class:`JobSpec` (callable
  reference + JSON-canonical args + seed) with a canonical fingerprint,
  and the :class:`JobResult` it settles into.
- :mod:`repro.bench.executor` — :func:`run_jobs`: spawn-context process
  pool with deterministic result ordering, per-job timeout/retry, and
  crash isolation.
- :mod:`repro.bench.journal` — JSONL checkpoint keyed by fingerprint;
  interrupted sweeps resume by skipping completed jobs.
- :mod:`repro.bench.report` — versioned ``BENCH_*.json`` schema
  (counters only, byte-identical across runs) and the exact-equality
  counter gate.
- :mod:`repro.bench.suite` — named job suites (``tier1`` is the CI
  gate).  Imported lazily by the CLI so ``repro.bench`` itself stays
  cheap to import inside spawn workers.

CLI: ``repro-bench run|compare|schemes`` (also
``python -m repro.bench``).
"""

from repro.bench.executor import run_jobs
from repro.bench.job import (
    BenchJobError,
    JobResult,
    JobSpec,
    canonical_json,
    resolve_target,
)
from repro.bench.journal import Journal
from repro.bench.report import (
    BENCH_SCHEMA_VERSION,
    Comparison,
    build_report,
    compare_reports,
    load_report,
    render_comparison,
    write_report,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchJobError",
    "Comparison",
    "Journal",
    "JobResult",
    "JobSpec",
    "build_report",
    "canonical_json",
    "compare_reports",
    "load_report",
    "render_comparison",
    "resolve_target",
    "run_jobs",
    "write_report",
]
