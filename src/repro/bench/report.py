"""Versioned BENCH_*.json reports and the simulated-counter gate.

A bench report records, per benchmark job, the **simulated counters**
its target returned (``simulated_ms``, ``requests_completed``,
``simulated_rps``, ...).  They are seeded and deterministic, so *any*
drift against the committed baseline is a behavior change and fails the
gate.  A report carries no wall-clock time, timestamp or interpreter
version: it is a pure function of the code and the seed, and two runs of
the same tree write byte-identical files.  Host-clock numbers belong to
``perfbench/``.

``BENCH_baseline.json`` at the repo root is the committed reference.
Updating it is a deliberate act: rerun ``repro-bench run --out
BENCH_baseline.json`` and commit the diff, explaining any
simulated-counter movement in the commit message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.bench.job import JobResult

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "Comparison",
    "build_report",
    "compare_reports",
    "load_report",
    "render_comparison",
    "write_report",
]

BENCH_SCHEMA_VERSION = 3

#: Finding severities.
SEV_ERROR = "error"
SEV_INFO = "info"


# ---------------------------------------------------------------------------
# Report assembly and I/O
# ---------------------------------------------------------------------------
def build_report(
    results: Iterable[JobResult],
    seed: Optional[int] = None,
) -> dict:
    """Assemble the versioned report dict from settled job results."""
    benchmarks: dict = {}
    failures: dict = {}
    for result in results:
        if not result.ok:
            failures[result.name] = {
                "status": result.status,
                "error": result.error,
                "attempts": result.attempts,
            }
            continue
        benchmarks[result.name] = (
            dict(result.value) if isinstance(result.value, dict)
            else {"value": result.value})
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmarks": benchmarks,
    }
    if seed is not None:
        report["seed"] = seed
    if failures:
        report["failures"] = failures
    return report


def write_report(report: dict, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: Union[str, Path]) -> dict:
    """Load a BENCH_*.json written by this schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if not isinstance(report, dict) or "benchmarks" not in report:
        raise ValueError(f"{path}: not a bench report (no 'benchmarks')")
    version = report.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema version {version!r}, this build reads "
            f"only {BENCH_SCHEMA_VERSION}; re-run `repro-bench run` to "
            "regenerate it")
    return report


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One difference the gate noticed."""

    benchmark: str
    kind: str          # counter-drift | missing-benchmark | job-failed | ...
    severity: str      # error | info
    detail: str

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "kind": self.kind,
                "severity": self.severity, "detail": self.detail}


@dataclass
class Comparison:
    """Outcome of comparing a current report against a baseline."""

    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    def exit_code(self) -> int:
        """0 = clean; 1 = counter drift, a missing benchmark or a failed
        job."""
        return 1 if self.errors else 0

    def to_dict(self) -> dict:
        return {"findings": [f.to_dict() for f in self.findings]}


def compare_reports(current: dict, baseline: dict) -> Comparison:
    """Diff two reports: every benchmark key must match exactly."""
    comparison = Comparison()
    current_benchmarks = current.get("benchmarks", {})
    baseline_benchmarks = baseline.get("benchmarks", {})

    for name, failure in sorted(current.get("failures", {}).items()):
        comparison.findings.append(Finding(
            benchmark=name, kind="job-failed", severity=SEV_ERROR,
            detail=f"{failure.get('status')}: {failure.get('error')}"))

    for name in sorted(baseline_benchmarks):
        if name not in current_benchmarks:
            if name not in current.get("failures", {}):
                comparison.findings.append(Finding(
                    benchmark=name, kind="missing-benchmark",
                    severity=SEV_ERROR,
                    detail="present in baseline, absent from current run"))
            continue
        _compare_benchmark(comparison, name, current_benchmarks[name],
                           baseline_benchmarks[name])

    for name in sorted(current_benchmarks):
        if name not in baseline_benchmarks:
            comparison.findings.append(Finding(
                benchmark=name, kind="new-benchmark", severity=SEV_INFO,
                detail="not in baseline yet; rerun the baseline to adopt"))
    return comparison


def _compare_benchmark(comparison: Comparison, name: str, current: dict,
                       baseline: dict) -> None:
    # Simulated counters: exact equality or it's a behavior change.
    for key in sorted(set(current) | set(baseline)):
        if key not in current:
            comparison.findings.append(Finding(
                benchmark=name, kind="counter-drift", severity=SEV_ERROR,
                detail=f"{key}: {baseline[key]!r} -> (missing)"))
        elif key not in baseline:
            comparison.findings.append(Finding(
                benchmark=name, kind="counter-drift", severity=SEV_ERROR,
                detail=f"{key}: (missing) -> {current[key]!r}"))
        elif current[key] != baseline[key]:
            comparison.findings.append(Finding(
                benchmark=name, kind="counter-drift", severity=SEV_ERROR,
                detail=(f"{key}: {baseline[key]!r} -> {current[key]!r} "
                        "(simulated counters must not move — this is a "
                        "behavior change, not a speedup)")))


def render_comparison(comparison: Comparison) -> str:
    """Human-readable gate verdict."""
    lines = []
    if not comparison.findings:
        lines.append("bench gate: clean (no counter drift)")
    for finding in comparison.findings:
        lines.append(f"[{finding.severity.upper():5s}] "
                     f"{finding.benchmark}: {finding.kind}: "
                     f"{finding.detail}")
    lines.append(f"bench gate: {len(comparison.errors)} error(s)")
    return "\n".join(lines)
