"""Static analysis enforcing the reproduction's determinism contract.

Every figure in this repo rests on one guarantee: a seeded run of the
discrete-event simulator is bit-for-bit deterministic.  This package is
the mechanical check of that guarantee — an AST-based, plugin-style rule
engine with two rule families, each kept because it flags a recorded
defect in ``tests/analysis/corpus``:

- **DET*** — determinism: no ambient randomness or wall-clock reads, no
  iteration over hash-ordered sets into order-sensitive paths, no
  ``id()``-derived ordering, no id counter outside the run's;
- **ATM*/INT*** — atomicity: no stale snapshot, torn write or
  interrupt-unsafe mutation across a yield point.

Run it with ``python -m repro.analysis src/repro`` (or the
``repro-analyze`` console script); waive a finding inline with
``# noqa: RULEID`` or accept it in ``analysis-baseline.json``.
"""

from repro.analysis.engine import (
    AnalysisReport,
    Analyzer,
    Baseline,
    Finding,
    ModuleInfo,
    ProjectRule,
    Rule,
    all_rules,
    register,
)

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "Baseline",
    "Finding",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "all_rules",
    "register",
]
