"""Tier-1 gate: the shipped tree passes its own static analysis.

This is the CI wiring of the determinism contract — any new ambient
randomness, unordered set iteration, private id counter or yield-point
race in ``src/repro`` fails the default pytest run, warnings included.
Waive deliberate exceptions inline with ``# noqa: RULEID`` or accept
them in ``analysis-baseline.json`` at the repo root.
"""

from pathlib import Path

from repro.analysis import Analyzer, Baseline
from repro.analysis.cli import BASELINE_NAME
from repro.analysis.engine import BASELINE_FIXME_REASON

REPO_ROOT = Path(__file__).resolve().parents[2]
SOURCE_TREE = REPO_ROOT / "src" / "repro"


def _baseline() -> Baseline:
    path = REPO_ROOT / BASELINE_NAME
    return Baseline.load(path) if path.exists() else Baseline()


def test_source_tree_is_clean():
    report = Analyzer(baseline=_baseline()).run([SOURCE_TREE])
    assert report.files > 80, "analyzer saw suspiciously few files"
    assert not report.parse_errors, report.parse_errors
    rendered = "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in report.findings)
    assert not report.findings, f"static analysis findings:\n{rendered}"


def test_analysis_package_itself_is_analyzed():
    report = Analyzer().run([SOURCE_TREE / "analysis"])
    assert report.files >= 8
    assert not report.findings


def test_baseline_entries_carry_rationale():
    """Every accepted finding must say *why* it is acceptable.

    The waiver policy (DESIGN.md): a baseline entry without a written
    one-line justification is indistinguishable from a rubber-stamped
    bug, so the FIXME placeholder ``--write-baseline`` emits for new
    entries must never be committed.
    """
    path = REPO_ROOT / BASELINE_NAME
    assert path.exists(), "analysis-baseline.json missing at repo root"
    baseline = Baseline.load(path)
    for key, reason in sorted(baseline.entries.items()):
        assert reason and reason.strip(), f"empty rationale for {key}"
        assert reason != BASELINE_FIXME_REASON, (
            f"unjustified suppression {key}: replace the FIXME with a "
            "one-line reason why this finding is acceptable")
