"""The planted-defect corpus: what the analyzer reports on each recorded
defect, and which rule families that record keeps.

Each fixture under ``corpus/`` is cut from ``git show <fix>~1:<path>``:
the pre-fix code of one defect this repository diagnosed and fixed.  The
lines its fix changed carry a ``# defect`` comment.  ``ENTRIES`` pins the
exact set of rule ids the analyzer reports on each; an empty set is a
result too (the analyzer missed that defect).  A rule family stays in
the analyzer only while one of its rules flags a corpus defect.
"""

from pathlib import Path

import pytest

from repro.analysis import Analyzer, all_rules

CORPUS = Path(__file__).parent / "corpus"

#: fixture -> (fix commit, rule ids the analyzer reports on the fixture)
ENTRIES = {
    # Old ROADMAP item 1's six defects.
    "core/estate_home_local.py": ("88f5ca7", set()),
    "core/read_grant_version.py": ("4a32ed7", set()),
    "core/barrier_under_lock.py": ("c2073f6", set()),
    "net/request_id_reuse.py": ("27bc0c9", {"DET04"}),
    "core/interrupted_grant.py": ("f188f35", set()),
    "core/ejected_ring_first.py": ("5046a29", set()),
    # What the analyzer found when it landed (PRs 1 and 6).
    "txn/set_iteration_order.py": ("8fa75c5", {"DET02"}),
    "experiments/id_dedup.py": ("8fa75c5", {"DET03"}),
    "net/inflight_leak.py": ("909923c", {"ATM02", "INT01"}),
    "apta/cache_before_storage.py": ("909923c", {"INT01"}),
    # The races the runtime checker caught when fault injection landed.
    "fault_injection_races.py": ("f6efef7", {"ATM01", "ATM02", "INT01"}),
}

#: The families of DESIGN.md §6 and §11, by rule-id prefix.
FAMILIES = {
    "determinism": ("DET",),
    "atomicity": ("ATM", "INT"),
}


def _report(fixture: str):
    return Analyzer().run([CORPUS / fixture])


@pytest.mark.parametrize("fixture", sorted(ENTRIES))
def test_entry_reports_its_pinned_rules(fixture):
    report = _report(fixture)
    assert not report.parse_errors, report.parse_errors
    assert {f.rule for f in report.findings} == ENTRIES[fixture][1]


@pytest.mark.parametrize("fixture", sorted(ENTRIES))
def test_findings_land_on_the_defect(fixture):
    lines = (CORPUS / fixture).read_text().splitlines()
    for finding in _report(fixture).findings:
        assert "# defect" in lines[finding.line - 1], (
            f"{finding.rule} flags line {finding.line}, not a defect line")


def test_every_fixture_is_pinned():
    on_disk = {path.relative_to(CORPUS).as_posix()
               for path in CORPUS.rglob("*.py")}
    assert on_disk == set(ENTRIES)


def test_every_family_flags_a_defect():
    flagged = set().union(*(rules for _fix, rules in ENTRIES.values()))
    for family, prefixes in FAMILIES.items():
        assert any(rule.startswith(prefixes) for rule in flagged), family


def test_every_rule_belongs_to_a_family_with_a_record():
    prefixes = tuple(p for group in FAMILIES.values() for p in group)
    assert all(rule_id.startswith(prefixes) for rule_id in all_rules())
