"""Each rule fires on its known-bad fixture at the expected location."""

from pathlib import Path

import pytest

import repro.sim
from repro.analysis import Analyzer

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = Path(__file__).parent / "corpus"


def run_on(filename: str, select=None):
    analyzer = Analyzer(select=select)
    return analyzer.run([FIXTURES / filename])


def keys(report):
    return {(f.rule, f.line) for f in report.findings}


class TestDeterminismRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer().run([FIXTURES / "bad_determinism.py"])

    def test_banned_import_and_call(self, report):
        assert ("DET01", 2) in keys(report)   # import time
        assert ("DET01", 7) in keys(report)   # random.random()

    def test_plain_random_import_alone_not_flagged(self, report):
        # Only *uses* of the global generator are banned; a module may
        # import random to construct seeded random.Random instances.
        assert ("DET01", 3) not in keys(report)

    def test_set_iteration_flagged(self, report):
        assert ("DET02", 11) in keys(report)

    def test_sorted_iteration_clean(self, report):
        assert not any(f.rule == "DET02" and f.symbol == "fanout_sorted"
                       for f in report.findings)

    def test_id_call_flagged(self, report):
        assert ("DET03", 21) in keys(report)

    def test_inline_waiver_suppresses(self, report):
        assert report.waived == 1
        assert not any(f.symbol == "waived_fanout" for f in report.findings)

    def test_sorted_rebinding_kills_setness(self, report):
        # members = sorted(members) makes the name a list; iterating it
        # afterwards is deterministic and must not be flagged.
        assert not any(f.rule == "DET02"
                       and f.symbol == "fanout_rebound_sorted"
                       for f in report.findings)

    def test_setness_is_position_aware(self, report):
        # Before the sorted() rebinding the name is still a set (line
        # 41, flagged); after it, a list (line 44, clean).
        assert ("DET02", 41) in keys(report)
        assert not any(f.rule == "DET02" and f.line == 44
                       for f in report.findings)


class TestPrivateIdCounterRule:
    def test_count_import_and_call_flagged(self):
        report = run_on("bad_ids.py", select=["DET04"])
        # The count import and the class-level counter; neither the plain
        # itertools import nor other itertools calls.
        assert keys(report) == {("DET04", 3), ("DET04", 7)}

    def test_the_kernel_owns_the_counters(self):
        kernel = Path(repro.sim.__file__).parent
        report = Analyzer(select=["DET04"]).run([kernel])
        assert report.files >= 5 and not report.findings


class TestAtomicityRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer(select=["ATM01", "ATM02", "INT01"]).run(
            [CORPUS / "fault_injection_races.py"])

    def test_planted_races_and_nothing_else(self, report):
        # The three pre-fix protocol races, each caught by its rule; the
        # *_fixed twins contribute nothing.
        assert keys(report) == {
            ("ATM01", 25),   # stale entry.state guard after lock wait
            ("INT01", 27),   # cache fields mutated before storage commit
            ("ATM01", 50),   # stale snapshot decides the install
            ("INT01", 65),   # directory owner set before storage write
            ("ATM02", 67),   # entry torn across the storage suspension
        }

    def test_stale_guard_race(self, report):
        found = [f for f in report.findings
                 if f.rule == "ATM01"
                 and f.symbol == "RacyAgent.write_direct"]
        assert found and "entry" in found[0].message

    def test_torn_directory_update(self, report):
        found = [f for f in report.findings
                 if f.rule == "ATM02"
                 and f.symbol == "RacyAgent.home_write"]
        assert found and "suspension" in found[0].message

    def test_fixed_versions_clean(self, report):
        assert not any(f.symbol.endswith("_fixed")
                       for f in report.findings)


def test_select_restricts_rules():
    report = run_on("bad_determinism.py", select=["DET02"])
    assert {f.rule for f in report.findings} == {"DET02"}


def test_unknown_select_rejected():
    with pytest.raises(ValueError):
        Analyzer(select=["NOPE99"])
