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


class TestProtocolRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer().run([FIXTURES / "bad_protocol.py"])

    def test_unregistered_method_flagged(self, report):
        found = [f for f in report.findings
                 if f.rule == "PRO01" and "missing_method" in f.message]
        assert found and found[0].line == 17
        assert found[0].severity == "error"

    def test_dead_handler_warned(self, report):
        found = [f for f in report.findings
                 if f.rule == "PRO01" and "never called" in f.message]
        assert found and found[0].severity == "warning"

    def test_unresolved_handler_reference(self, report):
        assert any(f.rule == "PRO01" and "_handle_ghost" in f.message
                   for f in report.findings)

    def test_unresolved_handler_factory(self, tmp_path):
        # A handler made by a factory call resolves through the factory.
        path = tmp_path / "factory_agent.py"
        path.write_text(
            "class A:\n"
            "    def __init__(self, endpoint):\n"
            "        handlers = {'read': self._make('read'),\n"
            "                    'write': self._missing('write')}\n"
            "        for method, handler in handlers.items():\n"
            "            endpoint.register_handler(method, handler)\n"
            "\n"
            "    def _make(self, op):\n"
            "        return None\n")
        report = Analyzer(select=["PRO01"]).run([path])
        unresolved = [f.message for f in report.findings
                      if "does not define" in f.message]
        assert len(unresolved) == 1 and "self._missing" in unresolved[0]

    def test_registered_and_called_method_clean(self, report):
        # "orphan" is registered and invoked: no surface-match finding.
        assert not any(f.rule == "PRO01" and "'orphan'" in f.message
                       for f in report.findings)

    def test_call_without_timeout_flagged(self, report):
        assert ("PRO02", 23) in keys(report)

    def test_call_with_timeout_clean(self, report):
        assert not any(f.rule == "PRO02" and f.symbol == "BadAgent.ask"
                       for f in report.findings)

    def test_lock_unprotected_yield(self, report):
        found = [f for f in report.findings
                 if f.rule == "PRO03" and f.symbol == "BadAgent.leaky"]
        assert found and found[0].line == 27
        assert "yield" in found[0].message

    def test_lock_never_released(self, report):
        assert any(f.rule == "PRO03"
                   and f.symbol == "BadAgent.never_releases"
                   for f in report.findings)

    def test_try_finally_discipline_clean(self, report):
        assert not any(f.symbol == "BadAgent.disciplined"
                       for f in report.findings)

    def test_release_in_else_of_nested_try_flagged(self, report):
        # The release sits in the else: of a try nested inside the
        # finally — the handler path leaks the lock.  Regression for the
        # containment-based scan that accepted this.
        found = [f for f in report.findings
                 if f.rule == "PRO03"
                 and f.symbol == "BadAgent.sneaky_else_release"]
        assert found and "yield" in found[0].message

    def test_conditional_release_in_finally_clean(self, report):
        assert not any(f.rule == "PRO03"
                       and f.symbol == "BadAgent.escalated_conditional"
                       for f in report.findings)

    def test_acquire_wait_is_an_acquire_to_the_lock_rule(self, report):
        found = [f for f in report.findings
                 if f.rule == "PRO03" and f.symbol == "BadAgent.leaky_wait"]
        assert found and found[0].line == 79
        assert "acquire_wait()" in found[0].message

    def test_cancel_guard_covers_the_wait_not_what_follows(self, report):
        # grant = lock.acquire_wait(); yield grant — the kernel withdraws
        # an interrupted wait, so the yield is clean even inside somebody
        # else's try/finally, but the lock is held after it.
        assert not any(f.rule == "PRO03"
                       and f.symbol == "BadAgent.guarded_wait"
                       for f in report.findings)
        found = [f for f in report.findings
                 if f.rule == "PRO03"
                 and f.symbol == "BadAgent.guarded_but_leaky"]
        assert found and found[0].line == 97 and "99" in found[0].message

    def test_assigned_grant_clean(self, report):
        # grant = lock.acquire(); yield grant — the yield completes the
        # acquire, it does not escape with the lock held.
        assert not any(f.rule == "PRO03"
                       and f.symbol == "BadAgent.grant_assigned"
                       for f in report.findings)

    def test_repo_acquire_wait_sites_are_visible_and_clean(self):
        # Every acquire_wait() in the tree is seen by the lock rule (it
        # used to look for acquire() only) and passes it.
        import ast

        import repro.core.agent
        import repro.faas.context
        import repro.net.rpc
        from repro.analysis.cfg import find_acquires

        files = [module.__file__ for module in (
            repro.core.agent, repro.faas.context, repro.net.rpc)]
        seen = 0
        for path in files:
            with open(path) as handle:
                tree = ast.parse(handle.read())
            seen += sum(len(find_acquires(node)) for node in ast.walk(tree)
                        if isinstance(node, ast.stmt))
        assert seen == 4 + 1 + 2
        report = Analyzer(select=["PRO03"]).run(files)
        assert not report.findings  # (one deliberate hand-off is waived)


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
