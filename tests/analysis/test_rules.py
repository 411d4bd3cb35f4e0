"""Each rule fires on its known-bad fixture at the expected location."""

from pathlib import Path

import pytest

import repro.sim
from repro.analysis import Analyzer

FIXTURES = Path(__file__).parent / "fixtures"


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


class TestSimProcessRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer().run([FIXTURES / "bad_simprocess.py"])

    def test_non_event_yield_flagged(self, report):
        assert ("SIM01", 6) in keys(report)

    def test_value_generator_exempt(self, report):
        # Yields only tuples, is never kernel-stepped: not a sim process.
        assert not any(f.symbol == "value_generator"
                       for f in report.findings)

    def test_blocking_io_flagged(self, report):
        assert ("SIM02", 11) in keys(report)

    def test_kernel_private_state_flagged(self, report):
        assert ("SIM03", 23) in keys(report)

    def test_store_to_the_clock_flagged(self, report):
        # Plain, augmented, and the active-process slot.
        assert {("SIM03", 31), ("SIM03", 34), ("SIM03", 37)} <= keys(report)

    def test_store_to_the_tail_position_flag_flagged(self, report):
        # Only the kernel may say what is last in its dispatch; the
        # fabric batches through sim.call_each().
        assert ("SIM03", 40) in keys(report)

    def test_tail_position_calls_outside_their_audited_sites_flagged(
            self, report):
        # tail_call / call_each / _tail_trigger take the caller's word
        # for tail position: a namesake of the audited function in
        # another module, an unaudited function, a generator frame.
        assert {("SIM03", 68), ("SIM03", 71), ("SIM03", 76)} <= keys(report)

    def test_audited_tail_position_sites_must_end_on_the_call(self):
        # The three real sites are clean; the same function with
        # anything after the call (or yielding) is not.
        import repro.net.fabric
        import repro.net.rpc
        from repro.analysis.engine import ModuleInfo
        from repro.analysis.rules.simprocess import KernelPrivateStateRule

        report = Analyzer(select=["SIM03"]).run(
            [repro.net.rpc.__file__, repro.net.fabric.__file__])
        assert report.files == 2 and not report.findings

        def lines(path, source):
            module = ModuleInfo(Path(path), path, source)
            return [f.line for f in
                    KernelPrivateStateRule().check_module(module)]

        receive = ("def _receive(self, message):\n"
                   "    if message.is_response:\n"
                   "        if message.waiter is not None:\n"
                   "            self.sim.tail_call(message.waiter._fire)\n"
                   "{after}"
                   "        return\n"
                   "    self.spawn_handler(message)\n")
        assert lines("src/repro/net/rpc.py", receive.format(after="")) == []
        assert lines("src/repro/net/rpc.py", receive.format(
            after="        self.count += 1\n")) == [4]
        assert lines("src/repro/net/rpc.py", receive.format(
            after="        yield self.sim.sleep(0)\n")) == [4]
        assert lines("src/repro/core/agent.py",
                     receive.format(after="")) == [4]
        looping = ("def _deliver_batch(self, batches):\n"
                   "    for batch in batches:\n"
                   "        self.sim.call_each(self._deliver, batch)\n")
        assert lines("src/repro/net/fabric.py", looping) == [3]
        # A reference that is not a call escapes the audit just the same.
        assert lines("src/repro/net/rpc.py",
                     "def _receive(self):\n"
                     "    return self.sim.tail_call\n") == [2]

    def test_acquire_wait_not_yielded_at_once_flagged(self, report):
        # Stashed across a spawn, handed to any_of, dropped on the floor.
        assert {("SIM04", 44), ("SIM04", 52), ("SIM04", 56)} <= keys(report)

    def test_clean_twin_has_no_findings(self):
        # Reads of sim.now / sim.active_process and stores to some other
        # object's ``now`` are fine; so are `yield res.acquire_wait()` and
        # the assigned grant yielded in the very next statement — to
        # SIM04 and to PRO03 alike.
        assert not run_on("clean_simprocess.py").findings

    def test_repo_acquire_wait_sites_are_visible_and_clean(self):
        # Every acquire_wait() in the tree is seen by the lock rule (it
        # used to look for acquire() only) and passes it and SIM04.
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
        report = Analyzer(select=["PRO03", "SIM04"]).run(files)
        assert not report.findings  # (one deliberate hand-off is waived)

    def test_kernel_may_write_its_own_clock(self):
        # The same stores inside repro/sim are the run loop doing its job.
        import repro.sim.simulator

        report = Analyzer(select=["SIM03"]).run(
            [repro.sim.simulator.__file__])
        assert report.files == 1 and not report.findings


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


class TestAtomicityRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer(select=["ATM01", "ATM02", "INT01"]).run(
            [FIXTURES / "bad_atomicity.py"])

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


class TestTracingRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer().run([FIXTURES / "core" / "bad_tracing.py"])

    def test_call_without_trace_flagged(self, report):
        assert any(f.rule == "TRC01"
                   and f.symbol == "BadTracedAgent.dropped_call"
                   for f in report.findings)

    def test_notify_without_trace_flagged(self, report):
        assert any(f.rule == "TRC01"
                   and f.symbol == "BadTracedAgent.dropped_notify"
                   for f in report.findings)

    def test_annotated_site_clean(self, report):
        assert not any(f.rule == "TRC01"
                       and f.symbol == "BadTracedAgent.connected_call"
                       for f in report.findings)

    def test_scoped_to_protocol_layers(self):
        # The same RPC-without-trace= pattern outside core//caching/ is
        # not TRC01's business (bad_protocol.py has such sites).
        report = run_on("bad_protocol.py", select=["TRC01"])
        assert not report.findings


class TestTelemetryRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer().run([FIXTURES / "bad_telemetry.py"])

    def test_unlabeled_instruments_flagged(self, report):
        assert ("MET01", 10) in keys(report)   # counter without labelnames
        assert ("MET01", 13) in keys(report)   # gauge without labelnames
        assert ("MET01", 20) in keys(report)   # histogram without labelnames

    def test_explicit_labelnames_clean(self, report):
        assert not any(f.rule == "MET01"
                       and f.symbol == "Instrumented.labeled_ok"
                       for f in report.findings)

    def test_set_materializing_lambda_flagged(self, report):
        assert any(f.rule == "MET01"
                   and f.symbol == "Instrumented.bad_lambda_callback"
                   for f in report.findings)

    def test_set_comprehension_callback_flagged(self, report):
        assert any(f.rule == "MET01"
                   and f.symbol == "Instrumented.bad_comprehension_callback"
                   for f in report.findings)

    def test_order_insensitive_callbacks_clean(self, report):
        for symbol in ("Instrumented.good_reduction_callback",
                       "Instrumented.good_sorted_callback"):
            assert not any(f.rule == "MET01" and f.symbol == symbol
                           for f in report.findings)

    def test_local_def_callback_flagged(self, report):
        assert any(f.rule == "MET01" and f.line == 37
                   for f in report.findings)

    def test_non_registry_receiver_clean(self, report):
        assert not any(
            f.rule == "MET01"
            and f.symbol == "Instrumented.unrelated_builder_not_flagged"
            for f in report.findings)


class TestObsRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer().run([FIXTURES / "bad_obs.py"])

    def test_literal_event_type_flagged(self, report):
        assert ("OBS01", 12) in keys(report)

    def test_formatted_event_type_flagged(self, report):
        assert ("OBS01", 16) in keys(report)

    def test_interned_constant_clean(self, report):
        assert not any(f.rule == "OBS01"
                       and f.symbol == "Emitter.interned_ok"
                       for f in report.findings)

    def test_set_materializing_attr_flagged(self, report):
        assert ("OBS01", 24) in keys(report)

    def test_order_safe_set_attrs_clean(self, report):
        for symbol in ("Emitter.sorted_set_attr_ok",
                       "Emitter.reduced_set_attr_ok"):
            assert not any(f.rule == "OBS01" and f.symbol == symbol
                           for f in report.findings)

    def test_unguarded_expensive_args_flagged(self, report):
        assert ("OBS01", 35) in keys(report)

    def test_guarded_and_cheap_emits_clean(self, report):
        for symbol in ("Emitter.guarded_expensive_ok",
                       "Emitter.unguarded_cheap_ok"):
            assert not any(f.rule == "OBS01" and f.symbol == symbol
                           for f in report.findings)

    def test_non_recorder_receiver_clean(self, report):
        assert not any(
            f.rule == "OBS01"
            and f.symbol == "Emitter.unrelated_emitter_not_flagged"
            for f in report.findings)


class TestTracerSiteGating:
    """OBS01's Null-sink gating, applied to tracer sites in hot layers."""

    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer(select=["OBS01"]).run(
            [FIXTURES / "core" / "bad_spans.py"])

    def test_unguarded_span_with_attrs_flagged(self, report):
        assert ("OBS01", 14) in keys(report)

    def test_unguarded_instant_flagged(self, report):
        assert ("OBS01", 20) in keys(report)

    def test_fall_through_guard_does_not_count(self, report):
        assert ("OBS01", 27) in keys(report)

    def test_unguarded_call_of_traced_twin_flagged(self, report):
        assert ("OBS01", 31) in keys(report)
        # ... while the twin's own span is covered by the convention.
        assert not any(f.symbol == "BadSpanAgent._traced_read"
                       for f in report.findings)
        assert len(report.findings) == 4

    def test_clean_twin_has_no_findings(self):
        report = Analyzer(select=["OBS01"]).run(
            [FIXTURES / "core" / "clean_spans.py"])
        assert report.files == 1 and not report.findings

    def test_scoped_to_hot_layers(self, tmp_path):
        # The same unguarded span in a cold layer (experiments, session
        # wiring) costs nothing that matters.
        cold = tmp_path / "experiments" / "bad_spans.py"
        cold.parent.mkdir()
        cold.write_text(
            (FIXTURES / "core" / "bad_spans.py").read_text())
        assert not Analyzer(select=["OBS01"]).run([cold]).findings


class TestAtomicAttrs:
    """OBS01: span / event attrs the packed logs keep as atomics."""

    def test_container_and_callable_attrs_flagged(self):
        report = Analyzer(select=["OBS01"]).run(
            [FIXTURES / "core" / "bad_attrs.py"])
        assert [(f.line, f.message.split(": ")[0].rsplit(" ", 1)[-1])
                for f in report.findings] == [
            (17, "set"), (23, "set"), (29, "dict"), (34, "dict"),
            (41, "lambda"), (47, "expression")]

    def test_clean_twin_has_no_findings(self):
        report = Analyzer(select=["OBS01"]).run(
            [FIXTURES / "core" / "clean_attrs.py"])
        assert report.files == 1 and not report.findings

    def test_scoped_to_protocol_layers(self, tmp_path):
        source = (FIXTURES / "core" / "bad_attrs.py").read_text()
        for layer, findings in (("shard", 6), ("experiments", 0)):
            path = tmp_path / layer / "bad_attrs.py"
            path.parent.mkdir()
            path.write_text(source)
            report = Analyzer(select=["OBS01"]).run([path])
            assert len(report.findings) == findings, layer


class TestSchemeRules:
    @pytest.fixture(scope="class")
    def report(self):
        return Analyzer().run([FIXTURES / "bad_schemes.py"])

    def test_missing_consistency_flagged(self, report):
        assert ("SCH01", 14) in keys(report)

    def test_empty_consistency_literal_flagged(self, report):
        assert ("SCH01", 27) in keys(report)

    def test_declared_scheme_class_clean(self, report):
        assert not any(f.rule == "SCH01" and f.symbol == "TtlScheme"
                       for f in report.findings)

    def test_helper_base_exempt(self, report):
        assert not any(f.rule == "SCH01" and f.symbol == "_HelperBase"
                       for f in report.findings)

    def test_direct_construction_flagged(self, report):
        # Both instantiations in build_experiment — the scheme lives in
        # the same module, but the module is not under a schemes/ dir.
        assert ("SCH01", 32) in keys(report)
        assert ("SCH01", 33) in keys(report)

    def test_builder_module_construction_allowed(self):
        report = Analyzer().run(
            [FIXTURES / "schemes" / "clean_schemes.py"])
        assert not any(f.rule == "SCH01" for f in report.findings)


def test_select_restricts_rules():
    report = run_on("bad_determinism.py", select=["DET02"])
    assert {f.rule for f in report.findings} == {"DET02"}


def test_unknown_select_rejected():
    with pytest.raises(ValueError):
        Analyzer(select=["NOPE99"])
