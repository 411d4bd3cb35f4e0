"""Self-profiling: profiled run equivalence, attribution, wheel gauges."""

import pytest

from repro.obs import jsonl_dumps as obs_jsonl_dumps
from repro.obs.selfprof import SelfProfiler, _resuming_frame, _site_of, \
    install_wheel_gauges, render_profile
from repro.session import Session
from repro.sim import SimulationError, Simulator
from repro.sim.profiled import profiled_run
from repro.storage import DataItem
from repro.telemetry import jsonl_dumps


def _loaded_session():
    session = Session(nodes=2, seed=9, scheme="concord", metrics=True,
                      metrics_interval_ms=50.0)
    session.preload({f"k{i}": DataItem("v0", 64) for i in range(4)})
    for i in range(4):
        session.sim.spawn(
            session.system.write("node0", f"k{i}", DataItem(f"v{i}", 64)))
        session.sim.spawn(session.system.read("node1", f"k{i}"))
    return session


class TestProfiledRunEquivalence:
    def test_same_outcome_as_plain_run(self):
        plain = _loaded_session()
        plain.sim.run(until=800.0)
        plain.close()

        profiled = _loaded_session()
        profiler = SelfProfiler()
        profiler.run(profiled.sim, until=800.0)
        profiled.close()

        assert profiled.sim.now == plain.sim.now == 800.0
        # Simulated behaviour is byte-identical: same telemetry export.
        assert jsonl_dumps(profiled.metrics) == jsonl_dumps(plain.metrics)

    def test_attribution_populated(self):
        session = _loaded_session()
        profiler = SelfProfiler()
        profiler.run(session.sim, until=800.0)
        session.close()
        assert profiler.wall_s and profiler.dispatches
        assert set(profiler.wall_s) == set(profiler.dispatches)
        assert all(spent >= 0.0 for spent in profiler.wall_s.values())
        assert sum(profiler.dispatches.values()) > 10
        # The protocol work must attribute to real repo layers.
        assert set(profiler.wall_s) & {
            "core", "net", "sim", "coord", "caching", "cluster", "telemetry"}

    def test_report_and_render(self):
        session = _loaded_session()
        profiler = SelfProfiler()
        profiler.run(session.sim, until=400.0)
        session.close()
        rows = profiler.report()
        assert rows == sorted(rows, key=lambda r: (-r["wall_s"], r["layer"]))
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)
        text = render_profile(profiler)
        assert text.startswith("self-profile:")
        assert rows[0]["layer"] in text

    def test_collector_pauses_are_a_row_of_their_own(self):
        import gc

        session = _loaded_session()
        profiler = SelfProfiler()
        callbacks = list(gc.callbacks)
        session.sim.call_at(100.0, lambda _arg: gc.collect())
        # Only the scheduled pass may run in the window: late in a long
        # test session the collector can otherwise start a full pass of
        # its own inside it.
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            profiler.run(session.sim, until=400.0)
        finally:
            if was_enabled:
                gc.enable()
        session.close()
        assert gc.callbacks == callbacks  # the hook is gone again
        (full,) = [row for row in profiler.gc_report()
                   if row["generation"] == 2]
        assert full["collections"] == 1 and full["wall_s"] > 0.0
        # Excluded from the layers: the dispatch that collected spent
        # (almost) all its time in the collector, none of it booked.
        assert all(spent >= 0.0 for spent in profiler.wall_s.values())
        assert "gc" not in profiler.wall_s
        assert "gc gen2" in render_profile(profiler)
        assert sum(row["share"] for row in profiler.report()) \
            == pytest.approx(1.0)

    def test_until_in_the_past_rejected(self):
        sim = Simulator(seed=0)
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            profiled_run(sim, lambda: 0.0, lambda e, f: "x",
                         lambda layer, spent: None, until=5.0)

    def test_drained_run_advances_to_until(self):
        sim = Simulator(seed=0)
        profiled_run(sim, lambda: 0.0, lambda e, f: "x",
                     lambda layer, spent: None, until=25.0)
        assert sim.now == 25.0

    def test_profiled_run_pays_the_hops_a_plain_run_elides(self):
        """The profiled loop holds the kernel's tail-position flag down
        (one dispatch stays one suspension point), the plain loop elides
        hops: same seed, same recorder dump, same AccessStats — the
        elision oracle, exercised on every tier-1 run."""
        def run(profiled: bool):
            session = Session(nodes=3, seed=9, scheme="concord", obs=True)
            session.preload({f"k{i}": DataItem("v0", 64) for i in range(4)})
            for i in range(4):
                session.sim.spawn(session.system.write(
                    "node0", f"k{i}", DataItem(f"v{i}", 64)))
                session.sim.spawn(session.system.read("node1", f"k{i}"))
                session.sim.spawn(session.system.read("node2", f"k{i}"))
            found = session.sim._tail
            if profiled:
                SelfProfiler().run(session.sim, until=800.0)
            else:
                session.sim.run(until=800.0)
            assert session.sim._tail == found  # restored as found
            session.close()
            stats = session.system.stats
            return (obs_jsonl_dumps(session.obs),
                    {kind.value: (histogram.count, histogram.mean,
                                  histogram.percentile(99))
                     for kind, histogram in stats.latency.items()},
                    stats.version_checks,
                    session.sim.schedule_count)

        plain, profiled = run(False), run(True)
        assert plain[:3] == profiled[:3]
        assert len(plain[1]) >= 3 and plain[0].count("\n") > 20
        assert plain[3] < profiled[3]  # what was elided, and only that


class TestAttributionByExecutingFrame:
    """A dispatch is booked to the frame that resumes, not to the root
    generator the process was spawned with."""

    def test_resuming_frame_follows_yield_from(self):
        def leaf():
            yield "parked"

        def middle():
            yield from leaf()

        def root():
            yield from middle()

        generator = root()
        assert _resuming_frame(generator) is generator  # not started yet
        next(generator)
        assert _resuming_frame(generator).gi_code.co_name == "leaf"
        # Delegating to a plain iterator stops at the delegating frame.
        plain = (lambda: (yield from iter([1])))()
        next(plain)
        assert _resuming_frame(plain) is plain

    def test_client_side_cache_work_is_booked_to_core_not_the_caller(self):
        session = Session(nodes=2, seed=9, scheme="concord")
        session.preload({"k": DataItem("v0", 64)})

        def test_driver():  # the *root* generator lives in this test file
            for _ in range(20):
                yield from session.system.read("node1", "k")

        session.sim.spawn(test_driver(), name="driver")
        profiler = SelfProfiler()
        profiler.run(session.sim, until=400.0)
        session.close()
        # 20 local-access sleeps resumed inside CacheAgent.read ...
        (site,) = [s for s in profiler.sites if s.startswith("CacheAgent.read:")]
        assert profiler.sites[site][1] == 20
        assert profiler.dispatches["core"] >= 20
        # ... and only the bootstrap and the process's own completion
        # event are the driver's.
        assert profiler.dispatches.get("external", 0) == 2

    def test_event_entry_is_booked_to_the_process_waiting_on_it(self):
        sim = Simulator(seed=0)
        gate = sim.event("gate")

        def waiter():
            yield gate

        process = sim.spawn(waiter())
        sim.run()  # parked on the gate
        gate.succeed()
        layer, site = _site_of(gate, None)
        assert layer == "external"  # this test file, not "sim"
        assert site.endswith(f"waiter:{process.generator.gi_frame.f_lineno}")
        # Nobody waiting: the event's own type.
        assert _site_of(sim.event("lonely"), None) == ("sim", "<Event>")
        # A raw callback that wakes no process: the callback itself.
        assert _site_of(None, sim.cancel) == ("sim", "Simulator.cancel")

    def test_sites_sum_to_the_layers_and_render(self):
        session = _loaded_session()
        profiler = SelfProfiler()
        profiler.run(session.sim, until=800.0)
        session.close()
        rows = profiler.site_report()
        assert sum(row["dispatches"] for row in rows) \
            == sum(profiler.dispatches.values())
        assert sum(row["wall_s"] for row in rows) \
            == pytest.approx(sum(profiler.wall_s.values()))
        assert rows == sorted(rows, key=lambda r: (-r["wall_s"], r["site"]))
        assert len(profiler.site_report(top=3)) == 3
        # The RPC response event resumes the caller inside Endpoint.call.
        assert any(row["site"].startswith("Endpoint.call:") for row in rows)
        text = render_profile(profiler, top=5)
        assert f"top 5 of {len(rows)} sites" in text
        assert rows[0]["site"] in text and rows[-1]["site"] not in text


class TestWheelGauges:
    def test_gauges_sampled_into_registry(self):
        session = _loaded_session()
        install_wheel_gauges(session.sim)
        session.advance(300.0)
        session.close()
        text = jsonl_dumps(session.metrics)
        for name in ("sim_wheel_live_entries", "sim_wheel_imm_depth",
                     "sim_wheel_pending_days", "sim_wheel_freelist_entries",
                     "sim_wheel_horizon_ms", "sim_schedule_entries_total"):
            assert name in text

    def test_noop_without_metrics(self):
        sim = Simulator(seed=0)
        install_wheel_gauges(sim)  # Null registry: must not raise
        sim.run(until=10.0)
