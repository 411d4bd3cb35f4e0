"""Sampler: fixed-interval simulated-clock snapshotting."""

import pytest

from repro.sim import Simulator
from repro.telemetry import MetricsRegistry, Sampler


def make_sim():
    registry = MetricsRegistry()
    sim = Simulator(seed=1, metrics=registry)
    return sim, registry


def test_samples_on_the_simulated_grid():
    sim, registry = make_sim()
    gauge = registry.gauge("level", labelnames=())
    gauge.set_callback(lambda: sim.now)
    Sampler(sim, interval_ms=100.0).start()
    sim.run(until=450.0)
    (series,) = registry.store.all_series()
    assert [t for t, _v in series.points] == [0.0, 100.0, 200.0, 300.0, 400.0]
    # The callback evaluated at each instant: value == sample time.
    assert all(t == v for t, v in series.points)


def test_stop_ends_sampling():
    sim, registry = make_sim()
    registry.gauge("level", labelnames=()).set_callback(lambda: 1.0)
    sampler = Sampler(sim, interval_ms=100.0).start()
    sim.run(until=250.0)
    sampler.stop()
    sampler.stop()  # idempotent
    sim.run(until=1000.0)
    (series,) = registry.store.all_series()
    # One trailing wakeup may sample at the stop boundary, then silence.
    assert len(series.points) <= 4
    assert registry.samples == len(series.points)


def test_restart_inside_one_interval_keeps_the_grid():
    # stop() then start() before the sleeping process wakes: the process
    # is still there, so start() must un-stop it, not return early.
    sim, registry = make_sim()
    registry.gauge("level", labelnames=()).set_callback(lambda: 1.0)
    sampler = Sampler(sim, interval_ms=100.0).start()
    sim.run(until=250.0)
    sampler.stop()
    sampler.start()
    sim.run(until=1000.0)
    assert sampler.running
    (series,) = registry.store.all_series()
    assert series.times == [100.0 * tick for tick in range(11)]


def test_restart_after_the_process_exited_spawns_a_new_one():
    sim, registry = make_sim()
    registry.gauge("level", labelnames=()).set_callback(lambda: 1.0)
    sampler = Sampler(sim, interval_ms=100.0).start()
    sim.run(until=250.0)
    sampler.stop()
    sim.run(until=450.0)
    assert not sampler.running
    sampler.start()
    sim.run(until=700.0)
    assert sampler.running
    (series,) = registry.store.all_series()
    assert series.times == [0.0, 100.0, 200.0, 450.0, 550.0, 650.0]


def test_inactive_registry_is_a_noop():
    sim = Simulator(seed=1)  # NULL_REGISTRY
    sampler = Sampler(sim, interval_ms=50.0).start()
    assert sampler.running is False
    sim.run(until=500.0)
    assert sim.metrics.samples == 0


def test_start_is_idempotent():
    sim, registry = make_sim()
    registry.gauge("level", labelnames=()).set_callback(lambda: 1.0)
    sampler = Sampler(sim, interval_ms=100.0)
    sampler.start()
    sampler.start()
    sim.run(until=200.0)
    assert registry.samples == 3  # t = 0, 100, 200 — not doubled


def test_nonpositive_interval_rejected():
    sim, _registry = make_sim()
    with pytest.raises(ValueError):
        Sampler(sim, interval_ms=0.0)
    with pytest.raises(ValueError):
        Sampler(sim, interval_ms=-5.0)


def test_daemon_sampler_does_not_block_completion():
    sim, registry = make_sim()
    registry.gauge("level", labelnames=()).set_callback(lambda: 1.0)
    Sampler(sim, interval_ms=10.0).start()

    def work(sim):
        yield sim.timeout(35.0)
        return "done"

    outcome = sim.run_until_complete(sim.spawn(work(sim)), limit=1000.0)
    assert outcome == "done"
    assert registry.samples >= 4
