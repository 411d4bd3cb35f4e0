"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Interrupt, Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_acquire_within_capacity_is_immediate(self, sim):
        res = Resource(sim, capacity=2)
        assert res.acquire().triggered
        assert res.acquire().triggered
        assert res.available == 0

    def test_acquire_beyond_capacity_blocks(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        blocked = res.acquire()
        assert not blocked.triggered
        assert res.queue_length == 1
        res.release()
        assert blocked.triggered

    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        first, second = res.acquire(), res.acquire()
        res.release()
        assert first.triggered and not second.triggered
        res.release()
        assert second.triggered

    def test_release_idle_raises(self, sim):
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_contention_with_processes(self, sim):
        res = Resource(sim, capacity=2)
        finish_times = []

        def worker(sim):
            yield res.acquire()
            yield sim.timeout(10.0)
            res.release()
            finish_times.append(sim.now)

        for _ in range(4):
            sim.spawn(worker(sim))
        sim.run()
        # 2 run immediately, 2 queue behind them.
        assert finish_times == [10.0, 10.0, 20.0, 20.0]


class TestResourceLazyQueue:
    """The wait queue exists only once somebody has had to wait (a run
    holds one Resource per cached key, almost none ever contended)."""

    def test_uncontended_resource_allocates_no_queue(self, sim):
        res = Resource(sim, capacity=1, name="k")
        assert not hasattr(res, "__dict__")
        grant = res.acquire()
        assert grant.triggered and grant.name == "acquire:k"
        assert res.queue_length == 0
        res.release()
        assert res._waiters is None
        assert (res.in_use, res.available, res.queue_length) == (0, 1, 0)

    def test_fifo_hand_off_through_a_late_allocated_queue(self, sim):
        res = Resource(sim, capacity=1, name="k")
        order = []

        def worker(tag, hold):
            yield res.acquire_wait()
            order.append((tag, sim.now))
            yield sim.timeout(hold)
            res.release()

        for tag in "abc":
            sim.spawn(worker(tag, 5.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 5.0), ("c", 10.0)]
        assert res.in_use == 0 and res.queue_length == 0

    def test_contended_acquire_wait_returns_a_named_grant(self, sim):
        res = Resource(sim, capacity=1, name="k")
        res.acquire()
        seen = []

        def waiter():
            grant = res.acquire_wait()
            seen.append(grant)
            yield grant

        sim.spawn(waiter())
        sim.run()
        assert seen[0].name == "acquire:k" and not seen[0].triggered
        assert res.queue_length == 1
        res.release()
        sim.run()
        assert seen[0].processed and res.in_use == 1

    def test_register_gauges_reads_the_lazy_queue(self, sim):
        from repro.telemetry import MetricsRegistry

        metered = Simulator(metrics=MetricsRegistry())
        res = Resource(metered, capacity=1, name="cores")
        res.register_gauges(metered.metrics, "cpu", node="n0")

        def gauge(name):
            metered.metrics.sample(metered.now)
            return metered.metrics.store.series(
                name, "gauge", (("node", "n0"),)).last()

        assert gauge("cpu_queue_length") == 0  # no queue allocated yet
        res.acquire()
        res.acquire()
        assert gauge("cpu_queue_length") == 1
        assert gauge("cpu_in_use") == 1
        assert gauge("cpu_utilization") == 1.0


class TestInterruptedWait:
    """A process interrupted before it takes up its grant holds nothing.

    Each test interrupts a ``victim`` in one window of its wait, with a
    ``successor`` queued behind it: the slot must reach the successor,
    and the resource must end idle.
    """

    def _waiter(self, sim, res, log, tag, wait=Resource.acquire_wait):
        try:
            yield wait(res)
        except Interrupt:
            log.append((tag, "interrupted", sim.now))
            return
        log.append((tag, "granted", sim.now))
        try:
            yield sim.sleep(5.0)
        finally:
            res.release()

    def _run(self, sim, res, victim, successor, log):
        sim.run()
        assert sorted(log) == [("successor", "granted", 0.0),
                               ("victim", "interrupted", 0.0)]
        assert not victim.is_alive and not successor.is_alive
        assert (res.in_use, res.queue_length) == (0, 0)

    def test_interrupt_withdraws_a_queued_wait(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        log = []
        victim = sim.spawn(self._waiter(sim, res, log, "victim"))
        successor = sim.spawn(self._waiter(sim, res, log, "successor"))
        sim.run()
        assert res.queue_length == 2
        victim.interrupt()
        assert res.queue_length == 1
        res.release()
        self._run(sim, res, victim, successor, log)

    def test_interrupt_releases_a_handed_over_slot(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        log = []
        victim = sim.spawn(self._waiter(sim, res, log, "victim"))
        successor = sim.spawn(self._waiter(sim, res, log, "successor"))
        sim.run()
        res.release()  # hands the slot to the victim, which has not resumed
        assert (res.in_use, res.queue_length) == (1, 1)
        victim.interrupt()
        self._run(sim, res, victim, successor, log)

    def _interrupt_after_the_free_grant(self, sim, res, wait):
        # The victim takes the free slot with other work queued at the
        # same instant, so its hop to resumption goes through the wheel;
        # the successor queues, then the killer interrupts the victim.
        log = []
        victim = sim.spawn(self._waiter(sim, res, log, "victim", wait))
        successor = sim.spawn(self._waiter(sim, res, log, "successor"))

        def killer():
            assert log == []
            assert (res.in_use, res.queue_length) == (1, 1)
            victim.interrupt()
            yield sim.sleep(0.0)

        sim.spawn(killer())
        self._run(sim, res, victim, successor, log)

    def test_interrupt_releases_the_slot_of_a_paid_ready_hop(self, sim):
        self._interrupt_after_the_free_grant(
            sim, Resource(sim, capacity=1), Resource.acquire_wait)

    def test_interrupt_releases_an_acquire_grant(self, sim):
        # The transaction manager's form: `yield lock.acquire()`.
        self._interrupt_after_the_free_grant(
            sim, Resource(sim, capacity=1), Resource.acquire)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")
        got = store.get()
        assert got.triggered
        sim.run()
        assert got.value == "a"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = store.get()
        assert not got.triggered
        store.put("b")
        assert got.triggered

    def test_fifo_items(self, sim):
        store = Store(sim)
        for item in (1, 2, 3):
            store.put(item)
        values = [store.get().value for _ in range(3)]
        assert values == [1, 2, 3]

    def test_fifo_getters(self, sim):
        store = Store(sim)
        g1, g2 = store.get(), store.get()
        store.put("x")
        store.put("y")
        assert g1.value == "x"
        assert g2.value == "y"

    def test_len_and_drain(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.drain() == [1, 2]
        assert len(store) == 0

    def test_consumer_process_loop(self, sim):
        store = Store(sim)
        consumed = []

        def consumer(sim):
            for _ in range(3):
                item = yield store.get()
                consumed.append((sim.now, item))

        def producer(sim):
            for i in range(3):
                yield sim.timeout(5.0)
                store.put(i)

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert consumed == [(5.0, 0), (10.0, 1), (15.0, 2)]


class TestRng:
    def test_streams_are_deterministic(self):
        a = Simulator(seed=7).rng.stream("x").random()
        b = Simulator(seed=7).rng.stream("x").random()
        assert a == b

    def test_streams_are_independent_by_name(self):
        sim = Simulator(seed=7)
        assert sim.rng.stream("x").random() != sim.rng.stream("y").random()

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng.stream("x").random()
        b = Simulator(seed=2).rng.stream("x").random()
        assert a != b

    def test_stream_identity_is_cached(self):
        sim = Simulator(seed=3)
        assert sim.rng.stream("s") is sim.rng.stream("s")
        assert "s" in sim.rng
