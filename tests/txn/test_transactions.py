"""Tests for Concord transactions and the Saga/Beldi baselines."""

import pytest

from repro.config import SimConfig
from repro.session import Session
from repro.storage import DataItem
from repro.txn import BeldiRunner, ConcordTxnRuntime, SagaRunner, TXN_APPS, TxnAborted


@pytest.fixture
def session():
    return Session.compose(config=SimConfig(num_nodes=4), seed=21,
                           app="txnapp")


@pytest.fixture
def sim(session):
    return session.sim


@pytest.fixture
def cluster(session):
    return session.cluster


@pytest.fixture
def concord(session):
    return session.system


@pytest.fixture
def runtime(concord):
    return ConcordTxnRuntime(concord)


def run(sim, gen, limit=300_000.0):
    return sim.run_until_complete(sim.spawn(gen), limit=sim.now + limit)


def V(tag):
    return DataItem(tag, 128)


class TestCommit:
    def test_simple_transaction_commits(self, sim, cluster, runtime):
        cluster.storage.preload({"a": V("a0"), "b": V("b0")})

        def body(txn):
            a = yield from txn.read("a")
            yield from txn.write("b", V(f"b<-{a.payload}"))
            return "done"

        assert run(sim, runtime.run("node0", body)) == "done"
        assert runtime.commits == 1
        assert cluster.storage.peek("b").value == V("b<-a0")

    def test_buffered_writes_invisible_until_commit(self, sim, cluster, runtime, concord):
        cluster.storage.preload({"x": V("x0")})
        observations = []

        def body(txn):
            yield from txn.write("x", V("x1"))
            # Mid-transaction, storage still holds the old value.
            observations.append(cluster.storage.peek("x").value)
            yield txn.runtime.sim.timeout(5.0)
            return True

        run(sim, runtime.run("node0", body))
        assert observations == [V("x0")]
        assert cluster.storage.peek("x").value == V("x1")

    def test_read_your_own_writes(self, sim, cluster, runtime):
        cluster.storage.preload({"x": V("x0")})

        def body(txn):
            yield from txn.write("x", V("x1"))
            value = yield from txn.read("x")
            return value

        assert run(sim, runtime.run("node0", body)) == V("x1")

    def test_speculation_cleared_after_commit(self, sim, cluster, runtime, concord):
        cluster.storage.preload({"x": V("x0")})

        def body(txn):
            yield from txn.read("x")
            yield from txn.write("x", V("x1"))
            return True

        run(sim, runtime.run("node1", body))
        entry = concord.agents["node1"].cache.peek("x")
        assert entry is not None
        assert not entry.speculative
        assert not entry.pinned

    def test_each_runtime_numbers_its_own_transactions(self):
        """Transaction ids pick squash victims (by string order), so two
        runtimes built in one interpreter must not share a counter."""
        first_ids = []
        for _ in range(2):
            s = Session.compose(config=SimConfig(num_nodes=2), seed=21,
                                app="txnapp")
            sim = s.sim
            runtime = ConcordTxnRuntime(s.system)
            s.preload({"a": V("a0")})
            seen = []

            def body(txn):
                seen.append(txn.txn.txn_id)
                yield from txn.read("a")

            run(sim, runtime.run("node0", body))
            run(sim, runtime.run("node1", body))
            first_ids.append(seen[0])
            assert seen == ["txn-1", "txn-2"]
        assert first_ids == ["txn-1", "txn-1"]


class TestConflicts:
    def test_remote_write_squashes_reader_txn(self, sim, cluster, runtime, concord):
        """A transaction that read x gets squashed when another node
        writes x (conflict detected via the invalidation message)."""
        cluster.storage.preload({"x": V("x0"), "y": V("y0")})
        timeline = []

        def slow_txn(txn):
            value = yield from txn.read("x")
            timeline.append(("read", value))
            yield txn.runtime.sim.timeout(100.0)  # hold speculation open
            yield from txn.write("y", V("y1"))
            return "committed"

        def writer(sim):
            yield sim.timeout(30.0)
            yield from concord.write("node2", "x", V("x-conflict"))

        txn_proc = sim.spawn(runtime.run("node0", slow_txn))
        sim.spawn(writer(sim))
        sim.run(until=sim.now + 60_000.0)
        assert txn_proc.value == "committed"  # retried and succeeded
        assert runtime.aborts >= 1
        # The retry observed the conflicting value.
        assert timeline[-1] == ("read", V("x-conflict"))

    def test_remote_read_squashes_writer_txn(self, sim, cluster, runtime, concord):
        cluster.storage.preload({"x": V("x0")})

        def writing_txn(txn):
            yield from txn.write("x", V("x-spec"))
            yield txn.runtime.sim.timeout(100.0)
            return "done"

        reads = []

        def reader(sim):
            yield sim.timeout(30.0)
            value = yield from concord.read("node2", "x")
            reads.append(value)

        txn_proc = sim.spawn(runtime.run("node0", writing_txn))
        sim.spawn(reader(sim))
        sim.run(until=sim.now + 120_000.0)
        assert txn_proc.value == "done"
        assert runtime.aborts >= 1
        # The concurrent reader never saw the speculative value.
        assert reads == [V("x0")]

    def test_read_at_the_writers_home_squashes_writer_txn(
            self, sim, cluster, runtime, concord):
        """The writer's node is also the key's home, so the read's
        downgrade runs in place rather than through a fetch_downgrade
        RPC; it must squash the writer all the same."""
        ring = concord.agents["node0"].ring
        key = next(f"k{i}" for i in range(1000)
                   if ring.home(f"k{i}") == "node1")
        cluster.storage.preload({key: V("committed")})

        def writing_txn(txn):
            yield from txn.write(key, V("uncommitted"))
            yield txn.runtime.sim.timeout(50.0)  # hold the speculation open
            return "done"

        def writer():
            try:
                yield from runtime.run("node1", writing_txn, max_attempts=1)
            except TxnAborted:
                return "aborted"
            return "committed"

        reads = []

        def reader(sim):
            yield sim.timeout(20.0)
            reads.append((yield from concord.read("node2", key)))

        writer_proc = sim.spawn(writer())
        sim.spawn(reader(sim))
        sim.run(until=sim.now + 10_000.0)
        assert reads == [V("committed")]
        assert writer_proc.value == "aborted"
        assert runtime.total_squashes() == 1

    def test_local_conflict_between_transactions(self, sim, cluster, runtime):
        cluster.storage.preload({"x": V("x0")})
        order = []

        def txn_a(txn):
            yield from txn.write("x", V("a"))
            yield txn.runtime.sim.timeout(50.0)
            order.append("a")
            return "a"

        def txn_b(txn):
            yield txn.runtime.sim.timeout(10.0)
            value = yield from txn.read("x")
            order.append(("b-read", value.payload))
            return "b"

        pa = sim.spawn(runtime.run("node0", txn_a))
        pb = sim.spawn(runtime.run("node0", txn_b))
        sim.run(until=sim.now + 120_000.0)
        assert pa.value == "a" and pb.value == "b"
        assert runtime.aborts >= 1
        # b never observed the uncommitted "a" value.
        for item in order:
            if isinstance(item, tuple):
                assert item[1] in ("x0", "a")  # either pre- or post-commit

    def test_non_txn_local_write_squashes_speculation(self, sim, cluster, runtime, concord):
        cluster.storage.preload({"x": V("x0")})

        def txn_body(txn):
            yield from txn.read("x")
            yield txn.runtime.sim.timeout(80.0)
            return "ok"

        def plain_writer(sim):
            yield sim.timeout(20.0)
            yield from concord.write("node0", "x", V("plain"))

        txn_proc = sim.spawn(runtime.run("node0", txn_body))
        sim.spawn(plain_writer(sim))
        sim.run(until=sim.now + 60_000.0)
        assert txn_proc.value == "ok"
        assert runtime.aborts >= 1

    def test_escalation_guarantees_progress(self, sim, cluster, runtime, concord):
        """Under constant conflicting traffic, priority escalation (global
        lock) still lets the transaction commit."""
        cluster.storage.preload({"x": V("x0")})
        stop = []

        def hostile(sim):
            i = 0
            while not stop:
                yield sim.timeout(15.0)
                yield from concord.write("node2", "x", V(f"h{i}"))
                i += 1

        def txn_body(txn):
            value = yield from txn.read("x")
            yield txn.runtime.sim.timeout(40.0)
            yield from txn.write("x", V("txn-final"))
            return value

        sim.spawn(hostile(sim), daemon=True)
        txn_proc = sim.spawn(runtime.run("node0", txn_body, max_attempts=30))
        sim.run(until=sim.now + 600_000.0)
        stop.append(True)
        assert txn_proc.triggered
        assert runtime.commits == 1


class TestBaselines:
    @pytest.fixture
    def session(self):
        # Saga and Beldi run on storage alone: a session that caches nothing.
        return Session.compose(config=SimConfig(num_nodes=4), seed=21,
                               scheme="nocache")

    def test_saga_commits_without_contention(self, sim, cluster):
        saga = SagaRunner(cluster)
        app = TXN_APPS["HotelBooking"]
        cluster.storage.preload({k: V("init") for k in app.keyspace()})
        assert run(sim, saga.run(app, entity=0)) is True
        assert saga.commits == 1
        assert saga.compensations == 0

    def test_saga_compensates_on_conflict(self, sim, cluster):
        saga = SagaRunner(cluster)
        app = TXN_APPS["OnlineBanking"]
        cluster.storage.preload({k: V("init") for k in app.keyspace()})

        def interferer(sim):
            yield sim.timeout(100.0)
            # Clobber a key the saga reads at every step but never writes.
            yield from cluster.storage.write(
                app.steps[0].reads[1].format(e=0), V("intruder"), writer="x")

        sim.spawn(interferer(sim))
        run(sim, saga.run(app, entity=0))
        assert saga.commits == 1
        assert saga.compensations > 0

    def test_beldi_commits_and_logs(self, sim, cluster):
        beldi = BeldiRunner(cluster)
        app = TXN_APPS["OnlineShopping"]
        cluster.storage.preload({k: V("init") for k in app.keyspace()})
        writes_before = cluster.storage.stats.writes
        assert run(sim, beldi.run(app, entity=0)) is True
        # Logging cost: many more storage writes than data writes.
        log_writes = cluster.storage.stats.writes - writes_before
        assert log_writes > len(app.steps) * 2

    def test_beldi_aborts_on_conflict(self, sim, cluster):
        beldi = BeldiRunner(cluster)
        app = TXN_APPS["HealthRecords"]
        cluster.storage.preload({k: V("init") for k in app.keyspace()})

        def interferer(sim):
            yield sim.timeout(150.0)
            yield from cluster.storage.write(
                app.steps[0].reads[0].format(e=0), V("intruder"), writer="x")

        sim.spawn(interferer(sim))
        run(sim, beldi.run(app, entity=0))
        assert beldi.aborts >= 1
        assert beldi.commits == 1

    def test_txn_apps_have_paper_shape(self):
        assert len(TXN_APPS) == 5
        for app in TXN_APPS.values():
            assert 6 <= len(app.steps) <= 8  # "sequence of 6-8 functions"
