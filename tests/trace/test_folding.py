"""Protocol steps and fixed-cost leaves are counted on their parents,
and every reader counts them back.

A protocol step (``compute``, a home op, an owner fetch, an
invalidation, a storage access) and a childless ``op`` (a local hit)
become ``<label>.n`` / ``<label>.ms`` attrs on the span they ran under,
and a call's serving interval becomes ``server_start_ms`` /
``server_end_ms`` on the client's ``rpc`` span.  These tests hold the
folding rules themselves, the breakdown they must reproduce, and the
volume they buy.
"""

import pytest

from repro.config import SimConfig
from repro.experiments.runner import run_mixed_workload
from repro.net.rpc import RpcError
from repro.obs import FlightRecorder
from repro.session import Session
from repro.sim import Simulator
from repro.storage import DataItem
from repro.trace import Tracer
from repro.trace.summary import category_totals, op_breakdown, per_app_requests
from repro.trace.tracer import fold_keys, folded_leaves

#: The golden all-signals run of ``tests/session/test_golden_identity.py``.
_MIXED = dict(
    nodes=4, cores_per_node=4, apps=("SocNet", "HotelBook", "TrainT"),
    utilization=0.4, duration_ms=1200.0, warmup_ms=600.0, drain_ms=800.0,
    seed=1009,
)

READ = fold_keys("op:s:read")


class TestLeafRule:
    @pytest.fixture
    def tracer(self):
        return Tracer()

    @pytest.fixture
    def sim(self, tracer):
        return Simulator(seed=1, tracer=tracer)

    def _leaf_under_parent(self, sim, tracer, body):
        def proc(sim):
            with tracer.span("invoke", "invoke", parent=None):
                leaf = tracer.span("read", "op", leaf=READ, scheme="s")
                try:
                    yield sim.timeout(2.0)
                    yield from body(sim)
                finally:
                    leaf.end()
        sim.spawn(proc(sim))
        sim.run()
        return {span.name: span for span in tracer.spans}

    def test_a_childless_leaf_is_counted_on_its_parent(self, sim, tracer):
        def nothing(sim):
            yield sim.timeout(1.0)

        spans = self._leaf_under_parent(sim, tracer, nothing)
        assert sorted(spans) == ["invoke"]
        assert list(folded_leaves(spans["invoke"].attrs)) == [
            ("op:s:read", 1, 3.0)]
        assert tracer.open_spans() == [] and tracer._leaves == {}

    def test_a_leaf_with_a_child_stays_a_span(self, sim, tracer):
        def child(sim):
            with tracer.span("rpc:x", "rpc"):
                yield sim.timeout(1.0)

        spans = self._leaf_under_parent(sim, tracer, child)
        assert sorted(spans) == ["invoke", "read", "rpc:x"]
        assert spans["rpc:x"].parent_id == spans["read"].span_id
        assert list(folded_leaves(spans["invoke"].attrs)) == []

    def test_a_leaf_an_event_names_stays_a_span(self):
        tracer = Tracer()
        sim = Simulator(seed=1, tracer=tracer, obs=FlightRecorder())

        def emits(sim):
            sim.obs.emit("cache.update", node="n0", key="k")
            yield sim.timeout(1.0)

        spans = self._leaf_under_parent(sim, tracer, emits)
        assert sorted(spans) == ["invoke", "read"]
        (event,) = sim.obs.events()
        assert event.span == spans["read"].span_id

    def test_a_leaf_without_an_open_parent_stays_a_span(self, sim, tracer):
        def proc(sim):
            leaf = tracer.span("read", "op", leaf=READ, scheme="s")
            yield sim.timeout(2.0)
            leaf.end()

        sim.spawn(proc(sim))
        sim.run()
        (span,) = tracer.spans
        assert (span.name, span.duration_ms) == ("read", 2.0)


class TestStepRule:
    """A step opens no span: it is counted on the span it runs under,
    names that span if it is an open leaf, and is filed as a span of its
    own if that span ended first."""

    @pytest.fixture
    def session(self):
        # Four nodes, one app; "k" is homed on node0.
        s = Session.compose(config=SimConfig(num_nodes=4), seed=7,
                            trace=True, obs=True, app="t")
        s.preload({"k": DataItem("v0", 256)})
        return s

    @staticmethod
    def drive(session, op):
        sim = session.sim
        return sim.run_until_complete(sim.spawn(op),
                                      limit=sim.now + 60_000.0)

    def test_a_step_names_the_leaf_it_runs_under(self):
        """A read miss at its own home stays on node0: under an open
        ``invoke``, with no recorder event to name it, the home op and
        its storage read name the ``op`` leaf, so it is filed carrying
        both instead of being folded into the ``invoke``."""
        s = Session.compose(config=SimConfig(num_nodes=4), seed=7,
                            trace=True, app="t")
        s.preload({"k": DataItem("v0", 256)})

        def invocation():
            with s.tracer.span("f", "invoke", parent=None):
                yield from s.system.read("node0", "k")

        self.drive(s, invocation())
        spans = {span["category"]: span for span in s.tracer.to_dicts()
                 if span["category"] in ("invoke", "op")}
        op, invoke = spans["op"], spans["invoke"]
        assert (op["parent_id"], op["attrs"]["node"]) == (
            invoke["span_id"], "node0")
        steps = {label: count
                 for label, count, _ms in folded_leaves(op["attrs"])}
        assert steps == {"agent:home_read": 1, "storage:read": 1}
        assert op["attrs"]["agent:home_read.ms"] == pytest.approx(
            op["attrs"]["storage:read.ms"])
        assert list(folded_leaves(invoke["attrs"])) == []

    @staticmethod
    def lose_node1_ack(session):
        """node1 and node2 share "k"; every node1 -> node0 message drops."""
        TestStepRule.drive(session, session.system.read("node1", "k"))
        TestStepRule.drive(session, session.system.read("node2", "k"))
        now = session.sim.now
        session.cluster.network.fault_rules().add_drop(
            now, now + 20_000.0, 1.0, src="node1", dst="node0")

    def test_a_lost_ack_blames_the_silent_sharer_not_the_home(self, session):
        """node0's wait on node1's lost ack is nested in node3's ``write``
        call, so it inherits that call's deadline less a hop and times out
        first: node1 is reported, the live home never is, and the write
        commits."""
        self.lose_node1_ack(session)
        self.drive(session, session.system.write("node3", "k",
                                                 DataItem("v1", 256)))
        assert session.cluster.storage.peek("k").value == DataItem("v1", 256)
        events = session.obs.events()
        declared = [e.attrs["member"] for e in events
                    if e.type == "member.declare"]
        assert "node0" not in declared
        timeouts = [(e.node, e.attrs["dst"], e.attrs["method"])
                    for e in events if e.type == "rpc.timeout"]
        assert timeouts == [("node0/concord-t", "node1/concord-t",
                             "invalidate")]

    def test_a_step_that_outlives_its_span_is_filed(self, session):
        """node1's invalidation ack is dropped, and node3 crashes while
        node0's home write waits on it, ending the caller's ``rpc:write``
        span first: the home write (and the lost invalidation) are filed
        as spans under the ended ``rpc`` span, not dropped."""
        self.lose_node1_ack(session)
        sim = session.sim
        writer = sim.spawn(session.system.write("node3", "k",
                                                DataItem("v1", 256)))
        session.cluster.nodes["node3"].scope.join(writer)
        sim.run(until=sim.now + 100.0)  # node2's ack is back by now
        session.cluster.crash_node("node3")
        sim.run(until=sim.now + 10_000.0)
        spans = {span["span_id"]: span for span in session.tracer.to_dicts()}
        (home_write,) = [span for span in spans.values()
                         if span["category"] == "agent"]
        assert home_write["name"] == "home_write"
        caller = spans[home_write["parent_id"]]
        assert caller["name"] == "rpc:write"
        assert caller["end_ms"] < home_write["end_ms"]
        (lost,) = [span for span in spans.values()
                   if span["category"] == "invalidation"]
        assert lost["parent_id"] == caller["span_id"]
        # node2's invalidation ended in time: a count on the caller.
        assert caller["attrs"]["invalidation:invalidate.n"] == 1

    def test_a_crash_ends_what_the_home_write_spawned(self, session):
        """The same lost ack, but ``node0`` crashes while its home write
        waits on it with the write-through in flight: the write's
        ``inv:`` children and ``wt:`` write-through end in the crash's
        instant (they are in the handler's scope), and the write never
        commits."""
        self.lose_node1_ack(session)
        sim = session.sim
        spawned = {}
        spawn = sim.spawn

        def recording_spawn(generator, name="", daemon=False):
            spawned[name] = process = spawn(generator, name, daemon)
            return process

        sim.spawn = recording_spawn

        def writer():
            try:
                yield from session.system.write("node3", "k",
                                                DataItem("v1", 256))
            except RpcError:
                pass  # the home crashed

        sim.spawn(writer())
        while "wt:k" not in spawned:
            sim.step()
        sim.run(until=sim.now + 1.0)
        children = [spawned[name]
                    for name in ("inv:k:node1", "inv:k:node2", "wt:k")]
        assert [child.is_alive for child in children] == [True, True, True]
        session.cluster.crash_node("node0")
        sim.run(until=sim.now)
        assert [child.is_alive for child in children] == [False] * 3
        sim.run(until=sim.now + 1000.0)
        assert session.cluster.storage.peek("k").value == DataItem("v0", 256)


@pytest.fixture(scope="module")
def golden():
    """The golden all-signals run: its span dicts and registry."""
    result = run_mixed_workload(**_MIXED, trace=True, metrics=True, obs=True)
    return result.tracer.to_dicts(), result.metrics, result.obs


class TestGoldenRun:
    def test_breakdown_counts_every_step_as_when_each_was_a_span(
            self, golden):
        """Counts and totals (at the 2 decimals ``repro-trace`` prints)
        as the trace read when every step was a span of its own."""
        spans, _, _ = golden
        totals = {category: (row["count"], round(row["total_ms"], 2))
                  for category, row in category_totals(spans).items()}
        assert totals == {
            "agent": (2964, 70271.18), "compute": (12109, 12874.42),
            "invalidation": (354, 1668.16), "invoke": (1622, 143524.91),
            "op": (13418, 130650.49), "request": (440, 143744.91),
            "rpc": (2771, 62897.75), "rpc.server": (2801, 55666.11),
            "storage": (2598, 78224.31)}
        ops = {key: (row["count"], round(row["total_ms"], 2))
               for key, row in op_breakdown(spans).items()}
        assert ops == {("concord", "read"): (11735, 59976.01),
                       ("concord", "write"): (1683, 70674.48)}

    def test_signal_volume_per_request(self, golden):
        """Per finished request (all 440, warmup included): 18.7 spans
        (32.2 with a span per protocol step, 88.8 when every step was a
        span) and 4.4 stored telemetry points (11.0 when every tick was
        stored)."""
        spans, registry, _ = golden
        requests = sum(1 for span in spans if span["category"] == "request")
        assert requests == 440
        assert len(spans) / requests <= 20.0
        assert registry.store.stored_points() / requests <= 5.0

    def test_every_named_span_was_filed(self, golden):
        """Nothing refers to a folded leaf: every parent id and every
        event's span id is a span of the export."""
        spans, _, recorder = golden
        ids = {span["span_id"] for span in spans}
        assert {span["parent_id"] for span in spans} - ids == {None}
        assert {event.span for event in recorder.events()} - ids <= {0}


def test_folded_trace_matches_the_platform_counters():
    """fig01's trace-vs-counter check on a Concord run, which — unlike
    fig01's ``nocache`` platform — has local hits to fold: per app, the
    trace's storage and compute time equal the platform's totals."""
    apps = ("SocNet", "HotelBook")
    s = Session(seed=7, nodes=4, cores_per_node=4, scheme="concord",
                apps=apps, trace=True)
    for name in apps:
        s.sim.spawn(s.platform.open_loop(name, 40.0, 2500.0,
                                         s.factories[name]),
                    name=f"load:{name}")
    s.sim.run(until=5000.0)
    spans = s.tracer.to_dicts()
    folded_ops = sum(count for span in spans
                     for label, count, _ms in folded_leaves(span["attrs"])
                     if label.startswith("op:"))
    assert folded_ops > 1000
    traced = per_app_requests(spans)
    for name in apps:
        app = s.deployed[name]
        row = traced[name]
        assert row["requests"] == app.requests_completed
        for column, total in (("storage_ms", app.storage_ms_total),
                              ("compute_ms", app.compute_ms_total)):
            assert row[column] * row["requests"] == pytest.approx(
                total, rel=1e-3)
