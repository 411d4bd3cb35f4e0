"""Context propagation across RPC, timeout/retry paths, and full ops."""

import pytest

from repro.config import LatencyModel, SimConfig
from repro.net import Endpoint, Network, Reply, RpcTimeout
from repro.obs.events import INV_SEND
from repro.session import Session
from repro.sim import Simulator
from repro.storage import DataItem
from repro.trace import Tracer
from repro.trace.summary import _steps


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture
def sim(tracer):
    return Simulator(seed=7, tracer=tracer)


@pytest.fixture
def net(sim):
    return Network(sim, LatencyModel())


def echo_handler(endpoint, src, args):
    return Reply(args)
    yield  # pragma: no cover - generator marker


class TestRpcPropagation:
    def test_server_span_joins_client_trace(self, sim, net, tracer):
        """A call's server side joins the client's trace: the handler
        runs in the client ``rpc`` span's context, and the serving
        interval rides back on the response onto that span — separable
        from the network time on either side — instead of being filed
        as an ``rpc.server`` span of its own."""
        seen = {}

        def echo(endpoint, src, args):
            seen["ctx"] = tracer.current()
            yield endpoint.sim.timeout(3.0)
            return Reply(args)

        server = Endpoint(net, "node1", "svc", service_time_ms=0.5)
        server.register_handler("echo", echo)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            with tracer.span("op", "op", parent=None):
                yield from client.call("node1/svc", "echo", "x", timeout=500.0)

        sim.spawn(caller(sim))
        sim.run()
        by_name = {s.name: s for s in tracer.spans}
        assert sorted(by_name) == ["op", "rpc:echo"]
        op, rpc = by_name["op"], by_name["rpc:echo"]
        assert rpc.trace_id == op.trace_id
        assert rpc.parent_id == op.span_id
        assert seen["ctx"] == rpc.context
        start, end = rpc.attrs["server_start_ms"], rpc.attrs["server_end_ms"]
        assert rpc.start_ms < start < end < rpc.end_ms
        # The service slice and the handler's 3 ms, nothing of the wire.
        assert end - start == pytest.approx(3.5)

    def test_a_crashed_handler_files_its_serving_interval(self, sim, net,
                                                          tracer):
        """No response carries the interval of a handler a crash
        interrupts, so it is filed as an ``rpc.server`` span."""
        def stall(endpoint, src, args):
            yield endpoint.sim.timeout(50.0)
            return Reply(args)

        server = Endpoint(net, "node1", "svc")
        server.register_handler("stall", stall)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            with tracer.span("op", "op", parent=None):
                try:
                    yield from client.call("node1/svc", "stall", "x",
                                           timeout=100.0)
                except RpcTimeout:
                    pass

        sim.spawn(caller(sim))
        sim.run(until=10.0)
        server.scope.cancel("node failure")
        sim.run()
        by_name = {s.name: s for s in tracer.spans}
        rpc, serve = by_name["rpc:stall"], by_name["serve:stall"]
        assert serve.category == "rpc.server"
        assert serve.parent_id == rpc.span_id
        assert rpc.start_ms < serve.start_ms < serve.end_ms == 10.0
        assert "server_start_ms" not in rpc.attrs
        assert server.scope.members == []

    def test_notify_carries_context_to_handler(self, sim, net, tracer):
        seen = {}

        def sink(endpoint, src, args):
            seen["ctx"] = tracer.current()
            return None
            yield  # pragma: no cover - generator marker

        server = Endpoint(net, "node1", "svc")
        server.register_handler("drop", sink)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            with tracer.span("op", "op", parent=None) as op:
                seen["op"] = op.context
                client.notify("node1/svc", "drop", "x")
                yield sim.timeout(50.0)

        sim.spawn(caller(sim))
        sim.run()
        # The handler runs inside its serve: span, which is a child of
        # the notifying operation — the notify carried the context over.
        assert seen["ctx"].trace_id == seen["op"].trace_id
        serve = next(s for s in tracer.spans if s.name == "serve:drop")
        assert serve.parent_id == seen["op"].span_id
        assert seen["ctx"] == serve.context

    def test_timeout_marks_span_and_restores_context(self, sim, net, tracer):
        client = Endpoint(net, "node0", "svc")
        outcome = {}

        def caller(sim):
            with tracer.span("op", "op", parent=None) as op:
                try:
                    yield from client.call("node9/gone", "echo", "x",
                                           timeout=100.0)
                except RpcTimeout:
                    outcome["ctx_after"] = tracer.current()
                    outcome["op"] = op.context

        sim.spawn(caller(sim))
        sim.run()
        # The failed rpc span closed and handed the context back to the op.
        assert outcome["ctx_after"] == outcome["op"]
        rpc = next(s for s in tracer.spans if s.name == "rpc:echo")
        assert rpc.attrs["status"] == "timeout"
        assert rpc.duration_ms == pytest.approx(100.0)
        assert tracer.open_spans() == []

    def test_retry_after_timeout_joins_same_trace(self, sim, net, tracer):
        server = Endpoint(net, "node1", "svc")
        server.register_handler("echo", echo_handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            with tracer.span("op", "op", parent=None):
                try:
                    yield from client.call("node9/gone", "echo", "x",
                                           timeout=100.0)
                except RpcTimeout:
                    pass
                yield from client.call("node1/svc", "echo", "x", timeout=500.0)

        sim.spawn(caller(sim))
        sim.run()
        op = next(s for s in tracer.spans if s.name == "op")
        rpcs = [s for s in tracer.spans if s.name == "rpc:echo"]
        assert len(rpcs) == 2
        assert all(s.trace_id == op.trace_id for s in rpcs)
        assert all(s.parent_id == op.span_id for s in rpcs)


class TestConcordEndToEnd:
    @pytest.fixture
    def session(self, tracer):
        s = Session.compose(config=SimConfig(num_nodes=4), seed=7,
                            trace=tracer, obs=True, app="t")
        s.preload({"k": DataItem("v0", 256)})
        return s

    @pytest.fixture
    def sim(self, session):
        return session.sim

    @pytest.fixture
    def system(self, session):
        return session.system

    def drive(self, sim, op):
        return sim.run_until_complete(sim.spawn(op), limit=sim.now + 60_000.0)

    def test_no_leaked_spans_after_drain(self, sim, tracer, system):
        self.drive(sim, system.read("node1", "k"))
        self.drive(sim, system.read("node2", "k"))
        self.drive(sim, system.write("node3", "k", DataItem("v1", 256)))
        sim.run(until=sim.now + 10_000.0)
        assert tracer.open_spans() == []

    def test_op_spans_match_recorded_histograms_exactly(self, sim, tracer,
                                                        system):
        self.drive(sim, system.read("node1", "k"))
        self.drive(sim, system.read("node2", "k"))
        self.drive(sim, system.write("node3", "k", DataItem("v1", 256)))
        hist_total = sum(
            histogram.mean * histogram.count
            for histogram in system.stats.latency.values())
        op_total = sum(s.duration_ms for s in tracer.spans
                       if s.category == "op")
        assert op_total == pytest.approx(hist_total, abs=1e-9)

    def test_write_produces_one_invalidation_span_per_sharer(
            self, session, sim, tracer, system):
        """One invalidation step per sharer, in the write's trace.  The
        steps are counts on the span the home write ran under; the
        sharer each went to is on its ``inv.send`` recorder event."""
        self.drive(sim, system.read("node1", "k"))
        self.drive(sim, system.read("node2", "k"))
        write = system.write("node0", "k", DataItem("v1", 256))
        self.drive(sim, write)
        spans = tracer.to_dicts()
        write_op = next(s for s in spans
                        if s["category"] == "op" and s["name"] == "write")
        invalidations = sum(
            count for s in spans if s["trace_id"] == write_op["trace_id"]
            for category, _label, count, _ms in _steps(s)
            if category == "invalidation")
        assert sum(count for s in spans for category, _label, count, _ms
                   in _steps(s) if category == "invalidation") == invalidations
        # node1 and node2 held shared copies (the writer and home do not
        # need invalidation RPCs for themselves).
        sends = [e for e in session.obs.events() if e.type == INV_SEND]
        sharers = {e.attrs["sharer"] for e in sends}
        assert invalidations == len(sends) == len(sharers) >= 1
        assert {e.trace for e in sends} == {write_op["trace_id"]}

    def test_request_trace_covers_cross_node_work(self, session, tracer,
                                                  system):
        self.drive(session.sim, system.read("node1", "k"))
        spans = tracer.to_dicts()
        read_op = next(s for s in spans if s["category"] == "op")
        members = [s for s in spans if s["trace_id"] == read_op["trace_id"]]
        categories = {category for s in members
                      for category, _label, _count, _ms in _steps(s)}
        assert {"op", "rpc", "agent", "storage"} <= categories
        # Every call was answered: each rpc span carries the serving
        # interval the server's rpc.server span used to hold.
        rpcs = [s for s in members if s["category"] == "rpc"]
        assert all("server_start_ms" in s["attrs"] for s in rpcs)
        # The home's directory change is a recorder event in the same trace.
        changes = [e for e in session.obs.events() if e.type.startswith("dir.")]
        assert changes
        assert {e.trace for e in changes} == {read_op["trace_id"]}
