"""Unit tests for the RPC layer."""

import pytest

from repro.config import KB, LatencyModel
from repro.net import Endpoint, Network, Reply, RpcError, RpcTimeout
from repro.net.rpc import HOP_MS, RPC_TIMEOUT_MS, DeadlineExceeded
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, LatencyModel())


def echo_handler(endpoint, src, args):
    return Reply(args)
    yield  # pragma: no cover - generator marker


def slow_handler(endpoint, src, args):
    yield endpoint.sim.timeout(50.0)
    return Reply("late")


class TestCall:
    def test_round_trip_value(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        server.register_handler("echo", echo_handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            value = yield from client.call("node1/svc", "echo", {"k": 1})
            return (value, sim.now)

        p = sim.spawn(caller(sim))
        sim.run()
        value, when = p.value
        assert value == {"k": 1}
        # Request and echoed response each carry the 9-byte payload.
        assert when == pytest.approx(2 * net.latency.one_way(sizeof_dict()))

    def test_reply_size_drives_latency(self, sim, net):
        server = Endpoint(net, "node1", "svc")

        def big_handler(endpoint, src, args):
            return Reply("data", size_bytes=200 * KB)
            yield  # pragma: no cover

        server.register_handler("fetch", big_handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            yield from client.call("node1/svc", "fetch", None, size_bytes=0)
            return sim.now

        p = sim.spawn(caller(sim))
        sim.run()
        expected = net.latency.one_way(0) + net.latency.one_way(200 * KB)
        assert p.value == pytest.approx(expected)

    def test_timeout_on_dead_destination(self, sim, net):
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            try:
                yield from client.call("node9/gone", "echo", None, timeout=100.0)
            except RpcTimeout as exc:
                return ("timeout", exc.dst, sim.now)

        p = sim.spawn(caller(sim))
        sim.run()
        assert p.value == ("timeout", "node9/gone", 100.0)

    def test_timeout_when_server_crashes_mid_call(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        server.register_handler("slow", slow_handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            try:
                yield from client.call("node1/svc", "slow", None, timeout=200.0)
            except RpcTimeout:
                return "timeout"

        def crasher(sim):
            yield sim.timeout(10.0)  # after request delivered, before reply
            net.fail_node("node1")

        p = sim.spawn(caller(sim))
        sim.spawn(crasher(sim))
        sim.run()
        assert p.value == "timeout"

    def test_unknown_method_raises_rpc_error(self, sim, net):
        Endpoint(net, "node1", "svc")
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            try:
                yield from client.call("node1/svc", "nope", None)
            except RpcError as exc:
                return str(exc)

        p = sim.spawn(caller(sim))
        sim.run()
        assert "no handler" in p.value

    def test_handler_rpc_error_propagates(self, sim, net):
        server = Endpoint(net, "node1", "svc")

        def failing(endpoint, src, args):
            raise RpcError("declined")
            yield  # pragma: no cover

        server.register_handler("fail", failing)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            try:
                yield from client.call("node1/svc", "fail", None)
            except RpcError as exc:
                return str(exc)

        p = sim.spawn(caller(sim))
        sim.run()
        assert p.value == "declined"

    def test_late_response_after_timeout_is_ignored(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        server.register_handler("slow", slow_handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            try:
                yield from client.call("node1/svc", "slow", None, timeout=5.0)
            except RpcTimeout:
                pass
            yield sim.timeout(500.0)
            return "done"

        p = sim.spawn(caller(sim))
        sim.run()
        assert p.value == "done"

    def test_concurrent_calls_multiplex(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        server.register_handler("echo", echo_handler)
        client = Endpoint(net, "node0", "svc")
        results = []

        def caller(sim, tag):
            value = yield from client.call("node1/svc", "echo", tag)
            results.append(value)

        for tag in ("a", "b", "c"):
            sim.spawn(caller(sim, tag))
        sim.run()
        assert sorted(results) == ["a", "b", "c"]


class TestDeadlines:
    """A call's budget is its chain's: a handler's nested calls wait only
    what is left of the request's deadline, less a hop."""

    def relay(self, net, nested):
        """node1/svc "relay" runs ``nested(endpoint)`` and answers with
        its result; node0/svc is the client."""
        def relay_handler(endpoint, src, args):
            return Reply((yield from nested(endpoint, args)))

        Endpoint(net, "node1", "svc").register_handler("relay", relay_handler)
        return Endpoint(net, "node0", "svc")

    def test_a_nested_call_times_out_a_hop_before_its_caller(self, sim, net):
        fired = []

        def nested(endpoint, args):
            try:
                yield from endpoint.call("node9/gone", "echo", None)
            except RpcTimeout as exc:
                fired.append(sim.now)
                return ("inner timed out", exc.timeout % HOP_MS)

        client = self.relay(net, nested)
        p = sim.spawn(client.call("node1/svc", "relay", None))
        sim.run()
        assert p.value == ("inner timed out", 0.0)
        assert fired[0] <= RPC_TIMEOUT_MS - HOP_MS

    def test_a_call_outside_any_handler_gets_the_full_budget(self, sim, net):
        client = Endpoint(net, "node0", "svc")

        def caller():
            try:
                yield from client.call("node9/gone", "echo", None)
            except RpcTimeout as exc:
                return exc.timeout, sim.now

        p = sim.spawn(caller())
        sim.run()
        assert p.value == (RPC_TIMEOUT_MS, RPC_TIMEOUT_MS)

    def test_a_daemon_a_handler_spawns_gets_the_full_budget(self, sim, net):
        budgets = []

        def background(endpoint):
            try:
                yield from endpoint.call("node9/gone", "echo", None)
            except RpcTimeout as exc:
                budgets.append(exc.timeout)

        def nested(endpoint, args):
            sim.spawn(background(endpoint), daemon=True)
            return "spawned"
            yield  # pragma: no cover - generator marker

        client = self.relay(net, nested)
        p = sim.spawn(client.call("node1/svc", "relay", None, timeout=1000.0))
        sim.run()
        assert (p.value, budgets) == ("spawned", [RPC_TIMEOUT_MS])

    def test_a_spent_budget_sends_nothing_and_blames_nobody(self, sim, net):
        seen = []

        def nested(endpoint, args):
            sent = net.stats.messages
            try:
                yield from endpoint.call("node2/svc", "echo", None)
            except DeadlineExceeded as exc:
                seen.append((net.stats.messages - sent,
                             isinstance(exc, RpcTimeout), endpoint.timeouts))
            return "late"

        client = self.relay(net, nested)
        # Less than two hops left on arrival: nothing to give a nested call.
        p = sim.spawn(client.call("node1/svc", "relay", None,
                                  timeout=2 * HOP_MS - 1.0))
        sim.run()
        assert (p.value, seen) == ("late", [(0, False, 0)])

    def test_nested_budgets_share_a_bounded_set_of_lanes(self, sim, net):
        Endpoint(net, "node2", "svc").register_handler("echo", echo_handler)

        def nested(endpoint, wait):
            yield sim.sleep(wait)
            return (yield from endpoint.call("node2/svc", "echo", wait))

        client = self.relay(net, nested)
        calls = [sim.spawn(client.call("node1/svc", "relay", index * 37.3))
                 for index in range(100)]
        sim.run()
        assert [call.value for call in calls] == [i * 37.3 for i in range(100)]
        assert len(sim._lanes) <= RPC_TIMEOUT_MS / HOP_MS + 2


class TestNotify:
    def test_notify_invokes_handler_without_response(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        seen = []

        def handler(endpoint, src, args):
            seen.append((src, args))
            return None
            yield  # pragma: no cover

        server.register_handler("ping", handler)
        client = Endpoint(net, "node0", "svc")
        client.notify("node1/svc", "ping", "hello")
        sim.run()
        assert seen == [("node0/svc", "hello")]
        # Only the request traveled; no response message.
        assert net.stats.messages == 1


class TestEndpointLifecycle:
    def test_close_unregisters(self, sim, net):
        ep = Endpoint(net, "node0", "svc")
        ep.close()
        assert net.endpoint("node0/svc") is None
        # Address can be reused after close.
        Endpoint(net, "node0", "svc")

    def test_crash_interrupts_inflight_handler(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        progress = []

        def handler(endpoint, src, args):
            progress.append("start")
            yield endpoint.sim.timeout(100.0)
            progress.append("finish")  # must never run

        server.register_handler("work", handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            try:
                yield from client.call("node1/svc", "work", None, timeout=50.0)
            except RpcTimeout:
                pass

        def crasher(sim):
            yield sim.timeout(10.0)
            # Cluster.crash_node: cancel the node's scope, silence it.
            sim.scopes.child("node1").cancel("node crash")
            net.fail_node("node1")

        sim.spawn(caller(sim))
        sim.spawn(crasher(sim))
        sim.run()
        assert progress == ["start"]
        assert server.scope.members == []

    def test_reply_to_a_removed_endpoint_skips_its_successor(self, sim, net):
        # A cache instance is removed and re-created at the same address.
        # The predecessor's call is answered after the successor issued
        # its own; the old reply must not complete the new call.
        def answer_after(delay):
            def handler(endpoint, src, args):
                yield endpoint.sim.timeout(delay)
                return Reply(endpoint.node_id)
            return handler

        for node, delay in (("node1", 50.0), ("node2", 500.0)):
            Endpoint(net, node, "svc").register_handler(
                "who", answer_after(delay))
        old = Endpoint(net, "node0", "svc")
        sim.spawn(old.call("node1/svc", "who"), daemon=True)

        def successor(sim):
            yield sim.timeout(10.0)
            old.close()
            new = Endpoint(net, "node0", "svc")
            return (yield from new.call("node2/svc", "who"))

        p = sim.spawn(successor(sim))
        sim.run()
        assert p.value == "node2"


class TestMetaPiggyback:
    """Scheme metadata rides requests and replies (the causal scheme's
    vector clocks use exactly this channel)."""

    def test_request_meta_reaches_meta_handler(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        seen = []

        def handler(endpoint, src, args, meta):
            seen.append(meta)
            return Reply("ok")
            yield  # pragma: no cover - generator marker

        server.register_handler("put", handler, meta=True)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            return (yield from client.call(
                "node1/svc", "put", "payload", meta={"vc": 3}))

        p = sim.spawn(caller(sim))
        sim.run()
        assert p.value == "ok"
        assert seen == [{"vc": 3}]

    def test_plain_handler_never_sees_meta(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        server.register_handler("echo", echo_handler)  # 3-arg handler
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            return (yield from client.call(
                "node1/svc", "echo", "x", meta="ignored"))

        p = sim.spawn(caller(sim))
        sim.run()
        assert p.value == "x"

    def test_reply_meta_returned_with_with_meta(self, sim, net):
        server = Endpoint(net, "node1", "svc")

        def handler(endpoint, src, args):
            return Reply("value", meta=("clock", 7))
            yield  # pragma: no cover - generator marker

        server.register_handler("get", handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            return (yield from client.call(
                "node1/svc", "get", None, with_meta=True))

        p = sim.spawn(caller(sim))
        sim.run()
        assert p.value == ("value", ("clock", 7))

    def test_reply_meta_defaults_to_none(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        server.register_handler("echo", echo_handler)
        client = Endpoint(net, "node0", "svc")

        def caller(sim):
            return (yield from client.call(
                "node1/svc", "echo", "x", with_meta=True))

        p = sim.spawn(caller(sim))
        sim.run()
        assert p.value == ("x", None)

    def test_notify_carries_meta(self, sim, net):
        server = Endpoint(net, "node1", "svc")
        seen = []

        def handler(endpoint, src, args, meta):
            seen.append((args, meta))
            return Reply(True)
            yield  # pragma: no cover - generator marker

        server.register_handler("repl", handler, meta=True)
        client = Endpoint(net, "node0", "svc")
        client.notify("node1/svc", "repl", ("k", 1), size_bytes=8,
                      meta={"n0": 1})
        sim.run()
        assert seen == [(("k", 1), {"n0": 1})]


def sizeof_dict():
    """Size of the {"k": 1} request payload used above."""
    return 1 + 8


class TestCrashReturnsServiceSlots:
    """Cancelling the endpoint's scope must free the server slot and the
    CPU, and leave no member behind."""

    def _server(self, sim, net):
        from repro.sim.resources import Resource

        cpu = Resource(sim, capacity=1, name="cores")
        server = Endpoint(net, "node1", "svc", service_time_ms=5.0, cpu=cpu)
        server.register_handler("echo", echo_handler)
        return server, cpu

    def _fire(self, sim, net, count):
        client = Endpoint(net, "node0", "svc")
        for _ in range(count):
            client.notify("node1/svc", "echo", None)

    def test_queued_handler_killed_with_the_served_one(self, sim, net):
        server, cpu = self._server(sim, net)
        self._fire(sim, net, 2)
        sim.run(until=2.0)  # one in its service slice, one queued behind it
        assert (server._server.in_use, server._server.queue_length) == (1, 1)
        assert cpu.in_use == 1
        server.scope.cancel("node failure")
        sim.run(until=50.0)
        assert (server._server.in_use, server._server.queue_length) == (0, 0)
        assert (cpu.in_use, cpu.queue_length) == (0, 0)
        assert server.scope.members == []

    def test_handler_killed_while_queued_for_the_cpu(self, sim, net):
        server, cpu = self._server(sim, net)
        cpu.acquire()  # something else is computing on the node
        self._fire(sim, net, 1)
        sim.run(until=2.0)
        assert (cpu.in_use, cpu.queue_length) == (1, 1)
        server.scope.cancel("node failure")
        sim.run(until=50.0)
        cpu.release()
        assert (cpu.in_use, cpu.queue_length) == (0, 0)
        assert server._server.in_use == 0
        assert server.scope.members == []

    def test_handler_killed_on_the_uncontended_grant_hop(self, sim, net):
        server, cpu = self._server(sim, net)
        self._fire(sim, net, 1)
        while server._server.in_use == 0:
            sim.step()
        server.scope.cancel("node failure")
        sim.run(until=50.0)
        assert server._server.in_use == 0
        assert cpu.in_use == 0
        assert server.scope.members == []
