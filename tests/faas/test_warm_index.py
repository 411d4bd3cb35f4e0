"""The warm-container index agrees with a scan of every container.

``Node.by_function`` indexes a node's containers by ``(app, function)``;
``containers_of`` and ``FaasPlatform.warm_nodes`` read it instead of
filtering lists.  The reference here is the filtering the index replaced,
run over ``Node.containers`` itself, checked after every step of random
deploy / invoke / collect / crash / restart sequences.  ``CasScheduler``
memoises its salted hashes; its picks must equal the unmemoised ones.
"""

import pytest

from repro.caching import DirectStorage
from repro.cluster import Cluster
from repro.config import SimConfig
from repro.faas import AppSpec, CasScheduler, FaasPlatform, FunctionSpec
from repro.faas.scheduler import _hash
from repro.sim import Simulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NODES = 4
APPS = ("a", "b")
FUNCTIONS = ("f0", "f1")


def reference_containers_of(node, app, function=None):
    """The scan the index replaced, over the node's container table."""
    return [c for c in node.containers.values()
            if c.app == app and (function is None or c.function == function)]


def reference_warm_nodes(cluster, app, function):
    return [node for node_id in app.node_ids
            if (node := cluster.nodes.get(node_id)) is not None
            and node.alive
            and reference_containers_of(node, app.spec.name, function)]


def _spec(name):
    def handler(ctx):
        yield from ctx.compute(2.0)
        return ctx.function

    spec = AppSpec(name=name)
    for function in FUNCTIONS:
        spec.add_function(FunctionSpec(function, handler))
    return spec


_node = st.integers(0, NODES - 1)
_step = st.one_of(
    st.tuples(st.just("deploy"), st.integers(0, len(APPS) - 1),
              st.booleans(), st.lists(_node, min_size=1, max_size=NODES,
                                      unique=True)),
    st.tuples(st.just("invoke"), st.integers(0, len(APPS) - 1),
              st.integers(0, 5)),
    st.tuples(st.just("advance"), st.sampled_from((1.0, 50.0, 600.0))),
    st.tuples(st.just("collect"), st.sampled_from((0.0, 100.0, 10_000.0))),
    st.tuples(st.just("crash"), _node),
    st.tuples(st.just("restart"), _node),
)


def _check(platform, cluster):
    for node in cluster.nodes.values():
        for app in APPS:
            assert node.containers_of(app) == reference_containers_of(
                node, app)
            for function in FUNCTIONS:
                assert node.containers_of(app, function) == \
                    reference_containers_of(node, app, function)
    for app in platform.apps.values():
        for function in FUNCTIONS:
            assert platform.warm_nodes(app, function) == \
                reference_warm_nodes(cluster, app, function)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=25))
def test_warm_index_agrees_with_a_scan(steps):
    sim = Simulator(seed=3)
    cluster = Cluster(sim, SimConfig(num_nodes=NODES, cores_per_node=1))
    platform = FaasPlatform(cluster, scheduler=CasScheduler())
    for step in steps:
        kind = step[0]
        if kind == "deploy":
            name = APPS[step[1]]
            if name not in platform.apps:
                platform.deploy(_spec(name), DirectStorage(cluster),
                                node_ids=[f"node{i}" for i in step[3]],
                                prewarm=step[2])
        elif kind == "invoke":
            name = APPS[step[1]]
            if name in platform.apps:
                platform.submit(name, {"entity": step[2]})
        elif kind == "advance":
            sim.run(until=sim.now + step[1])
        elif kind == "collect":
            platform.collect_idle_containers(step[1])
        elif kind == "crash":
            cluster.crash_node(f"node{step[1]}")
        else:
            cluster.restart_node(f"node{step[1]}")
        _check(platform, cluster)
    sim.run(until=sim.now + 2_000.0)
    _check(platform, cluster)


def test_the_sequence_reaches_every_index_path():
    """Guard against a vacuous check: prewarm, a cold start, eviction by
    the idle collector, and a restart that empties a node."""
    sim = Simulator(seed=3)
    cluster = Cluster(sim, SimConfig(num_nodes=NODES, cores_per_node=1))
    platform = FaasPlatform(cluster, scheduler=CasScheduler())
    app = platform.deploy(_spec("a"), DirectStorage(cluster),
                          node_ids=["node0"], prewarm=True)
    _check(platform, cluster)
    cluster.crash_node("node0")
    platform.submit("a", {"entity": 1})  # nothing warm alive: cold start
    sim.run(until=sim.now + 1_500.0)
    assert app.cold_starts >= 1
    _check(platform, cluster)
    assert platform.collect_idle_containers(0.0) >= 1
    _check(platform, cluster)
    cluster.restart_node("node0")
    assert cluster.node("node0").by_function == {}
    _check(platform, cluster)


class _FakeNode:
    def __init__(self, node_id, overloaded, load):
        self.id = node_id
        self.overloaded = overloaded
        self.load = load


def unmemoised_pick(tries, app, inputs, candidates):
    """CasScheduler.pick as it was: one md5 per try per invocation."""
    ordered = sorted(candidates, key=lambda n: n.id)
    key = CasScheduler.data_key(inputs)
    for salt in range(tries):
        node = ordered[_hash(f"{app}/{key}", salt) % len(ordered)]
        if not node.overloaded:
            return node
    healthy = [n for n in ordered if not n.overloaded]
    if healthy:
        return min(healthy, key=lambda n: n.load)
    return min(ordered, key=lambda n: n.load)


_candidates = st.lists(
    st.tuples(st.integers(0, 15), st.booleans(), st.integers(0, 4)),
    min_size=1, max_size=8, unique_by=lambda t: t[0])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tries=st.integers(1, 4),
       picks=st.lists(st.tuples(st.sampled_from(APPS),
                                st.one_of(st.integers(0, 6),
                                          st.none()),
                                _candidates),
                      min_size=1, max_size=12))
def test_memoised_cas_pick_equals_the_unmemoised_pick(tries, picks):
    scheduler = CasScheduler(tries=tries)
    for app, entity, spec in picks:
        candidates = [_FakeNode(f"node{i}", overloaded, load)
                      for i, overloaded, load in spec]
        inputs = {"entity": entity} if entity is not None else {"x": 1}
        assert scheduler.pick(app, "f", inputs, candidates) is \
            unmemoised_pick(tries, app, inputs, candidates)
