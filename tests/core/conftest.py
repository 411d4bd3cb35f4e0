"""Shared fixtures for Concord protocol tests."""

import pytest

from repro.config import SimConfig
from repro.core import ConcordSystem
from repro.session import Session


@pytest.fixture
def config():
    return SimConfig(num_nodes=4, heartbeat_interval_ms=100.0, heartbeat_misses=3)


@pytest.fixture
def session(config):
    # Tests deploy Concord themselves (or through ``concord``) on a
    # cluster and coordination service that cache nothing yet.
    return Session.compose(config=config, seed=42, scheme="nocache")


@pytest.fixture
def sim(session):
    return session.sim


@pytest.fixture
def cluster(session):
    return session.cluster


@pytest.fixture
def coord(session):
    return session.coord


@pytest.fixture
def concord(cluster, coord):
    return ConcordSystem(cluster, app="app1", coord=coord)


def run(sim, gen, limit=60_000.0):
    """Run one operation to completion; ``limit`` is relative to now."""
    return sim.run_until_complete(sim.spawn(gen), limit=sim.now + limit)


@pytest.fixture
def do(sim):
    """Callable running a generator op to completion."""
    def _do(gen, limit=60_000.0):
        return run(sim, gen, limit)
    return _do
