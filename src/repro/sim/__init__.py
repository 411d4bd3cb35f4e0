"""Deterministic discrete-event simulation kernel.

A small, dependency-free kernel in the style of SimPy: simulation
*processes* are Python generators that ``yield`` :class:`~repro.sim.events.Event`
objects to wait on.  The :class:`~repro.sim.simulator.Simulator` owns the
event heap and the clock.

Example::

    from repro.sim import Simulator

    sim = Simulator()

    def worker(sim, results):
        yield sim.timeout(5.0)
        results.append(sim.now)

    results = []
    sim.spawn(worker(sim, results))
    sim.run()
    assert results == [5.0]
"""

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, Scope
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "Scope",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
