"""The run's id allocator, ``Simulator.ids``."""

from repro.sim import Simulator


def test_one_counter_per_name_and_per_run():
    sim = Simulator()
    rpc = sim.ids("rpc")
    assert sim.ids("rpc") is rpc
    assert [next(rpc), next(sim.ids("rpc"))] == [1, 2]
    assert next(sim.ids("txn")) == 1          # names are independent
    assert next(Simulator().ids("rpc")) == 1  # and so are runs
    assert next(rpc) == 3
