"""Deterministic fault injection (crashes, partitions, brownouts).

A seeded :class:`FaultPlan` schedules fault events; the
:class:`FaultInjector` replays it against a cluster as a simulator
daemon.  Same plan + same simulator seed = byte-identical run, under any
``PYTHONHASHSEED``.  :func:`run_fault_scenario` reports the run's
:func:`~repro.verify.check_run` verdict; the nightly fault matrix
(``scripts/fault_matrix.py``) gates on it and uploads a failing plan as
JSON, which replays exactly.
"""

from repro.faults.injector import FaultInjector
from repro.faults.scenario import ScenarioOutcome, run_fault_scenario
from repro.faults.plan import (
    EVENT_TYPES,
    FaultEvent,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    NetworkPartition,
    NodeCrash,
    NodeRestart,
    RegionPartition,
    StorageBrownout,
)

__all__ = [
    "EVENT_TYPES",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "MessageDelay",
    "MessageDrop",
    "NetworkPartition",
    "NodeCrash",
    "NodeRestart",
    "RegionPartition",
    "ScenarioOutcome",
    "StorageBrownout",
    "run_fault_scenario",
]
