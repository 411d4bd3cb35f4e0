"""The benchmark's whole import surface of the program under test.

Everything ``perfbench`` uses from ``repro`` is imported here and nowhere
else, so a refactor of ``src/`` can see in one place which public names
it has to keep (the README lists them too).  Public names only: no
``_private`` attribute of any of these objects is read anywhere in
``perfbench``.
"""

from repro.cluster import Cluster
from repro.config import MB, LatencyModel, SimConfig
from repro.coord import CoordinationService
from repro.faas import FaasPlatform
from repro.metrics import Histogram
from repro.net import RegionTopology
from repro.obs import FlightRecorder
from repro.schemes import build_scheme, build_scheme_map, make_scheduler
from repro.sim import Simulator
from repro.storage import DataItem
from repro.telemetry import MetricsRegistry, Sampler
from repro.trace import Tracer
from repro.verify import check_scheme_invariants
from repro.workloads import ALL_PROFILES, build_app, entity_inputs_factory
from repro.workloads.profiles import preload_storage

__all__ = [
    "ALL_PROFILES", "Cluster", "CoordinationService", "DataItem",
    "FaasPlatform", "FlightRecorder", "Histogram", "LatencyModel", "MB",
    "MetricsRegistry", "RegionTopology", "Sampler", "SimConfig",
    "Simulator", "Tracer", "build_app", "build_scheme", "build_scheme_map",
    "check_scheme_invariants", "entity_inputs_factory", "make_scheduler",
    "preload_storage",
]
