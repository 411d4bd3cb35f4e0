"""The composition root: the one place ``src/repro`` wires a system.

Everything the paper evaluates is one stack — a simulator, a cluster, a
coordination service, a coherence scheme per application and, for the
FaaS experiments, a platform with deployed applications on top.
:class:`Session` builds that stack from data; the experiment runner, the
fault scenario, the scale point and the figure scripts all go through it
(``tests/session/test_single_root.py`` keeps it that way).  The five
public constructors stay supported for code that wants a partial stack.

The blocking facade most scripts want::

    from repro.session import Session
    from repro.storage import DataItem

    with Session(nodes=4, seed=42, scheme="concord") as s:
        s.preload({"k": DataItem("v0", 256)})
        value = s.read("node1", "k")
        s.write("node2", "k", DataItem("v1", 256))

``apps=`` (names from :data:`repro.workloads.ALL_PROFILES`) additionally
builds a :class:`~repro.faas.FaasPlatform` with the scheme's registered
scheduler, preloads and deploys every application and keeps one input
factory per application; ``faults=`` builds a
:class:`~repro.faults.FaultInjector` for that plan::

    s = Session.compose(seed=7, scheme="concord", apps=("SocNet",),
                        faults=plan, shards=4)
    s.injector.start()
    s.sim.spawn(s.platform.open_loop("SocNet", 30.0, 8000.0,
                                     s.factories["SocNet"]))
    s.sim.run(until=12_000.0)

Composition spawns nothing: *when* the injector daemon, the telemetry
sampler and the load processes start decides same-instant event order,
so that stays with the caller.  ``Session(...)`` is ``compose`` plus
starting the sampler, which is what the blocking facade always did.

Schemes are constructed through the :mod:`repro.schemes` registry, so any
registered name works (``concord``, ``faast``, ``ofc``, ``nocache``, ...);
keyword arguments the root does not name are scheme configuration and a
key no registered scheme accepts is a :class:`TypeError`.

``trace=``, ``metrics=`` and ``obs=`` share one contract: ``True``
attaches a fresh :class:`~repro.trace.Tracer` /
:class:`~repro.telemetry.MetricsRegistry` (sampled every
``metrics_interval_ms`` of simulated time) /
:class:`~repro.obs.FlightRecorder`, an instance is used as-is, and a path
string additionally exports there on :meth:`Session.close` (Chrome trace,
JSONL timeline, JSONL event ring — the recorder also auto-dumps to its
path the moment a fault is injected or a checker flags a violation).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.coord import CoordinationService
from repro.faas import FaasPlatform
from repro.net import RegionTopology
from repro.obs import FlightRecorder
from repro.schemes import build_scheme_map, make_scheduler, scheme_spec
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry, Sampler
from repro.trace import Tracer
from repro.workloads import ALL_PROFILES, build_app, entity_inputs_factory
from repro.workloads.profiles import preload_storage

__all__ = ["RunResult", "Session"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`Session.run` drive.

    Carries the operation's return value together with where the
    simulated clock started and stopped, so callers get latency
    accounting without sampling ``sim.now`` around every call.
    """

    #: The driven generator's return value.
    value: object
    #: Simulated clock when the drive started / finished (ms).
    started_ms: float
    finished_ms: float

    @property
    def duration_ms(self) -> float:
        """Simulated milliseconds the operation took."""
        return self.finished_ms - self.started_ms


class Session:
    """A wired simulated cluster running one caching scheme.

    All configuration is keyword-only::

        with Session(nodes=4, seed=42, scheme="concord") as s:
            ...
    """

    def _compose(self, *, nodes: int = 4, seed: int = 42,
                 scheme: str = "concord", app: str = "app", apps=None,
                 cores_per_node: int = 8,
                 config: Optional[SimConfig] = None, regions=None,
                 trace=None, metrics=None, obs=None,
                 metrics_interval_ms: float = 100.0, faults=None,
                 **scheme_cfg):
        """Wire the system.

        ``config`` replaces ``nodes``/``cores_per_node``; ``regions`` (a
        :class:`~repro.net.RegionTopology`, or an int to split the nodes
        round-robin over that many regions) is layered onto either.
        ``apps`` deploys those profiles on a FaaS platform (``app`` only
        names the single scheme instance built without one); ``faults``
        is a :class:`~repro.faults.FaultPlan`; ``scheme_cfg`` goes to
        the scheme builder.
        """
        if config is None:
            config = SimConfig(num_nodes=nodes, cores_per_node=cores_per_node)
        if regions is not None:
            if config.regions is not None:
                raise TypeError("regions= given twice: config.regions is set")
            if isinstance(regions, int):
                regions = RegionTopology.even(
                    [f"node{i}" for i in range(config.num_nodes)],
                    regions=tuple(f"region{i}" for i in range(regions)))
            config = replace(config, regions=regions)
        self._trace = trace
        # isinstance first: an empty Tracer is falsy (len() == 0).
        tracer = None
        if isinstance(trace, Tracer):
            tracer = trace
        elif trace:
            tracer = Tracer()
        self.tracer: Optional[Tracer] = tracer
        self._metrics = metrics
        registry = None
        if metrics:
            registry = (metrics if isinstance(metrics, MetricsRegistry)
                        else MetricsRegistry())
        self.metrics: Optional[MetricsRegistry] = registry
        self._obs = obs
        # isinstance first: an empty FlightRecorder is falsy (len() == 0).
        recorder = None
        if isinstance(obs, FlightRecorder):
            recorder = obs
        elif isinstance(obs, str):
            # Auto-dump to the same path on faults/violations too.
            recorder = FlightRecorder(dump_path=obs)
        elif obs:
            recorder = FlightRecorder()
        self.obs: Optional[FlightRecorder] = recorder
        self.sim = Simulator(seed=seed, tracer=tracer, metrics=registry,
                             obs=recorder)
        self.config = config
        self.cluster = Cluster(self.sim, config)
        self.coord = CoordinationService(self.cluster.network, config)
        self.scheme = scheme
        names = (app,) if apps is None else tuple(apps)
        self.app = names[0]
        #: app name -> scheme instance (a StorageAPI) built through the
        #: registry; shared schemes map every app to one object.
        self.schemes = build_scheme_map(
            scheme, self.cluster, self.coord, names, **scheme_cfg)
        #: The (first) application's scheme instance.
        self.system = self.schemes[self.app]
        #: The FaaS platform, its deployed apps and their per-request
        #: input factories, by app name (``apps=`` only).
        self.platform = None
        self.deployed: dict = {}
        self.factories: dict = {}
        if apps is not None:
            self._deploy(names)
        #: Replays ``faults`` once started (None without a plan).
        self.injector = None
        if faults is not None:
            # Imported here: repro.faults imports this module (scenario).
            from repro.faults.injector import FaultInjector

            # Any scheme exposing restart_instance takes part in node
            # recovery; dedup by identity because shared schemes appear
            # once per app.
            restartable: list = []
            for system in self.schemes.values():
                if (hasattr(system, "restart_instance")
                        and not any(system is seen for seen in restartable)):
                    restartable.append(system)
            self.injector = FaultInjector(
                self.cluster, faults, systems=restartable,
                platform=self.platform)
        #: Fixed-interval telemetry sampler (inert when metrics is off).
        self.sampler = Sampler(self.sim, interval_ms=metrics_interval_ms)

    def _deploy(self, apps) -> None:
        """Build the platform; preload, deploy and seed inputs per app."""
        self.platform = FaasPlatform(
            self.cluster, scheduler=make_scheduler(self.scheme, self.schemes))
        spec = scheme_spec(self.scheme)
        for name in apps:
            profile = ALL_PROFILES[name]
            preload_storage(self.cluster.storage, profile)
            if spec.preload is not None:
                # Schemes acting as the terminal store prime themselves too.
                spec.preload(self.schemes[name], profile)
            self.deployed[name] = self.platform.deploy(
                build_app(profile), self.schemes[name])
            self.factories[name] = entity_inputs_factory(profile, self.sim)

    # wraps: help() and inspect.signature() report _compose's signature.
    @functools.wraps(_compose, assigned=("__doc__",))
    def __init__(self, **settings):
        self._compose(**settings)
        self.sampler.start()

    @classmethod
    def compose(cls, **settings) -> "Session":
        """Wire what ``Session(**settings)`` wires, but start nothing.

        For drivers that decide themselves when ``s.sampler`` and
        ``s.injector`` start relative to their own load processes.
        """
        session = cls.__new__(cls)
        session._compose(**settings)
        return session

    # -- data ----------------------------------------------------------------
    @property
    def storage(self):
        """The cluster's global (durable) storage."""
        return self.cluster.storage

    def preload(self, items: dict) -> None:
        """Populate global storage instantly (no simulated latency)."""
        self.cluster.storage.preload(items)

    # -- driving the clock ---------------------------------------------------
    def run(self, operation, limit_ms: float = 60_000.0) -> RunResult:
        """Drive one operation generator to completion.

        Returns a :class:`RunResult` carrying the operation's value plus
        the simulated start/finish timestamps of the drive.
        """
        started = self.sim.now
        value = self.sim.run_until_complete(
            self.sim.spawn(operation), limit=started + limit_ms)
        return RunResult(value=value, started_ms=started,
                         finished_ms=self.sim.now)

    def read(self, node_id: str, key: str):
        """Read ``key`` from ``node_id`` through the scheme (blocking)."""
        return self.run(self.system.read(node_id, key)).value

    def write(self, node_id: str, key: str, value: object):
        """Write ``key`` at ``node_id`` through the scheme (blocking)."""
        return self.run(self.system.write(node_id, key, value)).value

    def advance(self, ms: float) -> None:
        """Let the simulation run for ``ms`` more milliseconds."""
        self.sim.run(until=self.sim.now + ms)

    # -- tracing -------------------------------------------------------------
    def export_trace(self, path: str) -> None:
        """Write collected spans to ``path`` (Chrome ``trace_event``)."""
        if self.tracer is None:
            raise RuntimeError("session was created without trace=...")
        from repro.trace.export import export_chrome

        export_chrome(self.tracer, path)

    # -- telemetry -----------------------------------------------------------
    def export_metrics(self, path: str) -> None:
        """Write sampled timelines to ``path`` (JSONL)."""
        if self.metrics is None:
            raise RuntimeError("session was created without metrics=...")
        from repro.telemetry.export import export_jsonl

        export_jsonl(self.metrics, path)

    # -- flight recorder -----------------------------------------------------
    def export_obs(self, path: str) -> None:
        """Write the flight recorder's event ring to ``path`` (JSONL)."""
        if self.obs is None:
            raise RuntimeError("session was created without obs=...")
        from repro.obs.export import export_jsonl

        export_jsonl(self.obs, path)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Finish the session; exports trace/timeline/events as requested."""
        self.sampler.stop()
        if self.tracer is not None and isinstance(self._trace, str):
            self.export_trace(self._trace)
        if self.metrics is not None and isinstance(self._metrics, str):
            self.export_metrics(self._metrics)
        if self.obs is not None and isinstance(self._obs, str):
            self.export_obs(self._obs)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.close()
        return False
