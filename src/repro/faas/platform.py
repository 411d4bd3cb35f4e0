"""The FaaS platform: deployment, request execution, load generation.

A request flows through its application's workflow; every function
invocation is scheduled onto a node with a warm container (cold-starting
one if needed), burns CPU on that node and accesses storage through the
application's caching scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.faas.app import AppSpec
from repro.faas.context import InvocationContext
from repro.faas.scheduler import RandomScheduler, Scheduler
from repro.metrics import Histogram
from repro.obs.events import REQ_RESCHEDULE, SCHED_COLD, SCHED_WARM
from repro.sim.errors import Interrupt
from repro.trace.tracer import SpanNames

if TYPE_CHECKING:  # pragma: no cover
    from repro.caching.base import StorageAPI
    from repro.cluster import Cluster, Node
    from repro.sim import Simulator

#: Span names per app / per function.
_REQUEST_SPANS = SpanNames("request:")
_INVOKE_SPANS = SpanNames("invoke:")

#: Frontend request-validation + load-balancer overhead per request.
FRONTEND_OVERHEAD_MS = 0.5
#: Container cold-start penalty (optimized platform, paper Section V).
COLD_START_MS = 500.0
#: Pause before re-running a request whose node crashed mid-invocation.
RESCHEDULE_BACKOFF_MS = 10.0


@dataclass
class RequestResult:
    """Outcome of one end-to-end application request."""

    app: str
    start_ms: float
    end_ms: float
    storage_ms: float
    compute_ms: float
    output: object = None

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class DeployedApp:
    """A deployed application plus its runtime bookkeeping."""

    spec: AppSpec
    storage_api: "StorageAPI"
    node_ids: list
    latency: Histogram = field(default_factory=Histogram)
    storage_ms_total: float = 0.0
    compute_ms_total: float = 0.0
    requests_completed: int = 0
    requests_failed: int = 0
    #: Requests re-run after a mid-invocation crash (node or instance).
    requests_rescheduled: int = 0
    cold_starts: int = 0
    #: Requests admitted but not yet completed (queued + running).
    inflight: int = 0
    #: Run-long totals of request latency and of per-invocation
    #: admission delay; unlike ``latency`` and ``requests_completed``, a
    #: driver's post-warmup reset leaves them alone.
    latency_count: int = 0
    latency_sum_ms: float = 0.0
    sched_delay_count: int = 0
    sched_delay_sum_ms: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def storage_fraction(self) -> float:
        """Fraction of busy time spent in storage (Figure 1)."""
        total = self.storage_ms_total + self.compute_ms_total
        return self.storage_ms_total / total if total else 0.0


class PlacementPolicy:
    """Chooses a node for a brand-new function instance (cold start).

    Conventional platforms place functions independently of each other
    (paper Section IV-B): least-loaded with random tie-breaking, which on
    a lightly loaded cluster effectively scatters the instances.
    """

    def place(self, platform: "FaasPlatform", app: "DeployedApp",
              function: str) -> "Node":
        candidates = [
            platform.cluster.node(nid) for nid in app.node_ids
            if platform.cluster.node(nid).alive
        ] or platform.cluster.alive_nodes()
        lightest = min(n.load for n in candidates)
        pool = [n for n in candidates if n.load == lightest]
        rng = platform.sim.rng.stream("placement")
        return pool[rng.randrange(len(pool))]


class FaasPlatform:
    """Cluster-wide serverless platform."""

    def __init__(
        self,
        cluster: "Cluster",
        scheduler: Optional[Scheduler] = None,
        placement: Optional[PlacementPolicy] = None,
    ):
        self.cluster = cluster
        self.sim: "Simulator" = cluster.sim
        self._invocation_ids = self.sim.ids("invocation")
        self.scheduler = scheduler or RandomScheduler(cluster.sim)
        self.placement = placement or PlacementPolicy()
        self.apps: dict[str, DeployedApp] = {}
        #: How many crash re-runs one submitted request gets.
        self.max_reschedules = 2
        #: app -> interned "req:<app>" spawn name (submit is per-request).
        self._req_names: dict[str, str] = {}

    # -- deployment ------------------------------------------------------------
    def deploy(
        self,
        spec: AppSpec,
        storage_api: "StorageAPI",
        node_ids: Optional[list] = None,
        prewarm: bool = True,
    ) -> DeployedApp:
        """Deploy ``spec`` with containers on ``node_ids`` (all by default)."""
        nodes = list(node_ids) if node_ids is not None else self.cluster.node_ids
        app = DeployedApp(spec=spec, storage_api=storage_api, node_ids=nodes)
        self.apps[spec.name] = app
        if prewarm:
            for node_id in nodes:
                node = self.cluster.node(node_id)
                for function in spec.functions.values():
                    node.add_container(
                        spec.name, function.name,
                        memory_alloc=function.memory_alloc,
                        memory_used=function.memory_used,
                    )
        self._register_app_metrics(app)
        return app

    def _register_app_metrics(self, app: DeployedApp) -> None:
        """Expose per-app request instruments on the sim registry."""
        metrics = self.sim.metrics
        if not metrics.active:
            return
        name = app.name
        metrics.counter(
            "faas_requests_completed_total", "Requests finished end-to-end.",
            labelnames=("app",),
        ).set_callback(lambda: app.requests_completed, app=name)
        metrics.counter(
            "faas_requests_failed_total", "Submitted requests that raised.",
            labelnames=("app",),
        ).set_callback(lambda: app.requests_failed, app=name)
        metrics.counter(
            "faas_requests_rescheduled_total",
            "Requests re-run after a mid-invocation node crash.",
            labelnames=("app",),
        ).set_callback(lambda: app.requests_rescheduled, app=name)
        metrics.counter(
            "faas_cold_starts_total", "Invocations that cold-started.",
            labelnames=("app",),
        ).set_callback(lambda: app.cold_starts, app=name)
        metrics.gauge(
            "faas_inflight_requests",
            "Requests admitted but not yet completed.",
            labelnames=("app",),
        ).set_callback(lambda: app.inflight, app=name)
        latency = "End-to-end request latency."
        metrics.counter(
            "faas_request_latency_ms_count", latency, labelnames=("app",),
        ).set_callback(lambda: app.latency_count, app=name)
        metrics.counter(
            "faas_request_latency_ms_sum", latency, labelnames=("app",),
        ).set_callback(lambda: app.latency_sum_ms, app=name)
        delay = ("Admission-to-execution delay per invocation "
                 "(scheduling, placement, cold start).")
        metrics.counter(
            "faas_scheduling_delay_ms_count", delay, labelnames=("app",),
        ).set_callback(lambda: app.sched_delay_count, app=name)
        metrics.counter(
            "faas_scheduling_delay_ms_sum", delay, labelnames=("app",),
        ).set_callback(lambda: app.sched_delay_sum_ms, app=name)

    def warm_nodes(self, app: DeployedApp, function: str) -> list:
        """Alive nodes holding a warm container of ``function``."""
        key = (app.spec.name, function)
        nodes = self.cluster.nodes
        return [
            node
            for node_id in app.node_ids
            if (node := nodes.get(node_id)) is not None
            and node.alive
            and node.by_function.get(key)
        ]

    # -- request execution -------------------------------------------------------
    def request(self, app_name: str, inputs: Optional[dict] = None):
        """Execute one request end-to-end (generator; returns RequestResult).

        When tracing, each request opens a fresh root ``request`` span
        (``parent=None``), so everything the request causes — function
        invocations, cache-agent work, invalidation fan-out, storage round
        trips, even on other nodes — forms one trace tree per request.
        """
        tracer = self.sim.tracer
        span = (tracer.span(_REQUEST_SPANS[app_name], "request", parent=None,
                            app=app_name) if tracer.active else None)
        try:
            app = self.apps[app_name]
            inputs = dict(inputs or {})
            start = self.sim.now
            storage_ms = compute_ms = 0.0
            app.inflight += 1
            try:
                yield self.sim.sleep(FRONTEND_OVERHEAD_MS)
                output = None
                for function_name in app.spec.workflow:
                    ctx, result = yield from self._invoke(
                        app, function_name, inputs)
                    storage_ms += ctx.storage_ms
                    compute_ms += ctx.compute_ms
                    output = result
                    inputs = {**inputs, "prev": result}
            finally:
                app.inflight -= 1
            result = RequestResult(
                app=app_name, start_ms=start, end_ms=self.sim.now,
                storage_ms=storage_ms, compute_ms=compute_ms, output=output,
            )
            latency = result.latency_ms
            app.latency.record(latency)
            app.latency_count += 1
            app.latency_sum_ms += latency
            app.storage_ms_total += storage_ms
            app.compute_ms_total += compute_ms
            app.requests_completed += 1
            return result
        finally:
            if span is not None:
                span.end()

    def _invoke(self, app: DeployedApp, function_name: str, inputs: dict):
        """Schedule and run one function invocation (generator).

        Returns ``(ctx, handler_result)``; traced, it runs under an
        ``invoke`` span.  Public as :attr:`invoke`.
        """
        app_name = app.spec.name
        tracer = self.sim.tracer
        span = (tracer.span(_INVOKE_SPANS[function_name], "invoke",
                            app=app_name, function=function_name)
                if tracer.active else None)
        try:
            spec = app.spec.function(function_name)
            if spec is None:
                raise KeyError(f"{app_name} has no function {function_name!r}")
            admitted = self.sim.now
            pre_pick = getattr(self.scheduler, "pre_pick", None)
            if pre_pick is not None:
                # Schedulers may need cluster state before deciding (Apta
                # queries its memory nodes for stale compute nodes).
                yield from pre_pick(self, app_name, function_name, inputs)
            candidates = self.warm_nodes(app, function_name)
            if candidates:
                node = self.scheduler.pick(app_name, function_name, inputs, candidates)
                container = node.by_function[(app_name, function_name)][0]
                obs = self.sim.obs
                if obs.active:
                    obs.emit(SCHED_WARM, node=node.id, app=app_name,
                             fn=function_name, warm=len(candidates))
            else:
                node = self.placement.place(self, app, function_name)
                # Register the container *before* the cold start completes so
                # concurrent invocations queue on it instead of each starting
                # yet another container (thundering herd).
                container = node.add_container(
                    app_name, function_name,
                    memory_alloc=spec.memory_alloc, memory_used=spec.memory_used,
                )
                if node.id not in app.node_ids:
                    app.node_ids.append(node.id)
                app.cold_starts += 1
                obs = self.sim.obs
                if obs.active:
                    obs.emit(SCHED_COLD, node=node.id, app=app_name,
                             fn=function_name)
                yield self.sim.sleep(COLD_START_MS)
            app.sched_delay_count += 1
            app.sched_delay_sum_ms += self.sim.now - admitted
            container.active += 1
            container.last_used = self.sim.now
            ctx = InvocationContext(
                self.sim, node, app_name, function_name, app.storage_api,
                inputs=inputs, invocation_id=next(self._invocation_ids),
            )
            # The handler runs in the (node, app) scope: a crash there, or
            # the end of the app's cache instance, interrupts what it runs.
            process = self.sim.active_process
            scope = node.scope.child(app_name)
            outer = scope.join(process)
            try:
                result = yield from spec.handler(ctx)
            finally:
                container.active -= 1
                container.last_used = self.sim.now
                scope.leave(process, outer)
            return ctx, result
        finally:
            if span is not None:
                span.end()

    invoke = _invoke

    # -- load generation ----------------------------------------------------------
    def submit(self, app_name: str, inputs: Optional[dict] = None):
        """Fire-and-forget a request (failures counted, not raised)."""
        name = self._req_names.get(app_name)
        if name is None:
            name = f"req:{app_name}"
            self._req_names[app_name] = name
        process = self.sim.spawn(
            self._guarded_request(app_name, inputs), name=name, daemon=True,
        )
        return process

    def _guarded_request(self, app_name: str, inputs):
        app = self.apps[app_name]
        reschedules = 0
        while True:
            try:
                result = yield from self.request(app_name, inputs)
            except Interrupt:
                # The node running one of this request's invocations
                # crashed, or the app's cache instance there ended: re-run
                # the whole request (scheduling steers around dead nodes).
                if reschedules < self.max_reschedules:
                    reschedules += 1
                    app.requests_rescheduled += 1
                    obs = self.sim.obs
                    if obs.active:
                        obs.emit(REQ_RESCHEDULE, app=app_name,
                                 attempt=reschedules)
                    yield self.sim.sleep(RESCHEDULE_BACKOFF_MS)
                    continue
                app.requests_failed += 1
                return None
            except Exception:
                app.requests_failed += 1
                raise
            return result

    def open_loop(
        self,
        app_name: str,
        rps: float,
        duration_ms: float,
        inputs_factory=None,
    ):
        """Poisson arrival process at ``rps`` for ``duration_ms`` (generator).

        ``inputs_factory(request_index)`` produces each request's inputs.
        """
        rng = self.sim.rng.stream(f"arrivals:{app_name}")
        deadline = self.sim.now + duration_ms
        index = 0
        while self.sim.now < deadline:
            yield self.sim.sleep(rng.expovariate(rps / 1000.0))
            if self.sim.now >= deadline:
                break
            inputs = inputs_factory(index) if inputs_factory else {}
            self.submit(app_name, inputs)
            index += 1
        return index

    # -- container lifecycle -------------------------------------------------------
    def collect_idle_containers(self, grace_ms: Optional[float] = None) -> int:
        """Evict containers idle beyond the grace period; returns count."""
        grace = grace_ms if grace_ms is not None else self.cluster.config.grace_period_ms
        evicted = 0
        for node in self.cluster.alive_nodes():
            for container in list(node.containers.values()):
                if container.active == 0 and self.sim.now - container.last_used > grace:
                    node.remove_container(container.id)
                    evicted += 1
        return evicted
