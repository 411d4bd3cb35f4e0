"""A compute node: cores, container slots and memory accounting.

Memory model (paper Sections II-A and III-E): each container is allocated
a fixed amount (128 MB minimum on OpenWhisk) but actually *uses* less; the
difference is the "unused but charged-for" memory that Concord repurposes
into per-application cache instances.  The node tracks, per application,
how much repurposable memory its co-located containers contribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.config import MB, SimConfig
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator


@dataclass
class Container:
    """A warm function container pinned to a node."""

    id: int
    node_id: str
    app: str
    function: str
    memory_alloc: int
    memory_used: int
    #: Simulated time of the last invocation served (for grace-period GC).
    last_used: float = 0.0
    #: Number of invocations currently executing inside the container.
    active: int = 0

    @property
    def unused_memory(self) -> int:
        """Allocated-but-unused bytes this container contributes."""
        return max(0, self.memory_alloc - self.memory_used)


class Node:
    """A simulated compute node."""

    def __init__(self, sim: "Simulator", node_id: str, config: Optional[SimConfig] = None):
        config = config or SimConfig()
        self.sim = sim
        self._container_ids = sim.ids("container")
        self.id = node_id
        self.config = config
        #: CPU cores; invocations hold one core while *processing* (not
        #: while blocked on storage/network I/O).
        self.cores = Resource(sim, capacity=config.cores_per_node, name=f"{node_id}/cores")
        self.memory_capacity = config.memory_per_node
        self.containers: dict[int, Container] = {}
        #: app name -> containers of that app, in creation order.
        self._by_app: dict[str, list[Container]] = {}
        #: (app, function) -> containers of that function, in creation
        #: order: the scheduler's warm-container lookup, read on every
        #: invocation for every node.  Maintained with ``_by_app`` by the
        #: three container methods below; callers only read it.
        self.by_function: dict[tuple, list[Container]] = {}
        self.alive = True
        self.scope = sim.scopes.child(node_id)  # a crash cancels it
        metrics = sim.metrics
        if metrics.active:
            self.cores.register_gauges(metrics, "node_cpu", node=node_id)
            metrics.gauge(
                "node_memory_in_use_bytes",
                "Memory allocated to containers on the node.",
                labelnames=("node",),
            ).set_callback(lambda: self.memory_in_use, node=node_id)
            metrics.gauge(
                "node_warm_containers",
                "Warm containers resident on the node.",
                labelnames=("node",),
            ).set_callback(lambda: len(self.containers), node=node_id)

    # -- containers ---------------------------------------------------------
    def add_container(
        self,
        app: str,
        function: str,
        memory_alloc: Optional[int] = None,
        memory_used: int = 24 * MB,
    ) -> Container:
        """Provision a warm container for ``app``/``function``."""
        alloc = memory_alloc if memory_alloc is not None else self.config.container_memory
        if self.memory_in_use + alloc > self.memory_capacity:
            raise MemoryError(f"node {self.id} out of memory")
        container = Container(
            id=next(self._container_ids),
            node_id=self.id,
            app=app,
            function=function,
            memory_alloc=alloc,
            memory_used=memory_used,
            last_used=self.sim.now,
        )
        self.containers[container.id] = container
        self._by_app.setdefault(app, []).append(container)
        self.by_function.setdefault((app, function), []).append(container)
        return container

    def remove_container(self, container_id: int) -> Optional[Container]:
        """Evict a container (returns it, or None if already gone)."""
        container = self.containers.pop(container_id, None)
        if container is not None:
            self._by_app[container.app].remove(container)
            self.by_function[(container.app, container.function)].remove(
                container)
        return container

    def clear_containers(self) -> None:
        """Drop every container (node crash / restart)."""
        self.containers.clear()
        self._by_app.clear()
        self.by_function.clear()

    def containers_of(self, app: str, function: Optional[str] = None) -> list[Container]:
        """Warm containers of ``app`` (optionally a specific function)."""
        if function is None:
            group = self._by_app.get(app)
        else:
            group = self.by_function.get((app, function))
        return list(group) if group else []

    # -- memory accounting ----------------------------------------------------
    @property
    def memory_in_use(self) -> int:
        """Total memory allocated to containers on this node."""
        return sum(c.memory_alloc for c in self.containers.values())

    def unused_memory(self, app: str) -> int:
        """Repurposable memory contributed by ``app``'s local containers.

        This is the budget a Concord cache instance for ``app`` may grow
        into on this node (paper Section III-E).
        """
        return sum(c.unused_memory for c in self.containers_of(app))

    # -- utilization ----------------------------------------------------------
    @property
    def load(self) -> float:
        """Fraction of cores busy plus queued work, for overload checks."""
        return (self.cores.in_use + self.cores.queue_length) / self.cores.capacity

    @property
    def overloaded(self) -> bool:
        """Whether the scheduler should avoid this node (queue formed)."""
        return self.cores.queue_length > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.id} {state} containers={len(self.containers)}>"
