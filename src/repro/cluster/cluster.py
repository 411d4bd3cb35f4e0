"""Cluster assembly and failure injection."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.config import LatencyModel, SimConfig
from repro.cluster.node import Node
from repro.net.fabric import Network
from repro.storage.blob import GlobalStorage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator


class Cluster:
    """A set of nodes sharing a network fabric and global storage.

    A crash cancels the node's scope (every process running there) and
    silences its network; components holding per-node state register
    ``on_crash`` listeners.  Failure *detection* latency is still
    governed by heartbeats: all of this models only the crash itself.
    """

    def __init__(self, sim: "Simulator", config: Optional[SimConfig] = None):
        self.sim = sim
        self.config = config or SimConfig()
        self.network = Network(sim, self.config.latency,
                               topology=self.config.regions)
        self.storage = GlobalStorage(sim, self.config.latency,
                                     topology=self.config.regions)
        self.nodes: dict[str, Node] = {}
        for index in range(self.config.num_nodes):
            node_id = f"node{index}"
            self.nodes[node_id] = Node(sim, node_id, self.config)
        self._crash_listeners: list[Callable[[str], None]] = []

    @property
    def node_ids(self) -> list[str]:
        return list(self.nodes.keys())

    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def alive_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.alive]

    def add_node(self, node_id: Optional[str] = None) -> Node:
        """Grow the cluster by one node (used by scaling experiments)."""
        if node_id is None:
            node_id = f"node{len(self.nodes)}"
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        node = Node(self.sim, node_id, self.config)
        self.nodes[node_id] = node
        return node

    def on_crash(self, listener: Callable[[str], None]) -> None:
        """Register a callback invoked synchronously when a node crashes."""
        self._crash_listeners.append(listener)

    def crash_node(self, node_id: str) -> None:
        """Hard-crash a node: kill its processes, silence its network."""
        node = self.nodes[node_id]
        if not node.alive:
            return
        node.alive = False
        node.scope.cancel("node crash")
        self.network.fail_node(node_id)
        for listener in self._crash_listeners:
            listener(node_id)

    def restart_node(self, node_id: str) -> None:
        """Bring a crashed node back, empty of containers."""
        node = self.nodes[node_id]
        if node.alive:
            return
        node.clear_containers()
        node.alive = True
        self.network.restore_node(node_id)
