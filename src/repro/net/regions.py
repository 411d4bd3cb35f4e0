"""Multi-region topology: named regions with a cross-region RTT matrix.

A :class:`RegionTopology` assigns cluster nodes to named regions and
adds an *extra* round-trip cost on top of the base
:class:`~repro.config.LatencyModel` for every cross-region hop:

- node→node messages between different regions pay half the pair's
  extra RTT each way (the base internode latency models the in-region
  fabric);
- storage operations pay the full extra RTT between the caller's region
  and the region hosting global storage (the backing store lives
  somewhere specific — cross-region readers eat a WAN round trip).

Intra-region traffic and single-region topologies are byte-identical to
runs with no topology at all: the extra term is exactly 0.0 and no code
path diverges, which is what lets the topology presets fingerprint
flat and regional runs side by side.

Control-plane nodes (the coordinator, per-app controllers) are not in
the node→region map; they resolve to the *default region* (the first
region named), as does the storage service unless placed explicitly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

RttMatrix = Union[float, Mapping[Tuple[str, str], float]]


class RegionTopology:
    """Named regions, node assignment, and a per-region-pair RTT matrix."""

    def __init__(
        self,
        regions: Iterable[str],
        node_regions: Mapping[str, str],
        extra_rtt_ms: RttMatrix = 60.0,
        storage_region: Optional[str] = None,
    ):
        self.regions: Tuple[str, ...] = tuple(regions)
        if not self.regions:
            raise ValueError("RegionTopology needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ValueError(f"duplicate region names: {self.regions}")
        known = set(self.regions)
        self.node_regions: Dict[str, str] = dict(node_regions)
        for node, region in self.node_regions.items():
            if region not in known:
                raise ValueError(
                    f"node {node!r} assigned to unknown region {region!r}")
        self.default_region = self.regions[0]
        self.storage_region = storage_region or self.default_region
        if self.storage_region not in known:
            raise ValueError(
                f"storage placed in unknown region {self.storage_region!r}")
        self._extra: Dict[Tuple[str, str], float] = {}
        if isinstance(extra_rtt_ms, Mapping):
            for (a, b), rtt in extra_rtt_ms.items():
                if a not in known or b not in known:
                    raise ValueError(
                        f"RTT matrix names unknown region pair ({a!r}, {b!r})")
                if rtt < 0:
                    raise ValueError(f"negative RTT for ({a!r}, {b!r})")
                self._extra[(a, b)] = float(rtt)
                self._extra[(b, a)] = float(rtt)
        else:
            rtt = float(extra_rtt_ms)
            if rtt < 0:
                raise ValueError("extra_rtt_ms must be >= 0")
            for a in self.regions:
                for b in self.regions:
                    if a != b:
                        self._extra[(a, b)] = rtt

    @classmethod
    def even(cls, node_ids: Iterable[str],
             regions: Iterable[str] = ("east", "west"),
             extra_rtt_ms: RttMatrix = 60.0,
             storage_region: Optional[str] = None) -> "RegionTopology":
        """Round-robin ``node_ids`` over ``regions`` in the order given."""
        regions = tuple(regions)
        assignment = {node: regions[index % len(regions)]
                      for index, node in enumerate(node_ids)}
        return cls(regions, assignment, extra_rtt_ms, storage_region)

    # -- lookups ------------------------------------------------------------
    def region_of(self, node: str) -> str:
        """``node``'s region (default region for control-plane nodes)."""
        return self.node_regions.get(node, self.default_region)

    def nodes_in(self, region: str) -> Tuple[str, ...]:
        """The nodes assigned to ``region``, in assignment order."""
        if region not in self.regions:
            raise ValueError(f"unknown region {region!r}")
        return tuple(node for node, r in self.node_regions.items()
                     if r == region)

    def extra_rtt_ms(self, region_a: str, region_b: str) -> float:
        """Extra round-trip cost between two regions (0.0 within one)."""
        if region_a == region_b:
            return 0.0
        return self._extra.get((region_a, region_b), 0.0)

    def extra_one_way_ms(self, src_node: str, dst_node: str) -> float:
        """Extra one-way cost for a message ``src_node`` → ``dst_node``."""
        return self.extra_rtt_ms(self.region_of(src_node),
                                 self.region_of(dst_node)) / 2.0

    def storage_extra_ms(self, node: str) -> float:
        """Extra round-trip cost for ``node`` reaching global storage."""
        return self.extra_rtt_ms(self.region_of(node), self.storage_region)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RegionTopology(regions={self.regions!r}, "
                f"storage={self.storage_region!r}, "
                f"nodes={len(self.node_regions)})")
