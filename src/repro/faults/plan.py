"""Declarative, seeded fault schedules.

A :class:`FaultPlan` is a value object: an ordered schedule of fault
events (crashes, restarts, partitions, message drops/delays, storage
brownouts) plus the seed that generated it.  Plans serialize to JSON so a
failing CI run can upload the exact plan as an artifact and anyone can
replay it bit-for-bit (:mod:`repro.faults.injector` consumes plans;
``scripts/fault_matrix.py`` saves the plan of a failing cell).

Determinism contract: a plan is pure data — the only randomness is in
:meth:`FaultPlan.random`, which draws from an explicitly seeded
``random.Random`` and sorts every choice source, so the same seed yields
the same plan under any ``PYTHONHASHSEED``.  Randomness *during* the run
(probabilistic drops, delay jitter) comes from the simulator's named
substreams (``faults:net``), never from the plan.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Optional


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one scheduled fault, fired at ``at_ms`` simulated time."""

    at_ms: float

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Hard-crash ``node``: network silence, processes die, memory lost."""

    node: str = ""


@dataclass(frozen=True)
class NodeRestart(FaultEvent):
    """Restart ``node`` empty: containers and cache state are gone."""

    node: str = ""


@dataclass(frozen=True)
class NetworkPartition(FaultEvent):
    """Sever traffic between the listed groups for ``duration_ms``.

    ``groups`` is a tuple of node-id tuples; messages between nodes in
    *different* groups are dropped (both directions), nodes absent from
    every group are unaffected.  Messages in flight when the partition
    starts are cut too.
    """

    duration_ms: float = 0.0
    groups: tuple = ()


@dataclass(frozen=True)
class RegionPartition(FaultEvent):
    """Sever traffic between ``region`` and the rest of the cluster.

    Topology-aware variant of :class:`NetworkPartition`: the node groups
    are resolved at injection time from the cluster's
    :class:`~repro.net.regions.RegionTopology` (``SimConfig.regions``),
    so one plan replays against any node count.  Injecting into a
    cluster without a region topology is a plan/config mismatch and
    raises.
    """

    duration_ms: float = 0.0
    region: str = ""


@dataclass(frozen=True)
class MessageDrop(FaultEvent):
    """Drop messages with ``probability`` during the window.

    ``src``/``dst`` restrict the rule to one sender/receiver node id
    (``None`` matches any).  Drop decisions draw from the simulator's
    ``faults:net`` substream, so they are seeded and replayable.
    """

    duration_ms: float = 0.0
    probability: float = 1.0
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass(frozen=True)
class MessageDelay(FaultEvent):
    """Add ``extra_ms`` (+ uniform jitter) to matching messages."""

    duration_ms: float = 0.0
    extra_ms: float = 5.0
    jitter_ms: float = 0.0
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass(frozen=True)
class StorageBrownout(FaultEvent):
    """Multiply global-storage latency by ``slowdown`` for the window."""

    duration_ms: float = 0.0
    slowdown: float = 4.0


#: JSON ``kind`` tag -> event class (the wire registry for replay).
EVENT_TYPES = {
    cls.__name__: cls
    for cls in (NodeCrash, NodeRestart, NetworkPartition, RegionPartition,
                MessageDrop, MessageDelay, StorageBrownout)
}


def _decode_event(record: dict) -> FaultEvent:
    record = dict(record)
    kind = record.pop("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault event kind {kind!r}")
    if cls is NetworkPartition and "groups" in record:
        record["groups"] = tuple(tuple(group) for group in record["groups"])
    allowed = {field.name for field in fields(cls)}
    unknown = sorted(set(record) - allowed)
    if unknown:
        raise ValueError(f"{kind}: unknown fields {unknown}")
    return cls(**record)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of fault events, sorted by injection time."""

    events: tuple = ()
    seed: int = 0

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=lambda event: event.at_ms))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> list[str]:
        """Event kind names in schedule order (test/telemetry comparisons)."""
        return [event.kind for event in self.events]

    # -- serialization (CI artifacts, replay) ---------------------------
    def to_json(self, indent: int = 2) -> str:
        payload = {
            "seed": self.seed,
            "events": [
                {"kind": event.kind, **asdict(event)}
                for event in self.events
            ],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            events=tuple(_decode_event(r) for r in payload.get("events", ())),
            seed=payload.get("seed", 0),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- seeded generation (the CI fault matrix) ------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        node_ids: Iterable[str],
        horizon_ms: float,
        crashes: int = 1,
        restart: bool = True,
        drops: int = 1,
        delays: int = 1,
        brownouts: int = 1,
        partitions: int = 0,
    ) -> "FaultPlan":
        """A reproducible plan over ``node_ids`` within ``[0, horizon_ms)``.

        Crashes land in the middle half of the horizon so detection and
        recovery complete inside the run; each crashed node restarts
        (when ``restart``) well before the horizon ends.
        """
        rng = random.Random(seed)
        nodes = sorted(node_ids)
        if crashes > max(0, len(nodes) - 2):
            raise ValueError("plan would crash all but one node")
        events: list[FaultEvent] = []
        victims = rng.sample(nodes, crashes)
        for victim in victims:
            crash_at = rng.uniform(0.25, 0.5) * horizon_ms
            events.append(NodeCrash(at_ms=crash_at, node=victim))
            if restart:
                restart_at = crash_at + rng.uniform(0.2, 0.3) * horizon_ms
                events.append(NodeRestart(at_ms=restart_at, node=victim))
        survivors = [node for node in nodes if node not in victims]
        for _ in range(drops):
            events.append(MessageDrop(
                at_ms=rng.uniform(0.1, 0.7) * horizon_ms,
                duration_ms=rng.uniform(0.05, 0.1) * horizon_ms,
                probability=rng.uniform(0.05, 0.25),
                src=rng.choice(survivors) if survivors else None,
            ))
        for _ in range(delays):
            events.append(MessageDelay(
                at_ms=rng.uniform(0.1, 0.7) * horizon_ms,
                duration_ms=rng.uniform(0.05, 0.15) * horizon_ms,
                extra_ms=rng.uniform(1.0, 8.0),
                jitter_ms=rng.uniform(0.0, 2.0),
            ))
        for _ in range(brownouts):
            events.append(StorageBrownout(
                at_ms=rng.uniform(0.1, 0.7) * horizon_ms,
                duration_ms=rng.uniform(0.05, 0.15) * horizon_ms,
                slowdown=rng.uniform(2.0, 6.0),
            ))
        for _ in range(partitions):
            if len(survivors) < 2:
                break
            split = rng.randrange(1, len(survivors))
            events.append(NetworkPartition(
                at_ms=rng.uniform(0.1, 0.6) * horizon_ms,
                duration_ms=rng.uniform(0.05, 0.1) * horizon_ms,
                groups=(tuple(survivors[:split]), tuple(survivors[split:])),
            ))
        return cls(events=tuple(events), seed=seed)
