"""Invocation scheduling policies.

- :class:`RandomScheduler` -- conventional: any node with a warm instance.
- :class:`LocalityScheduler` -- same-function affinity (packs invocations
  of one function onto a stable subset of its nodes); this is the
  "Concord No CAS" baseline of Figure 10.
- :class:`CasScheduler` -- Concord's coherence-aware scheduling
  (Section III-G): the hash of the *invocation inputs* picks the node, so
  invocations operating on the same data share a cache instance; on
  overload it rehashes with a different salt, then falls back to the
  least-loaded candidate.
"""

from __future__ import annotations

import abc
import hashlib
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Node
    from repro.sim import Simulator


def _hash(value: str, salt: int = 0) -> int:
    digest = hashlib.md5(f"{salt}:{value}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


_node_id = attrgetter("id")


class Scheduler(abc.ABC):
    """Picks the node an invocation runs on among warm candidates."""

    name = "abstract"

    @abc.abstractmethod
    def pick(
        self,
        app: str,
        function: str,
        inputs: dict,
        candidates: list,
    ) -> "Node":
        """Choose one of ``candidates`` (non-empty list of Nodes)."""


class RandomScheduler(Scheduler):
    """Uniformly random among non-overloaded candidates."""

    name = "random"

    def __init__(self, sim: "Simulator"):
        self.rng = sim.rng.stream("sched-random")

    def pick(self, app, function, inputs, candidates):
        healthy = [n for n in candidates if not n.overloaded]
        pool = healthy or candidates
        return pool[self.rng.randrange(len(pool))]


class LocalityScheduler(Scheduler):
    """Stable per-function affinity ordering with overload spill-over.

    All invocations of a function prefer the same candidate (then the
    same second choice, and so on), concentrating a function's working
    set without looking at the invocation's inputs.
    """

    name = "locality"

    def pick(self, app, function, inputs, candidates):
        ordered = sorted(
            candidates, key=lambda n: _hash(f"{app}/{function}/{n.id}"))
        for node in ordered:
            if not node.overloaded:
                return node
        return min(ordered, key=lambda n: n.load)


class CasScheduler(Scheduler):
    """Coherence-aware scheduling: hash of the invocation inputs.

    ``data_key(inputs)`` extracts the part of the inputs that determines
    which data the invocation touches (by default the ``"entity"`` input,
    falling back to the whole repr).
    """

    name = "cas"

    def __init__(self, tries: int = 3):
        if tries < 1:
            raise ValueError("tries must be >= 1")
        self.tries = tries
        #: (app, data key) -> the key's hash under each salt.  Bounded by
        #: entities x apps, and it saves an md5 per try per invocation.
        self._hashes: dict = {}

    @staticmethod
    def data_key(inputs: dict) -> str:
        if "entity" in inputs:
            return str(inputs["entity"])
        return repr(sorted(inputs.items()))

    def pick(self, app, function, inputs, candidates):
        ordered = sorted(candidates, key=_node_id)
        key = self.data_key(inputs)
        hashes = self._hashes.get((app, key))
        if hashes is None:
            value = f"{app}/{key}"
            hashes = self._hashes[(app, key)] = tuple(
                _hash(value, salt) for salt in range(self.tries))
        count = len(ordered)
        for digest in hashes:
            node = ordered[digest % count]
            if not node.overloaded:
                return node
        healthy = [n for n in ordered if not n.overloaded]
        if healthy:
            return min(healthy, key=lambda n: n.load)
        return min(ordered, key=lambda n: n.load)
