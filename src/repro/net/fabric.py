"""The message fabric connecting simulated nodes.

The :class:`Network` delivers :class:`Message` objects between registered
endpoints with a latency derived from the shared
:class:`~repro.config.LatencyModel`.  Messages to or from failed nodes are
silently dropped — exactly the behaviour a crashed process exhibits — so
upper layers must use timeouts to detect unreachability (as the paper's
protocol does in Section III-H).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.config import LatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.rpc import Endpoint
    from repro.sim import Simulator


@dataclass(slots=True)
class Message:
    """A single one-way message on the wire."""

    src: str
    dst: str
    kind: str
    payload: object
    size_bytes: int
    #: Correlates a response with its request (None for one-way sends).
    request_id: Optional[int] = None
    is_response: bool = False
    #: TraceContext travelling with the request so the serving side joins
    #: the caller's span tree; on a response, the server's
    #: ``(start_ms, end_ms)`` serving interval.  None when tracing is off.
    trace: Optional[object] = None
    #: Scheme-level metadata piggybacked on the message (e.g. the causal
    #: scheme's vector clocks).  Opaque to the fabric; callers that care
    #: about wire realism must fold its size into ``size_bytes``.
    meta: Optional[object] = None
    #: Absolute sim ms by which the caller stops waiting (requests only):
    #: the handler's nested calls inherit it (:meth:`Endpoint.call`).
    deadline: Optional[float] = None


#: address -> node id memo for :meth:`Network.node_of`.  Addresses are
#: immutable strings and the mapping is a pure function of the address,
#: so the cache never needs invalidation.
_NODE_OF: dict = {}


@dataclass
class NetworkStats:
    """Aggregate traffic counters, by message kind (:meth:`Network.send`
    keeps them)."""

    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    by_kind: dict = field(default_factory=dict)


class _Link:
    """The one-way path from one node to another, made once per pair.

    It holds what every message on it needs: the pair's FIFO clock (the
    latest delivery time handed out; messages between the same pair of
    nodes never overtake each other, as over one TCP connection) and the
    terms of ``LatencyModel.one_way`` — plus, across regions, the
    ordered region pair and half its extra RTT.  The network owns it:
    every endpoint on the source node sends on it to every service on
    the destination node, and so does an endpoint re-created there.
    """

    __slots__ = ("src", "dst", "clock", "remote", "overhead", "per_byte",
                 "half_rtt", "regions", "cross_half")

    def __init__(self, network: "Network", src: str, dst: str):
        latency = network.latency
        self.src = src
        self.dst = dst
        self.clock = 0.0
        #: Same-node traffic is an in-memory hand-off: no latency terms.
        self.remote = src != dst
        self.overhead = latency.rpc_overhead
        self.per_byte = latency.serialization_bytes_per_ms
        self.half_rtt = latency.internode_rtt / 2.0
        #: The ordered (src_region, dst_region) pair of a cross-region
        #: link, else None; ``cross_half`` is half that pair's extra RTT.
        self.regions = None
        self.cross_half = 0.0
        topology = network.topology
        if topology is not None and self.remote:
            src_region = topology.region_of(src)
            dst_region = topology.region_of(dst)
            if src_region != dst_region:
                self.regions = (src_region, dst_region)
                self.cross_half = topology.extra_rtt_ms(
                    src_region, dst_region) / 2.0


@dataclass(frozen=True)
class _Window:
    """A half-open activity window in simulated time."""

    start: float
    end: float

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


class FaultRules:
    """Time-windowed partition/drop/delay rules applied by the fabric.

    Installed by :class:`repro.faults.injector.FaultInjector`; the fabric
    consults the rules on every ``send`` (and again at delivery, so a
    partition that begins while a message is in flight cuts it).  Drop
    decisions and delay jitter draw from the simulator's ``faults:net``
    substream — seeded, hash-order-free, replayable.
    """

    def __init__(self, network: "Network"):
        self.network = network
        self.sim = network.sim
        self._rng = network.sim.rng.stream("faults:net")
        #: (window, groups) — groups is a tuple of node-id tuples.
        self._partitions: list = []
        #: (window, probability, src_node | None, dst_node | None)
        self._drops: list = []
        #: (window, extra_ms, jitter_ms, src_node | None, dst_node | None)
        self._delays: list = []
        #: Messages dropped by injected rules (partitions + drops).
        self.dropped_injected = 0
        #: Messages given injected extra delay.
        self.delayed_injected = 0

    # -- rule installation ------------------------------------------------
    def add_partition(self, groups, start_ms: float, end_ms: float) -> None:
        frozen = tuple(tuple(group) for group in groups)
        self._partitions.append((_Window(start_ms, end_ms), frozen))

    def add_drop(self, start_ms: float, end_ms: float, probability: float,
                 src: Optional[str] = None, dst: Optional[str] = None) -> None:
        self._drops.append((_Window(start_ms, end_ms), probability, src, dst))

    def add_delay(self, start_ms: float, end_ms: float, extra_ms: float,
                  jitter_ms: float = 0.0, src: Optional[str] = None,
                  dst: Optional[str] = None) -> None:
        self._delays.append(
            (_Window(start_ms, end_ms), extra_ms, jitter_ms, src, dst))

    # -- fabric queries ---------------------------------------------------
    def blocked(self, src_node: str, dst_node: str) -> bool:
        """Whether an active partition severs ``src_node`` -> ``dst_node``."""
        now = self.sim.now
        for window, groups in self._partitions:
            if not window.active(now):
                continue
            src_group = dst_group = None
            for index, group in enumerate(groups):
                if src_node in group:
                    src_group = index
                if dst_node in group:
                    dst_group = index
            if (src_group is not None and dst_group is not None
                    and src_group != dst_group):
                return True
        return False

    def should_drop(self, src_node: str, dst_node: str) -> bool:
        """Whether an active drop rule claims this message (draws the RNG)."""
        now = self.sim.now
        for window, probability, src, dst in self._drops:
            if not window.active(now):
                continue
            if src is not None and src != src_node:
                continue
            if dst is not None and dst != dst_node:
                continue
            if probability >= 1.0 or self._rng.random() < probability:
                return True
        return False

    def extra_delay(self, src_node: str, dst_node: str) -> float:
        """Sum of injected delays from active delay rules (draws the RNG)."""
        now = self.sim.now
        total = 0.0
        for window, extra_ms, jitter_ms, src, dst in self._delays:
            if not window.active(now):
                continue
            if src is not None and src != src_node:
                continue
            if dst is not None and dst != dst_node:
                continue
            total += extra_ms
            if jitter_ms > 0.0:
                total += jitter_ms * self._rng.random()
        return total


class Network:
    """Latency-modelled fabric between named endpoints.

    Endpoint addresses are ``"<node_id>/<service>"``; node failures are
    tracked per node id, so crashing a node silences all its services at
    once.  Messages between services co-located on one node are delivered
    with zero network latency (in-memory hand-off).
    """

    def __init__(self, sim: "Simulator", latency: Optional[LatencyModel] = None,
                 topology=None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        #: Optional :class:`~repro.net.regions.RegionTopology`: adds half
        #: the region pair's extra RTT to each cross-region hop.  ``None``
        #: (and any single-region topology) is byte-identical to the
        #: flat fabric.
        self.topology = topology
        #: Ordered (src_region, dst_region) -> cross-region message count.
        self.cross_region: dict[tuple[str, str], int] = {}
        self._endpoints: dict[str, "Endpoint"] = {}
        self._down_nodes: set[str] = set()
        #: (src_node, dst_node) -> its :class:`_Link` (see :meth:`link`).
        self._links: dict[tuple[str, str], _Link] = {}
        #: The open same-tick delivery batch (its messages, or None), the
        #: time it is delivered at and the schedule count just after it
        #: was scheduled.  See :meth:`send` for the coalescing rule.
        self._batch: Optional[list] = None
        self._batch_at = 0.0
        self._batch_seq = 0
        self.stats = NetworkStats()
        #: Injected partition/drop/delay rules (see :meth:`fault_rules`).
        self.faults: Optional[FaultRules] = None
        #: When True, requests addressed to a down node fail fast with a
        #: retriable :class:`~repro.net.rpc.PeerDown` instead of silently
        #: timing out, and crashing a node fails its callers' in-flight
        #: requests immediately (connection-reset semantics).  Off by
        #: default so the base protocol keeps the paper's timeout-driven
        #: detection; the fault injector arms it.
        self.fail_fast = False
        metrics = sim.metrics
        if metrics.active:
            stats = self.stats
            metrics.counter(
                "net_messages_total", "Messages put on the wire.",
                labelnames=(),
            ).set_callback(lambda: stats.messages)
            metrics.counter(
                "net_bytes_total", "Payload bytes put on the wire.",
                labelnames=(),
            ).set_callback(lambda: stats.bytes)
            metrics.counter(
                "net_dropped_total",
                "Messages dropped at crashed or torn-down endpoints.",
                labelnames=(),
            ).set_callback(lambda: stats.dropped)
        if topology is not None:
            for src_region in topology.regions:
                for dst_region in topology.regions:
                    if src_region != dst_region:
                        self.cross_region[(src_region, dst_region)] = 0
            if metrics.active:
                counter = metrics.counter(
                    "net_cross_region_messages_total",
                    "Messages crossing a region boundary.",
                    labelnames=("src_region", "dst_region"),
                )
                for pair in self.cross_region:
                    counter.set_callback(
                        self._cross_region_callback(pair),
                        src_region=pair[0], dst_region=pair[1])

    def _cross_region_callback(self, pair: tuple):
        return lambda: self.cross_region[pair]

    # -- membership --------------------------------------------------------
    def register(self, endpoint: "Endpoint") -> None:
        """Attach ``endpoint``; its address must be unique."""
        if endpoint.address in self._endpoints:
            raise ValueError(f"duplicate endpoint address {endpoint.address!r}")
        self._endpoints[endpoint.address] = endpoint

    def unregister(self, address: str) -> None:
        """Detach the endpoint at ``address`` (idempotent)."""
        self._endpoints.pop(address, None)

    def endpoint(self, address: str) -> Optional["Endpoint"]:
        """The endpoint registered at ``address``, if any."""
        return self._endpoints.get(address)

    def link(self, src: str, dst: str) -> _Link:
        """The link from address ``src``'s node to address ``dst``'s."""
        pair = (self.node_of(src), self.node_of(dst))
        link = self._links.get(pair)
        if link is None:
            link = self._links[pair] = _Link(self, *pair)
        return link

    @staticmethod
    def node_of(address: str) -> str:
        """The node id component of an endpoint address."""
        node = _NODE_OF.get(address)
        if node is None:
            node = address.split("/", 1)[0]
            _NODE_OF[address] = node
        return node

    # -- fault-injection hooks ------------------------------------------------
    def fault_rules(self) -> FaultRules:
        """The installed :class:`FaultRules`, created on first use."""
        if self.faults is None:
            self.faults = FaultRules(self)
        return self.faults

    # -- failures ------------------------------------------------------------
    def fail_node(self, node_id: str) -> None:
        """Mark a node crashed: drop its traffic."""
        self._down_nodes.add(node_id)
        if self.fail_fast:
            # Connection-reset semantics: every survivor's in-flight call
            # to the dead node fails now rather than at its timeout.
            for address, endpoint in list(self._endpoints.items()):
                if self.node_of(address) != node_id:
                    endpoint.fail_calls_to(node_id)

    def restore_node(self, node_id: str) -> None:
        """Bring a crashed node back (new messages flow again)."""
        self._down_nodes.discard(node_id)

    def is_down(self, node_id: str) -> bool:
        return node_id in self._down_nodes

    # -- transmission --------------------------------------------------------
    def send(self, message: Message, link: Optional[_Link] = None) -> None:
        """Put ``message`` on the wire (delivery is asynchronous).

        ``link`` is :meth:`link` ``(message.src, message.dst)``, which an
        endpoint keeps per destination; without it, it is looked up.
        """
        if link is None:
            link = self.link(message.src, message.dst)
        extra = 0.0
        down = self._down_nodes
        faults = self.faults
        if down or faults is not None:
            src_node = link.src
            dst_node = link.dst
            if src_node in down:
                self.stats.dropped += 1
                return
            if faults is not None:
                if (faults.blocked(src_node, dst_node)
                        or faults.should_drop(src_node, dst_node)):
                    self.stats.dropped += 1
                    faults.dropped_injected += 1
                    return
                extra = faults.extra_delay(src_node, dst_node)
                if extra > 0.0:
                    faults.delayed_injected += 1
            if self.fail_fast and dst_node in down:
                # The destination's TCP stack is gone: a request gets an
                # RST back after one propagation delay, not a silent drop.
                self.stats.dropped += 1
                if (message.request_id is not None
                        and not message.is_response):
                    self._reject_fast(message)
                return
        size = message.size_bytes
        stats = self.stats
        stats.messages += 1
        stats.bytes += size
        kind = message.kind
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if link.remote:
            # LatencyModel.one_way(size) + extra, in its float order.
            delay = (link.overhead + size / link.per_byte
                     + link.half_rtt) + extra
            regions = link.regions
            if regions is not None:
                delay += link.cross_half
                self.cross_region[regions] += 1
        else:
            delay = extra
        # A later send on the link is delivered no earlier than every
        # previous one (gRPC over one TCP connection).
        sim = self.sim
        deliver_at = sim.now + delay
        if link.clock > deliver_at:
            deliver_at = link.clock
        link.clock = deliver_at
        # Same-tick coalescing: if the previous send scheduled delivery at
        # this exact timestamp and *nothing else* has been scheduled since
        # (the seq watermark is unchanged, so no entry can sit between
        # that batch and where this message's own entry would have gone),
        # appending to the batch dispatches the messages back-to-back in
        # exactly the (time, seq) order separate entries would have had.
        batch = self._batch
        if (batch is not None and self._batch_at == deliver_at
                and self._batch_seq == sim.schedule_count):
            batch.append(message)
            return
        batch = self._batch = [message]
        entry = sim.call_at(deliver_at, self._deliver_batch, batch)
        self._batch_at = deliver_at
        self._batch_seq = entry[1] + 1  # schedule_count just after it

    def _deliver_batch(self, batch: list) -> None:
        # Close the coalescing window: this batch is being dispatched, so
        # a later same-tick send must open a fresh entry even if nothing
        # was scheduled in between (deliveries that schedule nothing —
        # e.g. a message dropped at a crashed endpoint — leave the seq
        # watermark untouched).
        if self._batch is batch:
            self._batch = None
        if len(batch) == 1:
            message = batch[0]
            if not self._down_nodes and self.faults is None:
                # Nothing to check on a healthy fabric: hand it over.
                endpoint = self._endpoints.get(message.dst)
                if endpoint is not None:
                    endpoint._receive(message)
                    return
            self._deliver(message)
        else:
            # Each delivery but the last is followed by another: not in
            # tail position, which only the kernel may say.
            self.sim.call_each(self._deliver, batch)

    def _reject_fast(self, message: Message) -> None:
        """Fail the caller's pending request with a retriable PeerDown."""
        from repro.net.rpc import PeerDown  # circular at module load

        source = self._endpoints.get(message.src)
        if source is None:
            return
        delay = self.latency.one_way(0)
        error = PeerDown(message.dst, message.kind, delay)
        self.sim.call_at(
            self.sim.now + delay, self._do_reject, (source, message.request_id, error))

    def _do_reject(self, job: tuple) -> None:
        source, request_id, error = job
        source.reject_call(request_id, error)

    def _deliver(self, message: Message) -> None:
        # link() memoised both addresses' node ids.
        down = self._down_nodes
        if down and _NODE_OF[message.dst] in down:
            self.stats.dropped += 1
            if (self.fail_fast and message.request_id is not None
                    and not message.is_response):
                self._reject_fast(message)
            return
        if self.faults is not None and self.faults.blocked(
                _NODE_OF[message.src], _NODE_OF[message.dst]):
            # The partition began while this message was in flight.
            self.stats.dropped += 1
            self.faults.dropped_injected += 1
            return
        endpoint = self._endpoints.get(message.dst)
        if endpoint is None:
            # Endpoint was torn down while the message was in flight.
            self.stats.dropped += 1
            return
        endpoint._receive(message)
