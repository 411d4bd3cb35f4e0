"""The protocol event taxonomy: interned event-type constants.

Every flight-recorder emission site names its event through one of the
module-level constants below.  Interning
buys two things: emission sites cannot drift into free-form strings that
post-mortem tooling would have to fuzzy-match, and the hot path never
builds a type string — with the Null sink installed an emission site is
one attribute load and a branch.

The taxonomy mirrors the protocol layers (DESIGN.md §13):

``cache.*``
    Cache-line lifecycle on one node: E/S installs, in-place E-state
    updates, downgrades to S, invalidations, capacity evictions.
``cache.flush.*`` / ``cache.ttl.*``
    Production-cache write pipelines (scheme zoo): write-behind dirty
    buffering, flush-to-durable, loss-on-crash, and TTL expiries.
``causal.*``
    The causally consistent scheme: vector-clock-tagged writes, session
    migration between nodes, and sync rounds closing vc gaps.
``dir.*``
    Directory ownership and sharer-set changes at a key's home.
``inv.*``
    Invalidation rounds: per-sharer sends and server-side receipts.
``rpc.*``
    Transport-level failures: timeouts and fail-fast resets.
``barrier.*`` / ``recovery.*`` / ``domain.*`` / ``member.*``
    Fault tolerance: barriers raised/lifted around failed homes,
    survivor recovery steps, two-phase domain changes, the
    coordinator's failure declarations, ejections.
``sched.*`` / ``req.*``
    FaaS control plane: warm/cold placement decisions, crash reruns.
``fault.*`` / ``verify.*``
    Injected faults and quiescent coherence-checker verdicts; both
    trigger the recorder's automatic full dump.
"""

from __future__ import annotations

# -- cache-line state transitions (per key, per node) ----------------------
CACHE_INSTALL = "cache.install"
CACHE_UPDATE = "cache.update"          # in-place E-state value update
CACHE_DOWNGRADE = "cache.downgrade"    # E -> S (owner fetched from)
CACHE_INVALIDATE = "cache.invalidate"  # -> I (entry removed)
CACHE_EVICT = "cache.evict"            # silent capacity eviction

# -- directory ownership / sharer sets -------------------------------------
DIR_EXCLUSIVE = "dir.exclusive"
DIR_SHARER = "dir.sharer"
DIR_REMOVE = "dir.remove"
DIR_TRANSFER = "dir.transfer"          # entry adopted from another home
DIR_PRUNE = "dir.prune"                # dead member dropped from sharer sets

# -- invalidation rounds ---------------------------------------------------
INV_SEND = "inv.send"
INV_RECV = "inv.recv"

# -- transport failures ----------------------------------------------------
RPC_TIMEOUT = "rpc.timeout"
RPC_RESET = "rpc.reset"                # fail-fast PeerDown reject

# -- fault tolerance -------------------------------------------------------
BARRIER_RAISE = "barrier.raise"
BARRIER_LIFT = "barrier.lift"
RECOVERY_SURVIVOR = "recovery.survivor"
RECOVERY_COMPLETE = "recovery.complete"
DOMAIN_CHANGE = "domain.change"
MEMBER_DECLARE = "member.declare"      # coordinator declared a member failed
MEMBER_EJECT = "member.eject"
MEMBER_JOIN = "member.join"
MEMBER_LEAVE = "member.leave"
PEER_UNREACHABLE = "peer.unreachable"

# -- write-behind flush pipeline (scheme zoo) ------------------------------
CACHE_FLUSH_ENQUEUE = "cache.flush.enqueue"  # write parked in dirty buffer
CACHE_FLUSH_WRITE = "cache.flush.write"      # dirty entry made durable
CACHE_FLUSH_LOST = "cache.flush.lost"        # dirty entry lost to a crash
CACHE_TTL_EXPIRE = "cache.ttl.expire"        # TTL lapsed; entry refetched

# -- causal scheme (vector-clock metadata, session migration) ---------------
CAUSAL_WRITE = "causal.write"                # write tagged with a vc
CAUSAL_MIGRATE = "causal.migrate"            # session moved between nodes
CAUSAL_SYNC = "causal.sync"                  # pull round to close a vc gap

# -- sharded directory topologies ------------------------------------------
SHARD_REHOME = "shard.rehome"          # voluntary leader change (join/leave)
SHARD_FAILOVER = "shard.failover"      # crash-driven leader change
SHARD_ADOPT = "shard.adopt"            # new leader adopted mirrored entries

# -- FaaS control plane ----------------------------------------------------
SCHED_WARM = "sched.warm"
SCHED_COLD = "sched.cold"
REQ_RESCHEDULE = "req.reschedule"

# -- dump triggers ---------------------------------------------------------
FAULT_INJECT = "fault.inject"
VERIFY_VIOLATION = "verify.violation"

#: Every event type the recorder may carry (closed set, sorted).
EVENT_TYPES = frozenset({
    CACHE_INSTALL, CACHE_UPDATE, CACHE_DOWNGRADE, CACHE_INVALIDATE,
    CACHE_EVICT,
    CACHE_FLUSH_ENQUEUE, CACHE_FLUSH_WRITE, CACHE_FLUSH_LOST,
    CACHE_TTL_EXPIRE,
    CAUSAL_WRITE, CAUSAL_MIGRATE, CAUSAL_SYNC,
    DIR_EXCLUSIVE, DIR_SHARER, DIR_REMOVE, DIR_TRANSFER, DIR_PRUNE,
    INV_SEND, INV_RECV,
    RPC_TIMEOUT, RPC_RESET,
    BARRIER_RAISE, BARRIER_LIFT, RECOVERY_SURVIVOR, RECOVERY_COMPLETE,
    DOMAIN_CHANGE, MEMBER_DECLARE, MEMBER_EJECT, MEMBER_JOIN, MEMBER_LEAVE,
    PEER_UNREACHABLE,
    SHARD_REHOME, SHARD_FAILOVER, SHARD_ADOPT,
    SCHED_WARM, SCHED_COLD, REQ_RESCHEDULE,
    FAULT_INJECT, VERIFY_VIOLATION,
})

#: Event types whose emission triggers the automatic full dump.
DUMP_TRIGGERS = frozenset({FAULT_INJECT, VERIFY_VIOLATION})
