"""Consistent hash ring for elastic worker sharding.

The original hash sharding routed every block to worker
``shard_key(text) % num_workers``.  That is perfectly stable while the
worker count is fixed — and maximally unstable the moment it changes:
going from N to N+1 workers remaps roughly ``N/(N+1)`` of all keys, so a
single resize cold-starts almost every worker's encode and prediction
caches at once.

A consistent hash ring fixes the resize cost.  Every worker owns a set of
*virtual nodes* — pseudo-random points on a 32-bit ring derived from the
worker id — and a key belongs to the worker owning the first point at or
after the key's hash (wrapping around).  Adding worker N only claims the
arcs immediately before worker N's points: in expectation ``1/(N+1)`` of
the key space moves, all of it *to* the new worker, and every key that
does not land on the new worker keeps its previous owner exactly.
Removing a worker is the mirror image — its arcs fall back to the ring
neighbours, nobody else moves.  That is what lets the elastic pool scale
with queue depth while the surviving workers' caches stay warm.

Vnode points use CRC32 like :func:`repro.serve.batching.shard_key` — a
salted ``hash()`` would scatter the ring differently in every process,
breaking parent/worker agreement after respawns.

Hot-key replication
-------------------

Consistent hashing gives every key exactly one owner — which is exactly
wrong for a Zipf-skewed key stream, where the head key alone can carry a
double-digit share of the traffic and serializes on one worker while the
rest of the pool idles.  :class:`HotKeyTracker` surfaces the Zipf head
(bounded space-saving counters with periodic decay), and
:class:`HotKeyRouter` routes those keys *read-any* across their first
``replicas`` distinct ring successors (:meth:`HashRing.owners`) instead
of pinning them to one.  Throughput predictions are deterministic per
block text, so any replica's answer is equally correct; each replica's
prediction cache warms the key independently and the per-key round-robin
spreads the load.  Cold keys keep the pure single-owner routing (perfect
cache affinity), and replica sets move under resizes exactly like single
owners do: ~1/N of the key space, no more.

Routing around sick workers
---------------------------

:meth:`HashRing.owner` and :meth:`HashRing.owners` take an optional
*admit predicate* (the pool's ``CircuitBreaker.allow``): the walk goes
clockwise from the key and returns the first worker(s) the predicate
accepts, falling back to the plain topological owner when it accepts
none.  The predicate is called lazily and the walk stops at the first
acceptance, because an acceptance can be consumed — a half-open breaker
admits exactly one probe — and must be followed by a block routed to
that worker.  :class:`HotKeyRouter` is the one place the serving stack
makes this decision.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import zlib
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.serve.batching import shard_key

__all__ = [
    "HashRing",
    "HotKeyTracker",
    "HotKeyRouter",
    "DEFAULT_VNODES",
    "RING_SPACE",
]

#: Virtual nodes per worker.  More vnodes mean better balance (relative
#: load deviation shrinks roughly with 1/sqrt(vnodes)) at a small rebuild
#: and lookup cost.  1024 keeps even a two-worker ring within ~1% of an
#: even split — that matters: at 128 vnodes a 44/56 split made the
#: busier worker the flush-cadence bottleneck and measurably inflated
#: p99 flush waits in the sustained serving benchmark.  Rebuilds stay
#: trivial (resizes sort workers x vnodes points, a few ms at most).
DEFAULT_VNODES = 1024

#: Size of the ring's key space (CRC32 is 32-bit).
RING_SPACE = 1 << 32

#: A routing predicate: True when the worker may take a block right now.
#: A True answer may be consumed (a half-open breaker's probe), so it must
#: be followed by a block routed to that worker.
Admit = Callable[[int], bool]


def _vnode_point(node: int, replica: int) -> int:
    """The ring position of one virtual node (stable across processes)."""
    return zlib.crc32(f"worker-{node}#vnode-{replica}".encode("utf-8"))


class HashRing:
    """A consistent hash ring over integer worker ids.

    Args:
        num_vnodes: Virtual nodes per worker.
        nodes: Optional initial worker ids.
    """

    def __init__(
        self, num_vnodes: int = DEFAULT_VNODES, nodes: Sequence[int] = ()
    ) -> None:
        if num_vnodes < 1:
            raise ValueError("num_vnodes must be positive")
        self.num_vnodes = int(num_vnodes)
        # Sorted, parallel: _points[i] is the ring position of the vnode
        # owned by _owners[i].  Ties (vanishingly rare CRC collisions) are
        # broken deterministically by owner id via the (point, node) sort.
        self._points: List[int] = []
        self._owners: List[int] = []
        self._nodes: set = set()
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------ #
    # Membership.
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> Tuple[int, ...]:
        """The worker ids on the ring, sorted."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def add_node(self, node: int) -> None:
        """Places ``node``'s virtual nodes on the ring."""
        node = int(node)
        if node in self._nodes:
            raise ValueError(f"node {node} is already on the ring")
        self._nodes.add(node)
        self._rebuild()

    def remove_node(self, node: int) -> None:
        """Removes ``node``'s virtual nodes; its arcs fall to the neighbours."""
        node = int(node)
        if node not in self._nodes:
            raise ValueError(f"node {node} is not on the ring")
        self._nodes.remove(node)
        self._rebuild()

    def _rebuild(self) -> None:
        # Rebuilding from scratch keeps add/remove trivially correct; the
        # ring is tiny (workers x vnodes) and resizes are rare events
        # guarded by a cooldown, so O(n log n) here is irrelevant.
        pairs = sorted(
            (_vnode_point(node, replica), node)
            for node in self._nodes
            for replica in range(self.num_vnodes)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [node for _, node in pairs]

    # ------------------------------------------------------------------ #
    # Lookup.
    # ------------------------------------------------------------------ #
    def owner(self, key: int, admit: Optional[Admit] = None) -> int:
        """The worker id owning ``key`` (any int; taken modulo the ring).

        With ``admit``, the first worker clockwise from ``key`` that the
        predicate accepts (see :meth:`owners`).
        """
        if admit is not None:
            return self.owners(key, 1, admit)[0]
        if not self._points:
            raise LookupError("the ring has no nodes")
        index = bisect.bisect_left(self._points, int(key) % RING_SPACE)
        if index == len(self._points):
            index = 0  # wrap: keys past the last point belong to the first
        return self._owners[index]

    def owners(
        self, key: int, count: int = 1, admit: Optional[Admit] = None
    ) -> List[int]:
        """The first ``count`` *distinct* workers clockwise from ``key``.

        ``owners(key, 1) == [owner(key)]`` by construction, and growing
        ``count`` only ever appends — the replica set of a key is a prefix
        of its clockwise successor sequence, which is what makes
        replication inherit consistent hashing's movement bound: adding a
        node can displace at most one member of any key's replica set
        (the new node itself slots in), removing a node replaces only that
        node with the next successor.

        ``count`` is clamped to the number of nodes on the ring (a
        two-worker pool cannot hold three replicas).

        ``admit`` skips the workers it refuses.  It is called lazily, in
        walk order, and the walk stops once ``count`` workers were
        accepted, so a predicate with side effects (a half-open breaker
        handing out its one probe) is consulted only for workers that are
        returned or passed over.  When it accepts none, the plain
        topological owners come back: traffic must land somewhere, and the
        pool's respawn path heals it.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if not self._points:
            raise LookupError("the ring has no nodes")
        walk = self._walk(key)
        if admit is None:
            return list(itertools.islice(walk, count))
        chosen: List[int] = []
        for node in walk:
            if admit(node):
                chosen.append(node)
                if len(chosen) == count:
                    break
        return chosen or self.owners(key, count)

    def _walk(self, key: int) -> Iterator[int]:
        """Yields every node once, clockwise from ``key``.

        Bounded by one full lap (every node appears within one lap by
        definition).
        """
        index = bisect.bisect_left(self._points, int(key) % RING_SPACE)
        total = len(self._points)
        seen: set = set()
        for step in range(total):
            node = self._owners[(index + step) % total]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self._nodes):
                    return

    def shares(self) -> Dict[int, float]:
        """Fraction of the key space owned per worker (sums to 1.0)."""
        if not self._points:
            return {}
        shares: Dict[int, float] = {node: 0.0 for node in self._nodes}
        previous = self._points[-1] - RING_SPACE  # wrap-around arc
        for point, node in zip(self._points, self._owners):
            shares[node] += (point - previous) / RING_SPACE
            previous = point
        return shares


class HotKeyTracker:
    """Bounded frequency tracker surfacing the Zipf head of a key stream.

    A space-saving-style counter: at most ``capacity`` keys are tracked;
    when a new key arrives at capacity it evicts the current minimum and
    inherits its count (the classic over-estimate bound, fine here — we
    only need the *head* to surface, not exact counts).  Every
    ``decay_interval`` observations all counts halve and zeros drop, so a
    formerly-hot key cools off instead of staying hot forever.

    The hot set (the top ``hot_count`` keys with at least ``min_hits``
    observations) is recomputed lazily once at least ``refresh_interval``
    observations have arrived since the previous recomputation — a
    watermark, not a modulo, so a refresh consumed early (the very first
    route asks for the hot set) cannot push the next one a full interval
    out.  Per-observation cost stays O(1) dict work.

    Not thread-safe by itself; the service observes keys under its own
    submission lock.
    """

    def __init__(
        self,
        capacity: int = 1024,
        hot_count: int = 8,
        min_hits: int = 16,
        decay_interval: int = 65536,
        refresh_interval: int = 64,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if hot_count < 1:
            raise ValueError("hot_count must be >= 1")
        if min_hits < 1:
            raise ValueError("min_hits must be >= 1")
        if decay_interval < 1 or refresh_interval < 1:
            raise ValueError("intervals must be >= 1")
        self.capacity = int(capacity)
        self.hot_count = int(hot_count)
        self.min_hits = int(min_hits)
        self.decay_interval = int(decay_interval)
        self.refresh_interval = int(refresh_interval)
        self._counts: Dict[int, int] = {}
        self._observed = 0
        self._hot: FrozenSet[int] = frozenset()
        self._refreshed_at = 0  # _observed value at the last hot-set refresh

    def observe(self, key: int) -> None:
        """Records one occurrence of ``key``."""
        counts = self._counts
        if key in counts:
            counts[key] += 1
        elif len(counts) < self.capacity:
            counts[key] = 1
        else:
            victim = min(counts, key=counts.__getitem__)
            inherited = counts.pop(victim)
            counts[key] = inherited + 1
        self._observed += 1
        if self._observed % self.decay_interval == 0:
            self._counts = {
                tracked: count // 2
                for tracked, count in counts.items()
                if count // 2 > 0
            }
            # Force a refresh on the next read: decayed keys may have
            # dropped below min_hits.
            self._refreshed_at = self._observed - self.refresh_interval

    def hot_keys(self) -> FrozenSet[int]:
        """The current hot set (lazily refreshed)."""
        if self._observed - self._refreshed_at >= self.refresh_interval:
            eligible = [
                (count, key)
                for key, count in self._counts.items()
                if count >= self.min_hits
            ]
            top = heapq.nlargest(self.hot_count, eligible)
            self._hot = frozenset(key for _, key in top)
            self._refreshed_at = self._observed
        return self._hot

    def __len__(self) -> int:
        return len(self._counts)


class HotKeyRouter:
    """The serving stack's one routing decision: block text -> worker id.

    Cold keys route exactly like the plain ring (``ring.owner``): one
    owner, perfect cache affinity.  Keys the tracker classifies hot route
    round-robin across their first ``replicas`` distinct ring successors,
    so the Zipf head's traffic spreads instead of serializing on one
    worker — each replica's prediction cache warms the key once and every
    route after that is a cache hit wherever it lands.  A single-replica
    router neither observes keys nor replicates, so it costs no more than
    ``ring.owner(shard_key(text))``.

    ``admit`` (the pool's ``CircuitBreaker.allow`` when circuit breaking
    is on) is asked only about the worker a route is about to pick: the
    rotation's replica first, and when it refuses, the ring's admit walk
    (:meth:`HashRing.owner`).  Every admission is therefore followed by a
    block routed to the admitted worker, so a half-open worker never loses
    its probe to a route that went elsewhere.

    The router reads the live ring on every route, so pool resizes need
    no notification: replica sets follow the ring's own movement bound.
    Not thread-safe by itself (used under the service's submission lock).
    """

    def __init__(
        self,
        ring: HashRing,
        replicas: int = 2,
        tracker: HotKeyTracker = None,
        hot_count: int = 8,
        admit: Optional[Admit] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.ring = ring
        self.replicas = int(replicas)
        self.admit = admit
        # `tracker or ...` would discard an *empty* tracker (its __len__ is
        # 0, hence falsy) — an explicit None check is required.
        if tracker is None:
            tracker = HotKeyTracker(hot_count=hot_count)
        self.tracker = tracker
        #: Per-hot-key round-robin cursor (pruned to the live hot set).
        self._cursors: Dict[int, int] = {}
        #: Blocks routed through a replica set (vs. the single owner).
        self.replicated_routes = 0
        self.total_routes = 0

    def route(self, key: int) -> int:
        """The worker ``key`` should go to right now (and counts the route)."""
        if not self.ring:
            raise ValueError("the ring has no workers to route to")
        self.total_routes += 1
        if self.replicas > 1 and key in self.tracker.hot_keys():
            owners = self.ring.owners(key, self.replicas)
            if len(owners) > 1:
                cursor = self._cursors.get(key, 0)
                self._cursors[key] = cursor + 1
                if len(self._cursors) > 4 * self.tracker.hot_count:
                    hot = self.tracker.hot_keys()
                    self._cursors = {
                        k: v for k, v in self._cursors.items() if k in hot
                    }
                node = owners[cursor % len(owners)]
                if self.admit is None or self.admit(node):
                    self.replicated_routes += 1
                    return node
        return self.ring.owner(key, self.admit)

    def route_text(self, text: str) -> int:
        """Observes and routes one block text (the coalescer's owner_of)."""
        key = shard_key(text)
        if self.replicas > 1:
            self.tracker.observe(key)
        return self.route(key)

    @property
    def hot_keys(self) -> FrozenSet[int]:
        """The tracker's current hot set."""
        return self.tracker.hot_keys()
