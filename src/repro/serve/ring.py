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

Routing around sick workers
---------------------------

:meth:`HashRing.owner` takes an optional *admit predicate* (the pool's
``CircuitBreaker.allow``): the walk goes clockwise from the key and
returns the first worker the predicate accepts, falling back to the plain
topological owner when it accepts none.  The predicate is called lazily
and the walk stops at the first acceptance, because an acceptance can be
consumed — a half-open breaker admits exactly one probe — and must be
followed by a block routed to that worker.  ``owner(shard_key(text),
admit)`` is the serving stack's one routing decision.

Every key has exactly one owner, hot or cold.  A prediction depends only
on the block text, and a worker's model computes a repeated text once per
batch and answers it from its prediction cache after that, so a Zipf-head
key costs its owner one forward pass and then cache hits: there is no
work a second worker could share.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["HashRing", "DEFAULT_VNODES", "RING_SPACE"]

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

    Every worker places :data:`DEFAULT_VNODES` virtual nodes.

    Args:
        nodes: Optional initial worker ids.
    """

    def __init__(self, nodes: Sequence[int] = ()) -> None:
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
            for replica in range(DEFAULT_VNODES)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [node for _, node in pairs]

    # ------------------------------------------------------------------ #
    # Lookup.
    # ------------------------------------------------------------------ #
    def owner(self, key: int, admit: Optional[Admit] = None) -> int:
        """The worker id owning ``key`` (any int; taken modulo the ring).

        ``admit`` skips the workers it refuses: the result is the first
        worker clockwise from ``key`` that the predicate accepts.  It is
        called lazily, in walk order, and the walk stops at the first
        acceptance, so a predicate with side effects (a half-open breaker
        handing out its one probe) is consulted only for the worker that
        is returned and the ones passed over before it.  When it accepts
        none, the plain topological owner comes back: traffic must land
        somewhere, and the pool's respawn path heals it.
        """
        if not self._points:
            raise LookupError("the ring has no nodes")
        index = bisect.bisect_left(self._points, int(key) % RING_SPACE)
        index %= len(self._points)  # keys past the last point wrap to the first
        if admit is not None:
            for node in self._walk(index):
                if admit(node):
                    return node
        return self._owners[index]

    def _walk(self, index: int) -> Iterator[int]:
        """Yields every node once, clockwise from point ``index``.

        Bounded by one full lap (every node appears within one lap by
        definition).
        """
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
