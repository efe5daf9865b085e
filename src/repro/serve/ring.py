"""Consistent hash ring for worker sharding.

Every worker owns a set of *virtual nodes* — pseudo-random points on a
32-bit ring derived from the worker id — and a key belongs to the worker
owning the first point at or after the key's hash (wrapping around).  A
ring is built once from its worker ids and never changes: the worker pool
is fixed, and a respawned worker keeps its id, so every worker's share of
the key space (and with it the contents of its encode and prediction
caches) lasts as long as the pool.

The ring earns its keep when a worker is refused traffic.  Its vnodes
scatter its arcs around the ring, so the walk past it (see below) spreads
its keys over all the other workers instead of piling them onto one
neighbour, and every key the refused worker does not own keeps its owner.

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
#: load deviation shrinks roughly with 1/sqrt(vnodes)) at a small
#: construction and lookup cost.  1024 keeps even a two-worker ring within
#: ~1% of an even split — that matters: at 128 vnodes a 44/56 split made the
#: busier worker the flush-cadence bottleneck and measurably inflated
#: p99 flush waits in the sustained serving benchmark.  Construction stays
#: trivial (it sorts workers x vnodes points, a few ms at most).
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
    """A consistent hash ring over a fixed set of integer worker ids.

    Every worker places :data:`DEFAULT_VNODES` virtual nodes.

    Args:
        nodes: The worker ids (distinct).
    """

    def __init__(self, nodes: Sequence[int] = ()) -> None:
        ids = [int(node) for node in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids: {ids}")
        self._nodes = frozenset(ids)
        # Sorted, parallel: _points[i] is the ring position of the vnode
        # owned by _owners[i].  Ties (vanishingly rare CRC collisions) are
        # broken deterministically by owner id via the (point, node) sort.
        pairs = sorted(
            (_vnode_point(node, replica), node)
            for node in self._nodes
            for replica in range(DEFAULT_VNODES)
        )
        self._points: List[int] = [point for point, _ in pairs]
        self._owners: List[int] = [node for _, node in pairs]

    @property
    def nodes(self) -> Tuple[int, ...]:
        """The worker ids on the ring, sorted."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

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
