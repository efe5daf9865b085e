"""Micro-batch coalescing of prediction requests.

The serving layer speaks *canonical block text* rather than in-memory
:class:`~repro.isa.basic_block.BasicBlock` objects: text is what a compiler
autotuner or a network client naturally sends, it is cheap to ship across
process boundaries, and it doubles as the cache key of the models' encode
caches.

Coalescing merges the blocks of many heterogeneous requests into
size-bounded micro-batches, one run per owning worker.  A request with 100
blocks and three requests with one block each become, at
``max_batch_size=64`` and one owner, two batches of 64 and 39 blocks — each
batch remembers which (request, position) every block came from so
responses can be reassembled exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.serve.types import PredictionRequest

__all__ = [
    "MicroBatch",
    "coalesce_requests",
    "shard_key",
]


@dataclass(frozen=True)
class MicroBatch:
    """A size-bounded batch of blocks drawn from one or more requests.

    Attributes:
        block_texts: The blocks of this batch, in batch order.
        origins: ``(request_index, position)`` of every block, aligned with
            ``block_texts``; ``request_index`` refers to the submission's
            request list and ``position`` to the block's index within that
            request.
    """

    block_texts: Tuple[str, ...]
    origins: Tuple[Tuple[int, int], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.block_texts)


def coalesce_requests(
    requests: Sequence[PredictionRequest],
    max_batch_size: int,
    owner_of: Callable[[str], int],
) -> List[Tuple[int, MicroBatch]]:
    """Merges the blocks of ``requests`` into per-owner micro-batches.

    Every block goes to ``owner_of(text)``: a constant for the in-process
    path, or the block's ring owner
    (:meth:`repro.serve.ring.HashRing.owner` of its :func:`shard_key`) for
    the worker pool.  Blocks keep their submission order (request
    order, then block order) within each owner, so small requests arriving
    together share batches and large requests are split.  Empty requests
    contribute nothing.

    Args:
        requests: The requests of one submission.
        max_batch_size: Upper bound on the blocks per micro-batch.
        owner_of: Maps a block text to the id of the worker serving it.

    Returns:
        ``(owner, micro_batch)`` pairs covering every block exactly once,
        grouped per owner in ascending owner order; owners with no blocks
        contribute no pairs.
    """
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be positive")
    grouped: Dict[int, List[Tuple[str, Tuple[int, int]]]] = {}
    for request_index, request in enumerate(requests):
        for position, text in enumerate(request.block_texts):
            grouped.setdefault(owner_of(text), []).append(
                (text, (request_index, position))
            )
    assignments: List[Tuple[int, MicroBatch]] = []
    for owner in sorted(grouped):
        entries = grouped[owner]
        for start in range(0, len(entries), max_batch_size):
            texts, origins = zip(*entries[start : start + max_batch_size])
            assignments.append(
                (owner, MicroBatch(block_texts=texts, origins=origins))
            )
    return assignments


def shard_key(block_text: str) -> int:
    """Stable shard key of a block's canonical text.

    CRC32 rather than :func:`hash`: Python's string hash is salted per
    process, so it would scatter the same block to different workers across
    service restarts (and between the parent and respawned workers).  The
    key only has to be stable and well-mixed, not cryptographic.
    """
    return zlib.crc32(block_text.encode("utf-8"))
