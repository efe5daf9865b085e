"""Bounded priority request queue with work-conserving takes.

This is the producer/consumer core of the async serving front end
(:class:`repro.serve.async_service.AsyncPredictionService`).  Producers
:meth:`~RequestQueue.put` requests and immediately get a
:class:`concurrent.futures.Future`; the dispatcher thread calls
:meth:`~RequestQueue.take_batch` as soon as its previous flush is done.
The take is work-conserving: it blocks only while the queue is empty and
otherwise drains whatever is queued, up to ``max_batch_size`` blocks, at
once.  No timer holds a request back to wait for company — batching comes
from load alone, because requests arriving during a flush pile up and
leave together in the next, larger batch.

Requests carry a :class:`Priority`: the flush drains strictly in priority
order (ties broken by arrival), so an interactive autotuner request jumps
ahead of queued bulk-eval traffic without any extra machinery.

Admission is bounded in *blocks*, not requests — a thousand one-block
requests and one thousand-block request cost the model the same.  When the
queue is full, the configured back-pressure policy decides: ``"block"``
makes ``put`` wait (optionally with a timeout) for the dispatcher to drain,
``"reject"`` raises :class:`QueueFullError` immediately so the client can
shed load itself.

Admitted requests can still leave the queue without being served:

* **cancellation** — a client calling ``entry.future.cancel()`` while the
  request is queued discards it *eagerly*: its blocks stop counting against
  the admission bound and the flush budget immediately, so an abandoned
  autotuner candidate never reaches a worker;
* **expiry** — a request admitted with a ``deadline_s`` budget that the
  dispatcher cannot meet resolves with :class:`RequestExpiredError` instead
  of occupying a micro-batch slot.

The queue is the one place that drops them: :meth:`RequestQueue.take_batch`
claims the future of every entry it drains (``set_running_or_notify_cancel``),
so a request cancelled in the instant before the claim is dropped and
counted there too, and every future it hands to the dispatcher is already
running — no longer cancellable, and never dead.  Both drop classes are
counted once (:attr:`RequestQueue.cancelled`, :attr:`RequestQueue.expired`)
so the serving stats can report drop rates.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Tuple

from repro.serve.types import (
    PredictionRequest,
    QueueFullError,
    RequestExpiredError,
    ServiceClosedError,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "Priority",
    "QueueFullError",
    "QueuedRequest",
    "RequestExpiredError",
    "RequestQueue",
]

#: Admission policies when the queue is at capacity.
BACKPRESSURE_POLICIES = ("block", "reject")


class Priority(IntEnum):
    """Scheduling class of a request; lower values are served first.

    The gap between the levels is deliberate: callers with finer needs can
    pass any int in between (e.g. ``Priority.BULK - 1`` for "bulk but ahead
    of the backfill job").
    """

    #: A caller is blocked on the answer (e.g. a compiler autotuner's inner
    #: loop); jumps ahead of any queued bulk traffic.
    INTERACTIVE = 0
    #: Default traffic.
    NORMAL = 10
    #: Throughput-oriented batch evaluation; yields to everything else.
    BULK = 20


@dataclass
class QueuedRequest:
    """One admitted request together with its delivery machinery.

    Attributes:
        request: The client's prediction request.
        priority: Scheduling class (lower drains first).
        sequence: Admission order, the tie-breaker within a priority.
        enqueued_at: ``time.monotonic()`` of admission; the wait-latency
            stats and the per-request deadline are measured from here.
        deadline_at: Optional ``time.monotonic()`` instant after which the
            request is dropped with :class:`RequestExpiredError` instead of
            being dispatched (``None`` = never expires).
        future: Resolves to the :class:`~repro.serve.types.PredictionResponse`
            (or the submission's exception).
    """

    request: PredictionRequest
    priority: int
    sequence: int
    enqueued_at: float
    deadline_at: Optional[float] = None
    future: Future = field(default_factory=Future)


class RequestQueue:
    """Thread-safe bounded priority queue of prediction requests.

    Args:
        max_blocks: Admission bound in blocks (not requests).
        policy: ``"block"`` or ``"reject"`` (see module docstring).
    """

    def __init__(self, max_blocks: int = 4096, policy: str = "block") -> None:
        if max_blocks < 1:
            raise ValueError("max_blocks must be positive")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown back-pressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        self.max_blocks = int(max_blocks)
        self.policy = policy
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, QueuedRequest]] = []
        self._by_arrival: "OrderedDict[int, QueuedRequest]" = OrderedDict()
        self._sequence = itertools.count()
        self._pending_blocks = 0
        #: Live entries carrying a deadline; gates the expiry machinery so
        #: deadline-free traffic pays nothing for the feature.
        self._deadline_entries = 0
        #: Min-heap of ``(deadline_at, sequence)`` for O(log n) expiry —
        #: lazily deleted like ``_heap`` (entries that left the queue some
        #: other way are skipped when they surface).
        self._deadline_heap: List[Tuple[float, int]] = []
        self._closed = False
        #: Requests turned away (reject policy or block-policy timeout).
        self.rejected = 0
        #: Requests discarded because their future was cancelled in-queue
        #: (eagerly, or found cancelled when ``take_batch`` claimed it).
        self.cancelled = 0
        #: Requests dropped (``RequestExpiredError``) past their deadline.
        self.expired = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_arrival)

    @property
    def pending_blocks(self) -> int:
        """Blocks currently admitted and not yet drained."""
        with self._lock:
            return self._pending_blocks

    # ------------------------------------------------------------------ #
    # Producer side.
    # ------------------------------------------------------------------ #
    def put(
        self,
        request: PredictionRequest,
        priority: int = Priority.NORMAL,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> QueuedRequest:
        """Admits ``request``, returning its queue entry (with the future).

        Args:
            request: The request to admit.
            priority: Scheduling class (lower drains first).
            timeout: With the ``block`` policy, how long to wait for space.
            deadline_s: Optional per-request latency budget, measured from
                admission; once it passes, the request is dropped with
                :class:`RequestExpiredError` instead of being dispatched.

        Raises:
            QueueFullError: Capacity exceeded and the policy is ``reject``,
                the ``block`` wait timed out, or the request alone exceeds
                ``max_blocks`` (it could never be admitted).
            ServiceClosedError: The queue is closed.
        """
        if deadline_s is not None and not 0 <= deadline_s < math.inf:
            raise ValueError("deadline_s must be finite and >= 0")
        blocks = request.num_blocks
        with self._lock:
            if self._closed:
                raise ServiceClosedError("queue is closed")
            if blocks > self.max_blocks:
                self.rejected += 1
                raise QueueFullError(
                    f"request {request.request_id!r} has {blocks} blocks, more "
                    f"than the queue's total capacity of {self.max_blocks}"
                )
            if self._pending_blocks + blocks > self.max_blocks:
                if self.policy == "reject":
                    self.rejected += 1
                    raise QueueFullError(
                        f"queue full ({self._pending_blocks}/{self.max_blocks} "
                        f"blocks); request {request.request_id!r} rejected"
                    )
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._pending_blocks + blocks > self.max_blocks:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        self.rejected += 1
                        raise QueueFullError(
                            f"timed out after {timeout:.3f}s waiting for queue "
                            f"space for request {request.request_id!r}"
                        )
                    self._not_full.wait(remaining)
                    if self._closed:
                        raise ServiceClosedError(
                            "queue closed while waiting for space"
                        )
            sequence = next(self._sequence)
            enqueued_at = time.monotonic()
            entry = QueuedRequest(
                request=request,
                priority=int(priority),
                sequence=sequence,
                enqueued_at=enqueued_at,
                deadline_at=(
                    None if deadline_s is None else enqueued_at + deadline_s
                ),
            )
            heapq.heappush(self._heap, (entry.priority, sequence, entry))
            self._by_arrival[sequence] = entry
            self._pending_blocks += blocks
            if entry.deadline_at is not None:
                self._deadline_entries += 1
                heapq.heappush(self._deadline_heap, (entry.deadline_at, sequence))
            self._work.notify_all()
        # Outside the lock: a cancel() from another thread runs this callback
        # synchronously, and the discard it triggers takes the lock itself.
        entry.future.add_done_callback(
            lambda future, entry=entry: self._on_future_done(entry)
        )
        return entry

    def _on_future_done(self, entry: QueuedRequest) -> None:
        """Eagerly discards an entry whose future was cancelled in-queue.

        Done callbacks fire for normal resolution too; only a *cancelled*
        future whose entry is still queued needs work — its blocks stop
        counting against admission and the flush budget immediately, and
        blocked producers get the freed space.
        """
        if not entry.future.cancelled():
            return
        with self._lock:
            if entry.sequence not in self._by_arrival:
                return  # already drained (or expired); accounted elsewhere
            self._remove_entry_locked(entry)
            self.cancelled += 1
            self._not_full.notify_all()
            self._work.notify_all()

    def _remove_entry_locked(self, entry: QueuedRequest) -> None:
        del self._by_arrival[entry.sequence]
        self._pending_blocks -= entry.request.num_blocks
        if entry.deadline_at is not None:
            self._deadline_entries -= 1
        self._compact_heap_locked()

    def _compact_heap_locked(self) -> None:
        """Rebuilds the heaps once lazy deletions dominate them.

        Entries removed out of band (cancelled, expired, or drained as the
        arrival-oldest) stay in the heaps as stale tuples until a pop
        happens to pass them — but the priority heap only drains when live
        entries exist, so an idle queue fed speculative submit-then-cancel
        traffic would otherwise pin every cancelled request's payload
        forever.  Rebuilding when stale tuples outnumber live entries
        keeps both heaps O(live) at amortized O(1) per removal.
        """
        stale = len(self._heap) - len(self._by_arrival)
        if stale > 16 and stale > len(self._by_arrival):
            self._heap = [
                (entry.priority, entry.sequence, entry)
                for entry in self._by_arrival.values()
            ]
            heapq.heapify(self._heap)
        stale_deadlines = len(self._deadline_heap) - self._deadline_entries
        if stale_deadlines > 16 and stale_deadlines > self._deadline_entries:
            self._deadline_heap = [
                (entry.deadline_at, entry.sequence)
                for entry in self._by_arrival.values()
                if entry.deadline_at is not None
            ]
            heapq.heapify(self._deadline_heap)

    # ------------------------------------------------------------------ #
    # Consumer (dispatcher) side.
    # ------------------------------------------------------------------ #
    def take_batch(self, max_blocks: int) -> List[QueuedRequest]:
        """Drains and returns one batch, blocking only while the queue is empty.

        Entries come out in priority order (ties by arrival) and cover at
        most ``max_blocks`` blocks, with two deliberate exceptions: the
        arrival-oldest entry is always included (sustained high-priority
        traffic must not starve it), and an over-sized request rides along
        uncut (the prediction service splits it into micro-batches anyway).
        An empty list means the queue was closed and fully drained: the
        dispatcher should exit.

        Every returned entry's future is already running (claimed with
        ``set_running_or_notify_cancel``), so the caller resolves it with a
        result or an exception and nothing else.  Dead requests are dropped
        here, before they can occupy batch capacity: entries found cancelled
        at the claim are counted in :attr:`cancelled`, and entries whose
        per-request deadline has passed resolve with
        :class:`RequestExpiredError`.
        """
        if max_blocks < 1:
            raise ValueError("max_blocks must be positive")
        while True:
            expired: List[QueuedRequest] = []
            batch: Optional[List[QueuedRequest]] = None
            with self._lock:
                while True:
                    expired.extend(self._pop_expired_locked(time.monotonic()))
                    if self._by_arrival:
                        batch = self._drain_locked(max_blocks) or None
                        if batch:
                            break
                        # Everything drained had been cancelled (its discard
                        # callback not yet run): look again, so a queue
                        # closed meanwhile still returns [] below.
                        continue
                    if self._closed:
                        batch = []
                        break
                    if expired:
                        break  # resolve them before blocking again
                    self._work.wait()
            # Futures are resolved outside the lock: done callbacks run in
            # the resolving thread and may call back into the queue.
            for entry in expired:
                self._resolve_expired(entry)
            if batch is not None:
                return batch

    def _pop_expired_locked(self, now: float) -> List[QueuedRequest]:
        """Removes (without resolving) every entry past its deadline.

        O(expired log n) via the deadline heap — a deadline-carrying
        backlog must not cost a full queue scan per dispatcher wake-up.
        """
        if not self._deadline_entries:
            return []
        expired: List[QueuedRequest] = []
        while self._deadline_heap:
            deadline_at, sequence = self._deadline_heap[0]
            entry = self._by_arrival.get(sequence)
            if entry is None:
                heapq.heappop(self._deadline_heap)  # left some other way
                continue
            if deadline_at > now:
                break
            heapq.heappop(self._deadline_heap)
            self._remove_entry_locked(entry)
            expired.append(entry)
        if expired:
            self._not_full.notify_all()
        return expired

    def _resolve_expired(self, entry: QueuedRequest) -> None:
        # set_running first: if the client cancelled concurrently, the
        # future is already resolved and set_exception would raise
        # InvalidStateError.  A cancel that won the race is counted as a
        # cancellation, keeping every dropped entry counted exactly once.
        waited = time.monotonic() - entry.enqueued_at
        if entry.future.set_running_or_notify_cancel():
            entry.future.set_exception(
                RequestExpiredError(
                    f"request {entry.request.request_id!r} expired after "
                    f"waiting {waited:.3f}s (deadline "
                    f"{entry.deadline_at - entry.enqueued_at:.3f}s)"
                )
            )
            with self._lock:
                self.expired += 1
        else:
            with self._lock:
                self.cancelled += 1

    def _drain_locked(self, max_blocks: int) -> List[QueuedRequest]:
        # Anti-starvation: the arrival-oldest entry is always part of the
        # flush, whatever its priority.  Otherwise sustained high-priority
        # traffic filling every batch would leave an old bulk request stuck
        # behind it forever.
        oldest_entry = next(iter(self._by_arrival.values()))
        taken = [oldest_entry] if self._claim_locked(oldest_entry) else []
        total = sum(entry.request.num_blocks for entry in taken)
        while self._heap:
            _, sequence, entry = self._heap[0]
            if sequence not in self._by_arrival:
                # Already gone: drained as the oldest, cancelled or expired.
                heapq.heappop(self._heap)
                continue
            if total + entry.request.num_blocks > max_blocks:
                break
            heapq.heappop(self._heap)
            if self._claim_locked(entry):
                taken.append(entry)
                total += entry.request.num_blocks
        # The batch itself still leads with the highest-priority entries.
        taken.sort(key=lambda entry: (entry.priority, entry.sequence))
        self._not_full.notify_all()
        return taken

    def _claim_locked(self, entry: QueuedRequest) -> bool:
        """Drains ``entry`` and claims its future; False if it was cancelled.

        Safe under the queue lock: a False return (cancelled before the
        claim) runs no callbacks, and a cancel() that loses the race finds
        the future running and the entry gone, so it counts nothing.
        """
        self._remove_entry_locked(entry)
        if entry.future.set_running_or_notify_cancel():
            return True
        self.cancelled += 1
        return False

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Stops admissions; pending entries remain drainable (idempotent).

        Producers blocked in ``put`` are woken and fail; the dispatcher
        keeps receiving batches until the queue is empty, so nothing
        already admitted is dropped.
        """
        with self._lock:
            self._closed = True
            self._work.notify_all()
            self._not_full.notify_all()
