"""The async serving front end: queued, work-conserving micro-batching.

:class:`~repro.serve.service.PredictionService` is synchronous — every
``submit`` call coalesces and flushes on its own, so concurrent clients
never share a batch and there is no queueing, no latency/throughput knob
and no back-pressure.  :class:`AsyncPredictionService` adds all three in
front of it:

* producers :meth:`~AsyncPredictionService.submit` individual requests and
  immediately receive a :class:`concurrent.futures.Future`;
* one dispatcher thread drains the shared
  :class:`~repro.serve.queue.RequestQueue` into micro-batch flushes.
  Dispatch is work-conserving: once its previous flush is done, the
  dispatcher flushes whatever is queued at once, up to ``max_batch_size``
  blocks, and waits only while the queue is empty.  A request arriving
  during a flush stays queued — still cancellable, still able to expire —
  and joins the next batch, so batches grow with load and an idle service
  never holds a lone request back.  One dispatcher is all the service
  behind it can use: ``PredictionService.submit`` serializes whole
  submissions under one lock;
* every flush is one synchronous ``PredictionService.submit`` call, so the
  async front end composes unchanged with the in-process model or the
  hash-sharded worker pool behind it — including that service's
  ``inference_dtype``: put the queue in front of a float32 service config
  and every flush runs mixed-precision across the whole sharded pool.

Requests can leave the queue without being served: clients may ``cancel()``
their future while it is queued (the entry is discarded eagerly, before it
can occupy a micro-batch) and requests submitted with a ``deadline_ms``
budget resolve with :class:`~repro.serve.queue.RequestExpiredError` when
the budget runs out.  The queue alone drops and counts both; the counts
are reported by :meth:`AsyncPredictionService.snapshot`, alongside the
queue depth and realized flush-wait percentiles.

A flush whose submission fails is not retried.  With ``degraded_mode`` on,
each request of the failed batch whose blocks all have a last-known-good
value is answered from the stale cache (``degraded=True``); every other
request's future resolves with the error.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Sequence, Union

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.serve.config import AsyncOptions, ServiceConfig
from repro.serve.faults import FaultInjector
from repro.serve.queue import Priority, QueueFullError, RequestQueue
from repro.serve.resilience import StalePredictionCache
from repro.serve.service import PredictionService
from repro.serve.stats import (
    FlushStats,
    QueueStats,
    ResilienceStats,
    ServiceSnapshot,
    latency_percentile,
)
from repro.serve.types import (
    PredictionRequest,
    PredictionResponse,
    ServiceClosedError,
)

__all__ = ["AsyncServiceStats", "AsyncPredictionService"]

#: Entry bound of the last-known-good cache behind ``degraded_mode``.
_STALE_CACHE_ENTRIES = 4096


@dataclass
class AsyncServiceStats:
    """Counters and flush-latency samples of one async front end."""

    requests: int = 0
    blocks: int = 0
    flushes: int = 0
    #: Flushes that held a full ``max_batch_size`` batch: the saturation
    #: signal (a dispatcher that keeps up flushes smaller batches).
    size_flushes: int = 0
    flushed_blocks: int = 0
    #: Wait of each flush's *oldest* request, enqueue -> dispatch, seconds.
    #: Bounded so a long-lived service cannot grow without limit.  A biased
    #: request-latency estimate by construction (one sample per flush, the
    #: worst-waiting request only) — per-request latency lives in
    #: ``request_latencies``.
    flush_waits: Deque[float] = field(default_factory=lambda: deque(maxlen=8192))
    #: Per-request enqueue -> completion latency, seconds (bounded
    #: reservoir).  Every served queue entry contributes one sample — the
    #: whole distribution, not just each flush's oldest request — so these
    #: percentiles are what clients actually experienced, including the
    #: model call itself.
    request_latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=8192)
    )
    #: Queue entries resolved with a response / with a service error.
    requests_completed: int = 0
    request_errors: int = 0
    #: Requests answered from the stale prediction cache (``degraded=True``).
    degraded_responses: int = 0
    #: Submissions rejected by an armed queue-saturation fault.
    injected_queue_rejections: int = 0

    @property
    def mean_flush_blocks(self) -> float:
        return self.flushed_blocks / self.flushes if self.flushes else 0.0

    def flush_wait_percentile(self, quantile: float) -> float:
        """The ``quantile`` (0..1) of recorded flush waits, in seconds.

        NaN while no flush has been recorded: an empty window must never
        read as 0.0, or SLO checks would mistake "no samples yet" for
        "zero latency".
        """
        return latency_percentile(self.flush_waits, quantile)

    def request_latency_percentile(self, quantile: float) -> float:
        """The ``quantile`` (0..1) of per-request latencies, in seconds.

        NaN for an empty window, like :meth:`flush_wait_percentile`.
        """
        return latency_percentile(self.request_latencies, quantile)


class AsyncPredictionService:
    """Queued prediction front end with work-conserving micro-batching.

    Args:
        options: Flush/queue knobs; ``None`` inherits the service config's
            ``async_options``.  The size-flush bound is always the service
            config's ``max_batch_size``.
        service: The synchronous service to flush into.  When ``None``, one
            is built from ``service_config`` (or its defaults) and owned —
            i.e. closed — by this front end; a caller-provided service is
            left open on :meth:`close` so it can be shared.
        service_config: Configuration of the owned service (mutually
            exclusive with ``service``).
    """

    def __init__(
        self,
        options: Optional[AsyncOptions] = None,
        service: Optional[PredictionService] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        if service is not None and service_config is not None:
            raise ValueError("pass either a service or a service_config, not both")
        self._owns_service = service is None
        self.service = service or PredictionService(service_config)
        if options is None:
            options = self.service.config.async_options
        #: The async layer's own knobs.
        self.options = options
        #: Size-flush bound: the service's one batch-size knob.
        self.max_batch_size = self.service.config.max_batch_size
        self.queue = RequestQueue(
            max_blocks=options.max_queue_blocks,
            policy=options.backpressure,
        )
        self.stats = AsyncServiceStats()
        # Guards the producer-side counters: submit() runs from many client
        # threads, and `+=` on shared attributes is not atomic.
        self._stats_lock = threading.Lock()
        # Serializes start/close transitions against each other (close is
        # documented idempotent, which includes concurrent callers).
        self._lifecycle_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        # Self-healing: the stale cache backing graceful degradation and
        # the event-scoped fault injector (queue saturation), both optional.
        self._stale_cache = (
            StalePredictionCache(_STALE_CACHE_ENTRIES)
            if options.degraded_mode
            else None
        )
        fault_plan = self.service.config.fault_plan
        self._fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._closed = False

    @property
    def inference_dtype(self) -> str:
        """Compute dtype of the service this front end flushes into."""
        return self.service.inference_dtype

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def start(self) -> "AsyncPredictionService":
        """Warm-starts the underlying service and the dispatcher thread.

        The service is warmed in the caller's thread (worker processes must
        not be forked from the dispatcher), then the dispatcher starts
        draining.  Requests submitted before ``start`` simply wait in the
        queue.  Idempotent while running.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._dispatcher is None:
                self.service.warm_start()
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-serve-dispatcher",
                    daemon=True,
                )
                self._dispatcher.start()
        return self

    def close(self) -> None:
        """Drains the queue, resolves every pending future, stops (idempotent).

        Already-admitted requests are still flushed and answered; new
        submissions fail immediately.  The underlying service is closed only
        if this front end built it.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            dispatcher, self._dispatcher = self._dispatcher, None
        self.queue.close()
        if dispatcher is None:
            # Never started: resolve whatever was queued ourselves.
            self._dispatch_loop()
        else:
            dispatcher.join()
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "AsyncPredictionService":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Producer API.
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: PredictionRequest,
        priority: int = Priority.NORMAL,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> "Future":
        """Enqueues one request; returns the future of its response.

        Args:
            request: The request to serve.
            priority: Scheduling class (:class:`~repro.serve.queue.Priority`
                or any int; lower drains first).
            timeout: With the ``block`` back-pressure policy, how long to
                wait for queue space before giving up (``None`` = forever).
            deadline_ms: Optional per-request latency budget measured from
                admission.  A request still queued when it runs out is
                dropped — before it can occupy a micro-batch — and its
                future resolves with
                :class:`~repro.serve.queue.RequestExpiredError`.

        The returned future supports ``cancel()`` while the request is
        queued: a cancelled entry is discarded eagerly (its blocks free up
        queue capacity immediately) and never reaches a worker.

        Raises:
            InvalidRequestError: A block does not parse or the task filter
                is unknown (checked here, so a malformed request never
                shares a batch with well-formed ones).
            QueueFullError: The queue is full (``reject`` policy) or the
                wait for space timed out (``block`` policy).
        """
        if self._fault_injector is not None and self._fault_injector.on_submit():
            with self._stats_lock:
                self.stats.injected_queue_rejections += 1
            raise QueueFullError("injected queue-saturation fault")
        self.service.admit(request)
        deadline_s = None if deadline_ms is None else deadline_ms / 1e3
        entry = self.queue.put(
            request,
            priority=priority,
            timeout=timeout,
            deadline_s=deadline_s,
        )
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.blocks += request.num_blocks
        return entry.future

    def predict_blocks(
        self,
        blocks: Sequence[Union[BasicBlock, str]],
        priority: int = Priority.INTERACTIVE,
        timeout: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """Synchronous convenience: submit one request, wait for its arrays.

        Defaults to :attr:`~repro.serve.queue.Priority.INTERACTIVE` since
        the caller is, by construction, blocked on the answer.  ``timeout``
        bounds each of the two waits (admission under the ``block``
        back-pressure policy, then the result), so the call cannot hang
        un-bounded on a full queue.  Starts the front end first if it was
        never started: unlike :meth:`submit`, this call waits for its own
        answer, which only a running dispatcher can produce.
        """
        self.start()
        future = self.submit(
            PredictionRequest.of(blocks), priority=priority, timeout=timeout
        )
        return future.result(timeout).predictions

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def snapshot(self) -> ServiceSnapshot:
        """A point-in-time typed view of the serving stack.

        Returns a :class:`~repro.serve.stats.ServiceSnapshot` combining the
        queue section (admission state and the queue's drop counters), the
        flush section (counters and realized wait/request percentiles) and
        the underlying service's :class:`~repro.serve.stats.ModelStats`.
        """
        # Counters are mutated by client threads (submit) and the
        # dispatcher (_flush) — read them under the same lock so the
        # snapshot is internally consistent.
        with self._stats_lock:
            stats = self.stats
            submitted_requests = stats.requests
            submitted_blocks = stats.blocks
            flush = FlushStats(
                flushes=stats.flushes,
                size_flushes=stats.size_flushes,
                flushed_blocks=stats.flushed_blocks,
                mean_flush_blocks=stats.mean_flush_blocks,
                wait_p50_ms=stats.flush_wait_percentile(0.50) * 1e3,
                wait_p99_ms=stats.flush_wait_percentile(0.99) * 1e3,
                request_p50_ms=stats.request_latency_percentile(0.50) * 1e3,
                request_p99_ms=stats.request_latency_percentile(0.99) * 1e3,
                request_p999_ms=stats.request_latency_percentile(0.999) * 1e3,
                requests_completed=stats.requests_completed,
                request_errors=stats.request_errors,
            )
            degraded_responses = stats.degraded_responses
            injected_queue_rejections = stats.injected_queue_rejections
        queue = QueueStats(
            depth_blocks=self.queue.pending_blocks,
            depth_requests=len(self.queue),
            max_blocks=self.queue.max_blocks,
            backpressure=self.queue.policy,
            submitted_requests=submitted_requests,
            submitted_blocks=submitted_blocks,
            rejected=self.queue.rejected,
            cancelled_drops=self.queue.cancelled,
            expired_drops=self.queue.expired,
        )
        resilience = ResilienceStats(
            degraded_responses=degraded_responses,
            stale_cache_entries=(
                len(self._stale_cache) if self._stale_cache is not None else 0
            ),
            injected_queue_rejections=injected_queue_rejections,
        )
        return ServiceSnapshot(
            queue=queue,
            flush=flush,
            model=self.service.snapshot(),
            resilience=resilience,
        )

    # ------------------------------------------------------------------ #
    # Dispatcher.
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        """Flushes batches until the queue reports closed-and-empty.

        The dispatcher takes whatever is queued as soon as its previous
        flush is done, so a request arriving during a flush waits in the
        queue rather than in a parked batch, and joins the next one.
        """
        while True:
            entries = self.queue.take_batch(self.max_batch_size)
            if not entries:
                return  # closed and fully drained
            self._flush(entries)

    def _flush(self, entries) -> None:
        # Every entry is claimed (running) by RequestQueue.take_batch, which
        # already dropped the cancelled and expired ones.
        now = time.monotonic()
        blocks = sum(e.request.num_blocks for e in entries)
        with self._stats_lock:
            self.stats.flushes += 1
            self.stats.flushed_blocks += blocks
            self.stats.flush_waits.append(now - min(e.enqueued_at for e in entries))
            self.stats.size_flushes += int(blocks >= self.max_batch_size)
        try:
            responses = self.service.submit([entry.request for entry in entries])
        except Exception as error:
            served, failed = self._degraded_responses(entries)
            done_at = time.monotonic()
            with self._stats_lock:
                self.stats.degraded_responses += len(served)
                self.stats.requests_completed += len(served)
                for entry, _ in served:
                    self.stats.request_latencies.append(done_at - entry.enqueued_at)
                self.stats.request_errors += len(failed)
            for entry, response in served:
                entry.future.set_result(response)
            for entry in failed:
                entry.future.set_exception(error)
            return
        if self._stale_cache is not None:
            for entry, response in zip(entries, responses):
                self._stale_cache.record(
                    entry.request.block_texts, response.predictions
                )
        # Record latencies *before* resolving the futures: a client reacting
        # to a result must never observe stats that don't include it yet.
        done_at = time.monotonic()
        with self._stats_lock:
            for entry in entries:
                self.stats.request_latencies.append(done_at - entry.enqueued_at)
            self.stats.requests_completed += len(entries)
        for entry, response in zip(entries, responses):
            entry.future.set_result(response)

    # ------------------------------------------------------------------ #
    # Self-healing.
    # ------------------------------------------------------------------ #
    def _degraded_responses(self, entries) -> tuple:
        """Splits a failed batch into stale-servable and truly failed entries.

        Returns ``(served, failed)`` where ``served`` pairs each entry with
        a ``degraded=True`` response built from the stale prediction cache.
        Entries already past their deadline are never served stale — the
        client stopped waiting for an answer, fresh or not.
        """
        if self._stale_cache is None:
            return [], list(entries)
        now = time.monotonic()
        served, failed = [], []
        for entry in entries:
            if entry.deadline_at is not None and now >= entry.deadline_at:
                failed.append(entry)
                continue
            request = entry.request
            payload = self._stale_cache.lookup(request.block_texts, request.tasks)
            if payload is None:
                failed.append(entry)
                continue
            served.append(
                (
                    entry,
                    PredictionResponse(
                        request_id=request.request_id,
                        predictions=payload,
                        num_blocks=request.num_blocks,
                        seconds=0.0,
                        degraded=True,
                    ),
                )
            )
        return served, failed
