"""Cancellation and per-request-deadline semantics of the async front end.

The contract under test (the PR's goodput story):

* a future cancelled while its request is queued is discarded *eagerly* —
  its blocks free queue capacity immediately and the request never reaches
  the service (no worker time spent);
* a request whose ``deadline_ms`` budget runs out before dispatch resolves
  with :class:`~repro.serve.queue.RequestExpiredError` instead of occupying
  a micro-batch;
* every dropped entry is counted exactly once, and the drop counters
  surfaced by ``AsyncPredictionService.snapshot()`` add up.
"""

import time

import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PredictionRequest,
    RequestExpiredError,
    RequestQueue,
    ServiceConfig,
)


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(GeneratorConfig(seed=29)).generate_blocks(24)


def _request(blocks, start, count, **kwargs):
    return PredictionRequest.of(blocks[start : start + count], **kwargs)


class TestQueueCancellation:
    def test_cancel_discards_eagerly_and_frees_capacity(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="reject")
        entry = queue.put(_request(blocks, 0, 4))
        assert queue.pending_blocks == 4
        assert entry.future.cancel()
        # The entry left the queue the moment the future was cancelled.
        assert queue.pending_blocks == 0
        assert len(queue) == 0
        assert queue.cancelled == 1
        # The freed capacity is usable without any dispatcher drain.
        queue.put(_request(blocks, 4, 4))

    def test_cancel_unblocks_blocked_producer(self, blocks):
        import threading

        queue = RequestQueue(max_blocks=4, policy="block")
        doomed = queue.put(_request(blocks, 0, 4))
        admitted = threading.Event()

        def producer():
            queue.put(_request(blocks, 4, 2))
            admitted.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not admitted.wait(0.05)  # queue is full, producer blocked
        doomed.future.cancel()
        assert admitted.wait(5.0)  # cancellation freed the space
        thread.join(timeout=5.0)

    def test_idle_cancellations_do_not_grow_the_heap(self, blocks):
        """Submit-then-cancel traffic on an otherwise idle queue must not
        pin cancelled payloads: the lazily-deleted heap is compacted once
        stale tuples dominate, without any drain running."""
        queue = RequestQueue(max_blocks=64)
        for _ in range(500):
            entry = queue.put(_request(blocks, 0, 1))
            assert entry.future.cancel()
        assert queue.cancelled == 500
        assert len(queue) == 0
        assert queue.pending_blocks == 0
        # The heap holds at most the live entries plus the compaction slack.
        assert len(queue._heap) <= 32

    def test_cancelled_entry_not_drained(self, blocks):
        queue = RequestQueue(max_blocks=64)
        doomed = queue.put(_request(blocks, 0, 2, request_id="doomed"))
        queue.put(_request(blocks, 2, 2, request_id="kept"))
        doomed.future.cancel()
        entries, _ = queue.take_batch(max_blocks=64, max_wait_s=0.0)
        assert [e.request.request_id for e in entries] == ["kept"]


class TestQueueExpiry:
    def test_expired_entry_resolves_with_timeout_error(self, blocks):
        queue = RequestQueue(max_blocks=64)
        doomed = queue.put(_request(blocks, 0, 2, request_id="late"), deadline_s=0.0)
        queue.put(_request(blocks, 2, 2, request_id="kept"))
        entries, _ = queue.take_batch(max_blocks=64, max_wait_s=0.0)
        assert [e.request.request_id for e in entries] == ["kept"]
        with pytest.raises(RequestExpiredError):
            doomed.future.result(timeout=1.0)
        assert queue.expired == 1
        assert queue.pending_blocks == 0

    def test_expiry_fires_during_the_flush_wait(self, blocks):
        """A deadline sooner than the flush deadline resolves on time —
        the dispatcher wait must wake for it, not sleep through it."""
        queue = RequestQueue(max_blocks=64)
        doomed = queue.put(_request(blocks, 0, 2), deadline_s=0.05)
        queue.put(_request(blocks, 2, 2, request_id="kept"))
        start = time.monotonic()
        entries, reason = queue.take_batch(max_blocks=64, max_wait_s=0.3)
        elapsed = time.monotonic() - start
        assert reason == "deadline"
        assert [e.request.request_id for e in entries] == ["kept"]
        assert elapsed >= 0.25  # the surviving entry still waited its flush
        with pytest.raises(RequestExpiredError):
            doomed.future.result(timeout=1.0)

    def test_negative_deadline_rejected(self, blocks):
        queue = RequestQueue(max_blocks=64)
        with pytest.raises(ValueError):
            queue.put(_request(blocks, 0, 2), deadline_s=-1.0)


class TestServiceCancellation:
    def test_cancelled_requests_never_reach_the_service(self, blocks):
        """Cancel half the backlog before the dispatcher starts: the
        service must only ever see (and spend compute on) the survivors."""
        service = AsyncPredictionService(
            service_config=ServiceConfig(
                model_name="granite",
                max_batch_size=8,
                async_options=AsyncOptions(max_latency_ms=5.0),
            )
        )
        futures = [
            service.submit(_request(blocks, 2 * index, 2, request_id=f"r{index}"))
            for index in range(8)
        ]
        for index in (1, 3, 5, 7):
            assert futures[index].cancel()
        service.start()
        kept = [futures[index] for index in (0, 2, 4, 6)]
        for future in kept:
            assert future.result(timeout=30.0).num_blocks == 2
        snapshot = service.snapshot()
        service.close()
        # The sync service behind the queue only saw the surviving blocks.
        assert service.service.stats.blocks == 8
        assert snapshot.queue.cancelled_drops == 4
        assert snapshot.queue.expired_drops == 0
        for index in (1, 3, 5, 7):
            assert futures[index].cancelled()

    def test_expired_requests_resolve_and_are_counted(self, blocks):
        service = AsyncPredictionService(
            service_config=ServiceConfig(
                model_name="granite",
                async_options=AsyncOptions(max_latency_ms=5.0),
            )
        )
        doomed = service.submit(_request(blocks, 0, 2), deadline_ms=1.0)
        kept = service.submit(_request(blocks, 2, 2))
        time.sleep(0.05)  # the doomed request's budget runs out in-queue
        service.start()
        assert kept.result(timeout=30.0).num_blocks == 2
        with pytest.raises(RequestExpiredError):
            doomed.result(timeout=5.0)
        snapshot = service.snapshot()
        service.close()
        assert snapshot.queue.expired_drops == 1
        assert snapshot.queue.cancelled_drops == 0
        assert service.service.stats.blocks == 2

    def test_drop_counters_add_up(self, blocks):
        """cancelled + expired + served == submitted, each counted once."""
        service = AsyncPredictionService(
            service_config=ServiceConfig(
                model_name="granite",
                async_options=AsyncOptions(max_latency_ms=5.0),
            )
        )
        cancelled = [service.submit(_request(blocks, 0, 2)) for _ in range(3)]
        expired = [
            service.submit(_request(blocks, 2, 2), deadline_ms=0.0)
            for _ in range(2)
        ]
        served = [service.submit(_request(blocks, 4, 2)) for _ in range(4)]
        for future in cancelled:
            assert future.cancel()
        time.sleep(0.02)
        service.start()
        for future in served:
            future.result(timeout=30.0)
        for future in expired:
            with pytest.raises(RequestExpiredError):
                future.result(timeout=5.0)
        snapshot = service.snapshot()
        service.close()
        assert snapshot.queue.cancelled_drops == 3
        assert snapshot.queue.expired_drops == 2
        assert snapshot.queue.submitted_requests == 9
        assert service.service.stats.blocks == 2 * 4

    def test_cancel_after_completion_is_a_noop(self, blocks):
        with AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        ) as service:
            future = service.submit(_request(blocks, 0, 2))
            future.result(timeout=30.0)
            assert not future.cancel()
            snapshot = service.snapshot()
        assert snapshot.queue.cancelled_drops == 0
