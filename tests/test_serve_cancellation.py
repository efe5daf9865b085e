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

import sys
import threading
import time

import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PredictionRequest,
    PredictionResponse,
    PredictionService,
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
        entries = queue.take_batch(max_blocks=64)
        assert [e.request.request_id for e in entries] == ["kept"]

    def test_take_batch_claims_every_future(self, blocks):
        """A cancel that lands before the eager discard runs is caught by
        the claim: never returned, counted once, and every returned future
        is already running (no longer cancellable)."""
        queue = RequestQueue(max_blocks=64)
        entries = [
            queue.put(_request(blocks, 2 * index, 2, request_id=f"r{index}"))
            for index in range(6)
        ]
        # Simulate the race: the futures are cancelled, but the done
        # callbacks that would discard them eagerly do nothing.
        queue._on_future_done = lambda entry: None
        for index in (0, 3):  # r0 is the arrival-oldest entry
            assert entries[index].future.cancel()
        taken = queue.take_batch(max_blocks=64)
        assert [e.request.request_id for e in taken] == ["r1", "r2", "r4", "r5"]
        assert all(entry.future.running() for entry in taken)
        assert not any(entry.future.cancel() for entry in taken)
        assert queue.cancelled == 2
        assert queue.pending_blocks == 0
        assert len(queue) == 0

    def test_cancelled_blocks_do_not_use_the_batch_budget(self, blocks):
        queue = RequestQueue(max_blocks=64)
        doomed = queue.put(_request(blocks, 0, 4, request_id="doomed"))
        queue.put(_request(blocks, 4, 2, request_id="a"))
        queue.put(_request(blocks, 6, 2, request_id="b"))
        queue._on_future_done = lambda entry: None
        assert doomed.future.cancel()
        taken = queue.take_batch(max_blocks=4)
        assert [e.request.request_id for e in taken] == ["a", "b"]
        assert queue.cancelled == 1

    def test_all_cancelled_drain_is_not_a_close(self, blocks):
        """A drain whose every entry was cancelled returns nothing and waits
        on; only a closed, empty queue yields the empty batch."""
        queue = RequestQueue(max_blocks=64)
        doomed = queue.put(_request(blocks, 0, 2, request_id="doomed"))
        queue._on_future_done = lambda entry: None
        assert doomed.future.cancel()
        result = []
        thread = threading.Thread(
            target=lambda: result.append(queue.take_batch(64)),
            daemon=True,
        )
        thread.start()
        time.sleep(0.05)
        queue.put(_request(blocks, 2, 2, request_id="kept"))
        thread.join(timeout=5.0)
        assert [e.request.request_id for e in result[0]] == ["kept"]
        assert queue.cancelled == 1
        queue.close()
        assert queue.take_batch(64) == []

    def test_all_cancelled_drain_beside_an_expiry_is_not_a_close(self, blocks):
        """An expired entry resolving in the same pass as an all-cancelled
        drain must not surface as an empty batch: the dispatcher would read
        it as close and exit."""
        queue = RequestQueue(max_blocks=64)
        late = queue.put(_request(blocks, 0, 2, request_id="late"), deadline_s=0.0)
        doomed = queue.put(_request(blocks, 2, 2, request_id="doomed"))
        queue._on_future_done = lambda entry: None
        assert doomed.future.cancel()
        result = []
        thread = threading.Thread(
            target=lambda: result.append(queue.take_batch(64)),
            daemon=True,
        )
        thread.start()
        with pytest.raises(RequestExpiredError):
            late.future.result(timeout=5.0)
        time.sleep(0.05)
        assert thread.is_alive() and not result
        queue.put(_request(blocks, 4, 2, request_id="kept"))
        thread.join(timeout=5.0)
        assert [e.request.request_id for e in result[0]] == ["kept"]
        assert (queue.expired, queue.cancelled) == (1, 1)
        queue.close()
        assert queue.take_batch(64) == []

    def test_all_cancelled_drain_of_a_closed_queue_is_the_close(self, blocks):
        """A closed queue whose last entry is found cancelled at the claim
        returns the empty batch instead of waiting for a notify that no
        producer or discard callback will send."""
        queue = RequestQueue(max_blocks=64)
        doomed = queue.put(_request(blocks, 0, 2, request_id="doomed"))
        queue._on_future_done = lambda entry: None
        assert doomed.future.cancel()
        queue.close()
        result = []
        thread = threading.Thread(
            target=lambda: result.append(queue.take_batch(64)), daemon=True
        )
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "take_batch hung on a closed queue"
        assert result == [[]]
        assert queue.cancelled == 1


class TestQueueExpiry:
    def test_expired_entry_resolves_with_timeout_error(self, blocks):
        queue = RequestQueue(max_blocks=64)
        doomed = queue.put(_request(blocks, 0, 2, request_id="late"), deadline_s=0.0)
        queue.put(_request(blocks, 2, 2, request_id="kept"))
        entries = queue.take_batch(max_blocks=64)
        assert [e.request.request_id for e in entries] == ["kept"]
        with pytest.raises(RequestExpiredError):
            doomed.future.result(timeout=1.0)
        assert queue.expired == 1
        assert queue.pending_blocks == 0

    @pytest.mark.parametrize("deadline_s", [-1.0, float("nan"), float("inf")])
    def test_negative_deadline_rejected(self, blocks, deadline_s):
        queue = RequestQueue(max_blocks=64)
        with pytest.raises(ValueError):
            queue.put(_request(blocks, 0, 2), deadline_s=deadline_s)
        assert len(queue) == 0


class TestServiceCancellation:
    def test_cancelled_requests_never_reach_the_service(self, blocks):
        """Cancel half the backlog before the dispatcher starts: the
        service must only ever see (and spend compute on) the survivors."""
        service = AsyncPredictionService(
            service_config=ServiceConfig(
                model_name="granite",
                max_batch_size=8,
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

    def test_single_dispatcher_survives_an_all_cancelled_drain(self, blocks):
        """With one dispatcher, an expiry and an all-cancelled drain in the
        same pass leave the front end serving later requests."""
        inner = _EchoService(ServiceConfig(async_options=AsyncOptions()))
        service = AsyncPredictionService(service=inner)
        # The cancel lands "while the dispatcher holds the queue lock": the
        # entry stays queued and is only found cancelled at the claim.
        service.queue._on_future_done = lambda entry: None
        late = service.submit(_request(blocks, 0, 1, request_id="late"), deadline_ms=0.0)
        doomed = service.submit(_request(blocks, 1, 1, request_id="doomed"))
        assert doomed.cancel()
        time.sleep(0.05)  # past the late request's deadline
        with service:
            with pytest.raises(RequestExpiredError):
                late.result(timeout=5.0)
            time.sleep(0.05)
            later = service.submit(_request(blocks, 2, 1, request_id="later"))
            assert later.result(timeout=5.0).num_blocks == 1
            snapshot = service.snapshot()
        assert inner.served == ["later"]
        assert snapshot.queue.cancelled_drops == 1
        assert snapshot.queue.expired_drops == 1

    def test_unstarted_front_end_closes_after_an_all_cancelled_drain(self, blocks):
        """close() on a never-started front end drains inline; a queued entry
        found cancelled at the claim must not leave that drain waiting."""
        inner = _EchoService(ServiceConfig(async_options=AsyncOptions()))
        service = AsyncPredictionService(service=inner)
        service.queue._on_future_done = lambda entry: None
        doomed = service.submit(_request(blocks, 0, 1, request_id="doomed"))
        assert doomed.cancel()
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "close() hung on an all-cancelled drain"
        assert inner.served == []
        assert service.queue.cancelled == 1

    def test_cancel_after_completion_is_a_noop(self, blocks):
        with AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        ) as service:
            future = service.submit(_request(blocks, 0, 2))
            future.result(timeout=30.0)
            assert not future.cancel()
            snapshot = service.snapshot()
        assert snapshot.queue.cancelled_drops == 0


class _StallingService(PredictionService):
    """The first ``stalls`` submissions block until released.

    Records the request ids of every submission, so a test can see which
    requests shared a micro-batch.
    """

    def __init__(self, config, stalls):
        super().__init__(config)
        self.release = threading.Event()
        self.stalled = threading.Semaphore(0)
        self.calls = []
        self._stalls = stalls
        self._calls_lock = threading.Lock()

    def submit(self, requests):
        with self._calls_lock:
            self.calls.append([request.request_id for request in requests])
            stall = self._stalls > 0
            self._stalls -= int(stall)
        if stall:
            self.stalled.release()
            assert self.release.wait(timeout=30.0), "never released"
        return super().submit(requests)


class TestBusyDispatcher:
    """While the one dispatcher is busy, new requests stay in the queue."""

    def test_requests_arriving_during_a_stall_share_one_batch(self, blocks):
        inner = _StallingService(
            ServiceConfig(
                model_name="granite",
                max_batch_size=16,
            ),
            stalls=1,
        )
        with AsyncPredictionService(service=inner) as service:
            first = service.submit(_request(blocks, 0, 1, request_id="first"))
            assert inner.stalled.acquire(timeout=10.0)
            # The dispatcher is inside the service.  The next requests
            # arrive 50 ms apart and wait in the queue until it is free.
            second = service.submit(_request(blocks, 1, 1, request_id="second"))
            time.sleep(0.05)
            late_a = service.submit(_request(blocks, 2, 1, request_id="late-a"))
            time.sleep(0.05)
            late_b = service.submit(_request(blocks, 3, 1, request_id="late-b"))
            victim = service.submit(_request(blocks, 4, 1, request_id="victim"))
            time.sleep(0.05)
            assert victim.cancel()  # still queued, so still cancellable
            inner.release.set()
            for future in (first, second, late_a, late_b):
                assert future.result(timeout=30.0).num_blocks == 1
            snapshot = service.snapshot()
        # Everything that queued behind the stall went out in one flush.
        assert inner.calls == [["first"], ["second", "late-a", "late-b"]]
        assert victim.cancelled()
        assert snapshot.queue.cancelled_drops == 1
        assert snapshot.flush.requests_completed == 4
        assert snapshot.flush.flushes == 2


class _EchoService(PredictionService):
    """Answers every request with an empty prediction, without a model."""

    def __init__(self, config):
        super().__init__(config)
        self.served = []
        self._served_lock = threading.Lock()

    def warm_start(self):
        return self

    def submit(self, requests):
        with self._served_lock:
            self.served.extend(request.request_id for request in requests)
        return [
            PredictionResponse(request.request_id, {}, request.num_blocks)
            for request in requests
        ]


class TestProducersRaceOneDispatcher:
    def test_every_request_is_served_or_dropped_exactly_once(self, blocks):
        """Four producers that cancel and expire some of their requests race
        the one dispatcher: nothing is lost, nothing is served twice, and
        every drop is counted once."""
        inner = _EchoService(
            ServiceConfig(
                max_batch_size=4,
            )
        )
        futures = {}

        def produce(service, worker):
            for index in range(100):
                request_id = f"{worker}-{index}"
                future = service.submit(
                    _request(blocks, index % 20, 1, request_id=request_id),
                    deadline_ms=0.0 if index % 7 == 0 else None,
                )
                if index % 5 == 0:
                    future.cancel()
                futures[request_id] = future

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AsyncPredictionService(service=inner) as service:
                producers = [
                    threading.Thread(target=produce, args=(service, worker))
                    for worker in range(4)
                ]
                for producer in producers:
                    producer.start()
                for producer in producers:
                    producer.join(timeout=30.0)
                    assert not producer.is_alive()
                for future in futures.values():
                    if not future.cancelled():
                        future.exception(timeout=30.0)
                snapshot = service.snapshot()
        finally:
            sys.setswitchinterval(previous)
        assert len(futures) == 400
        cancelled = [f for f in futures.values() if f.cancelled()]
        rest = [f for f in futures.values() if not f.cancelled()]
        expired = [f for f in rest if isinstance(f.exception(), RequestExpiredError)]
        served = [
            request_id
            for request_id, f in futures.items()
            if not f.cancelled() and f.exception() is None
        ]
        assert cancelled and expired and served
        assert len(cancelled) + len(expired) + len(served) == 400
        assert sorted(inner.served) == sorted(served)
        assert snapshot.queue.cancelled_drops == len(cancelled)
        assert snapshot.queue.expired_drops == len(expired)
        assert snapshot.flush.requests_completed == len(served)
