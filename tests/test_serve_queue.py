"""Tests of the async serving front end (repro.serve.queue / async_service)."""

import threading
import time

import numpy as np
import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    InvalidRequestError,
    PredictionRequest,
    PredictionService,
    Priority,
    QueueFullError,
    RequestQueue,
    ServiceClosedError,
    ServiceConfig,
)


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(GeneratorConfig(seed=21)).generate_blocks(24)


def _request(blocks, count=1, **kwargs):
    return PredictionRequest.of(blocks[:count], **kwargs)


class TestRequestQueue:
    def test_size_flush_is_immediate(self, blocks):
        queue = RequestQueue(max_blocks=64)
        for _ in range(4):
            queue.put(_request(blocks, 2))
        entries = queue.take_batch(max_blocks=8)
        assert sum(e.request.num_blocks for e in entries) == 8
        assert len(queue) == 0

    def test_priority_jumps_full_bulk_queue(self, blocks):
        """A late high-priority request drains before earlier bulk traffic."""
        queue = RequestQueue(max_blocks=64)
        for index in range(6):
            queue.put(
                _request(blocks, 2, request_id=f"bulk-{index}"),
                priority=Priority.BULK,
            )
        queue.put(
            _request(blocks, 2, request_id="interactive"),
            priority=Priority.INTERACTIVE,
        )
        entries = queue.take_batch(max_blocks=6)
        assert entries[0].request.request_id == "interactive"
        # Remaining capacity goes to the oldest bulk requests, in order.
        assert [e.request.request_id for e in entries[1:]] == ["bulk-0", "bulk-1"]

    def test_ties_drain_in_arrival_order(self, blocks):
        queue = RequestQueue(max_blocks=64)
        for index in range(4):
            queue.put(_request(blocks, 1, request_id=f"r{index}"))
        entries = queue.take_batch(max_blocks=64)
        assert [e.request.request_id for e in entries] == ["r0", "r1", "r2", "r3"]

    def test_reject_policy(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="reject")
        queue.put(_request(blocks, 4))
        with pytest.raises(QueueFullError):
            queue.put(_request(blocks, 1))
        assert queue.rejected == 1
        # Draining frees capacity again.
        queue.take_batch(max_blocks=64)
        queue.put(_request(blocks, 1))

    def test_block_policy_times_out(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="block")
        queue.put(_request(blocks, 4))
        start = time.monotonic()
        with pytest.raises(QueueFullError):
            queue.put(_request(blocks, 1), timeout=0.05)
        assert time.monotonic() - start >= 0.04

    def test_block_policy_unblocks_on_drain(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="block")
        queue.put(_request(blocks, 4))
        admitted = threading.Event()

        def producer():
            queue.put(_request(blocks, 2))
            admitted.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not admitted.wait(0.05)  # blocked: queue is full
        queue.take_batch(max_blocks=64)
        assert admitted.wait(5.0)
        thread.join(timeout=5.0)

    def test_oldest_entry_never_starved_by_priorities(self, blocks):
        """Sustained high-priority load cannot starve the arrival-oldest."""
        queue = RequestQueue(max_blocks=64)
        queue.put(_request(blocks, 2, request_id="old-bulk"), priority=Priority.BULK)
        for index in range(10):
            queue.put(
                _request(blocks, 2, request_id=f"hot-{index}"),
                priority=Priority.INTERACTIVE,
            )
        entries = queue.take_batch(max_blocks=8)
        request_ids = [entry.request.request_id for entry in entries]
        assert "old-bulk" in request_ids  # always flushed, despite priority
        assert request_ids[0] == "hot-0"  # but priority still leads the batch

    def test_oversized_request_never_fits(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="block")
        with pytest.raises(QueueFullError):
            queue.put(_request(blocks, 5))

    def test_oversized_flush_not_starved(self, blocks):
        """A request bigger than the flush bound is returned alone."""
        queue = RequestQueue(max_blocks=64)
        queue.put(_request(blocks, 12))
        entries = queue.take_batch(max_blocks=8)
        assert len(entries) == 1
        assert entries[0].request.num_blocks == 12

    @pytest.mark.parametrize(
        "requests, max_blocks, batch_lengths",
        [(1, 64, [1]), (5, 2, [1, 1, 1, 1, 1]), (5, 4, [2, 2, 1]), (5, 10, [5])],
    )
    def test_close_drains_then_signals_exit(
        self, blocks, requests, max_blocks, batch_lengths
    ):
        """A closed queue hands out its backlog in bound-sized batches, in
        arrival order, before the empty list that tells the dispatcher to exit."""
        queue = RequestQueue(max_blocks=64)
        for index in range(requests):
            queue.put(_request(blocks, 2, request_id=f"r{index}"))
        queue.close()
        batches = []
        while entries := queue.take_batch(max_blocks=max_blocks):
            batches.append([entry.request.request_id for entry in entries])
        assert [len(batch) for batch in batches] == batch_lengths
        assert sum(batches, []) == [f"r{index}" for index in range(requests)]
        assert queue.take_batch(max_blocks=max_blocks) == []
        with pytest.raises(ServiceClosedError):
            queue.put(_request(blocks, 1))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            RequestQueue(max_blocks=0)
        with pytest.raises(ValueError):
            RequestQueue(max_blocks=4, policy="drop-oldest")


class TestAsyncPredictionService:
    def test_matches_direct_predictions(self, blocks):
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=8,
        )
        with AsyncPredictionService(service_config=config) as service:
            direct = service.service.model.predict(blocks)
            futures = [
                service.submit(
                    PredictionRequest.of(blocks[index : index + 3]),
                    priority=Priority.BULK if index % 2 else Priority.INTERACTIVE,
                )
                for index in range(0, len(blocks), 3)
            ]
            for index, future in enumerate(futures):
                response = future.result(timeout=30.0)
                for task, values in direct.items():
                    np.testing.assert_allclose(
                        response.predictions[task],
                        values[3 * index : 3 * index + 3],
                        rtol=1e-9,
                    )
        stats = service.stats
        assert stats.requests == len(futures)
        assert stats.blocks == len(blocks)
        assert stats.flushes >= 1
        assert stats.flushed_blocks == len(blocks)

    def test_lone_request_flushes_without_company(self, blocks):
        """With a huge batch size, a lone request is flushed on its own."""
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=4096,
        )
        with AsyncPredictionService(service_config=config) as service:
            service.predict_blocks(blocks[:1])  # warm every cache
            service.predict_blocks(blocks[:1])
        assert service.stats.flushes == 2
        assert service.stats.size_flushes == 0

    def test_backpressure_reject_end_to_end(self, blocks):
        """With no dispatcher draining, the bounded queue rejects overflow."""
        config = ServiceConfig(
            model_name="granite",
            async_options=AsyncOptions(max_queue_blocks=4, backpressure="reject"),
        )
        service = AsyncPredictionService(service_config=config)
        accepted = service.submit(PredictionRequest.of(blocks[:4]))
        with pytest.raises(QueueFullError):
            service.submit(PredictionRequest.of(blocks[4:6]))
        # Closing still answers the admitted request (flush-on-close).
        service.close()
        assert accepted.result(timeout=30.0).num_blocks == 4
        assert service.queue.rejected == 1
        assert service.stats.flushes == 1

    def test_error_propagates_to_future(self, blocks):
        with AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        ) as service:

            def failing(requests):
                raise RuntimeError("backend down")

            service.service.submit = failing
            future = service.submit(PredictionRequest.of(blocks[:1]))
            with pytest.raises(RuntimeError, match="backend down"):
                future.result(timeout=30.0)

    @pytest.mark.parametrize(
        "request_",
        [
            PredictionRequest.of(["mov rax, [rbx+"]),
            PredictionRequest.of(["add rax, rbx"], tasks=("not-a-task",)),
        ],
        ids=["malformed-block", "unknown-task"],
    )
    def test_malformed_request_is_refused_at_admission(self, blocks, request_):
        with AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        ) as service:
            with pytest.raises(InvalidRequestError):
                service.submit(request_)
            assert service.stats.requests == 0
            # The refusal costs nobody else their answer.
            assert service.predict_blocks(blocks[:2])

    def test_shared_service_left_open(self, blocks):
        shared = PredictionService(ServiceConfig(model_name="granite"))
        with AsyncPredictionService(service=shared) as front_end:
            front_end.predict_blocks(blocks[:2])
        # The sync service survives its async front end and keeps serving.
        assert shared.predict_blocks(blocks[:2])
        assert shared.stats.requests == 2

    def test_cancelled_future_is_skipped_not_fatal(self, blocks):
        """A client cancelling a queued future must not kill the dispatcher."""
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=8,
        )
        service = AsyncPredictionService(service_config=config)
        doomed = service.submit(PredictionRequest.of(blocks[:2]))
        kept = service.submit(PredictionRequest.of(blocks[2:4]))
        assert doomed.cancel()  # still queued: cancellable
        service.start()
        assert kept.result(timeout=30.0).num_blocks == 2
        # The dispatcher survived the cancelled entry and keeps serving.
        assert service.predict_blocks(blocks[:1])
        service.close()
        assert doomed.cancelled()

    def test_submit_after_close_raises(self, blocks):
        service = AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        )
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(PredictionRequest.of(blocks[:1]))
        with pytest.raises(ServiceClosedError):
            service.start()

    def test_conflicting_construction_rejected(self):
        with pytest.raises(ValueError):
            AsyncPredictionService(
                service=PredictionService(),
                service_config=ServiceConfig(),
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            AsyncOptions(max_queue_blocks=0)

    def test_predict_blocks_starts_an_unstarted_front_end(self, blocks):
        """predict_blocks waits for its own answer, so it cannot queue behind
        a dispatcher that was never started (submit still may)."""
        service = AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        )
        try:
            predictions = service.predict_blocks(blocks[:2], timeout=5.0)
        finally:
            service.close()
        assert predictions
        assert all(len(values) == 2 for values in predictions.values())

    def test_predict_blocks_does_not_restart_a_closed_front_end(self, blocks):
        service = AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        )
        service.close()
        with pytest.raises(ServiceClosedError):
            service.predict_blocks(blocks[:1], timeout=5.0)
        assert len(service.queue) == 0
